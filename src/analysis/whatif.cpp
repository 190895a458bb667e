#include "analysis/whatif.hpp"

namespace cybok::analysis {

WhatIfResult what_if(const model::SystemModel& before,
                     const search::AssociationMap& before_associations,
                     const model::SystemModel& after, search::Associator& associator) {
    WhatIfResult out;
    out.diff = model::diff(before, after);
    out.after_associations = associator.reassociate(before_associations, out.diff, after);
    out.after_posture = compute_posture(after, out.after_associations);
    out.comparison = compare(compute_posture(before, before_associations), out.after_posture);
    return out;
}

} // namespace cybok::analysis
