// What-if analysis: apply an architectural refinement, re-associate only
// what changed, and compare postures — the dashboard loop where "different
// architectures are evaluated by experts iteratively to lead to an
// acceptably secured system".

#pragma once

#include "analysis/posture.hpp"
#include "model/diff.hpp"
#include "search/association.hpp"

namespace cybok::analysis {

/// Everything an analyst needs after one refinement step.
struct WhatIfResult {
    model::ModelDiff diff;
    search::AssociationMap after_associations;
    SecurityPosture after_posture;
    PostureComparison comparison;
};

/// Evaluate a candidate architecture `after` against the current state
/// (`before` + its association map). Re-association is incremental and
/// runs through the cached Associator: only components the diff touches
/// are re-queried, unchanged attributes of touched components hit the
/// query cache, and the refined components' superseded cache entries are
/// invalidated (see Associator::reassociate). This is the
/// interactive-dashboard path — the paper's loop "evaluates different
/// architectures iteratively", so each refinement pays only for what
/// actually changed.
[[nodiscard]] WhatIfResult what_if(const model::SystemModel& before,
                                   const search::AssociationMap& before_associations,
                                   const model::SystemModel& after,
                                   search::Associator& associator);

} // namespace cybok::analysis
