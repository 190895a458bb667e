#include "analysis/fidelity.hpp"

namespace cybok::analysis {

std::vector<FidelityPoint> fidelity_sweep(const model::SystemModel& m,
                                          const search::QueryEngine& engine) {
    std::vector<FidelityPoint> out;
    // One inline Associator for the sweep: an attribute present at several
    // fidelity levels is queried once.
    search::AssocOptions options;
    options.threads = 1;
    search::Associator associator(engine, options);
    const model::Fidelity max = m.max_fidelity();
    for (int level = 0; level <= static_cast<int>(max); ++level) {
        const model::Fidelity f = static_cast<model::Fidelity>(level);
        model::SystemModel projected = m.at_fidelity(f);

        FidelityPoint point;
        point.level = f;
        for (const model::Component& c : projected.components()) {
            if (!c.id.valid()) continue;
            point.attributes += c.attributes.size();
        }

        search::AssociationMap assoc = associator.associate(projected);
        point.attack_patterns = assoc.total(search::VectorClass::AttackPattern);
        point.weaknesses = assoc.total(search::VectorClass::Weakness);
        point.vulnerabilities = assoc.total(search::VectorClass::Vulnerability);

        std::size_t bindings = 0;
        std::size_t total = 0;
        for (const search::ComponentAssociation& ca : assoc.components) {
            for (const search::AttributeAssociation& aa : ca.attributes) {
                for (const search::Match& match : aa.matches) {
                    ++total;
                    if (match.via == search::MatchVia::PlatformBinding) ++bindings;
                }
            }
        }
        point.specificity = total == 0 ? 0.0
                                       : static_cast<double>(bindings) /
                                             static_cast<double>(total);
        out.push_back(point);
    }
    return out;
}

} // namespace cybok::analysis
