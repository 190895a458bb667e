// Fidelity sensitivity: quantifies the paper's lesson that "the result
// space is highly sensitive to the fidelity of the model" — the same
// architecture projected to earlier lifecycle stages associates with a
// differently sized and differently *shaped* result space (high-level
// models match patterns/weaknesses, implementation models add thousands
// of platform-bound vulnerabilities).

#pragma once

#include <vector>

#include "model/system_model.hpp"
#include "search/association.hpp"

namespace cybok::analysis {

/// Result-space measurements at one fidelity level.
struct FidelityPoint {
    model::Fidelity level = model::Fidelity::Conceptual;
    std::size_t attributes = 0; ///< attributes visible at this level
    std::size_t attack_patterns = 0;
    std::size_t weaknesses = 0;
    std::size_t vulnerabilities = 0;
    /// Fraction of matches established via exact platform binding — a
    /// proxy for how *specific* (vs generic) the result space is.
    double specificity = 0.0;

    [[nodiscard]] std::size_t total() const noexcept {
        return attack_patterns + weaknesses + vulnerabilities;
    }
};

/// Associate the model at every fidelity level from Conceptual to its own
/// maximum and measure each result space.
[[nodiscard]] std::vector<FidelityPoint> fidelity_sweep(const model::SystemModel& m,
                                                        const search::QueryEngine& engine);

} // namespace cybok::analysis
