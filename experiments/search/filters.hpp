// The filter pipeline for managing the large result space.
//
// The paper: "the total number of attack vectors returned by the search
// process is large … Filtering functionality is implemented to manage
// these attack vectors." Filters are composable named predicates plus two
// structural reductions (top-k, vulnerability abstraction); the chain
// records how many matches each stage dropped so callers can show the
// funnel. Callers apply a chain to an association's match lists
// (bench_filtering, examples/uav_demo.cpp); no CLI or serve path does.

#pragma once

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "search/association.hpp"
#include "search/engine.hpp"

namespace cybok::search {

/// A named predicate over matches; true = keep.
struct Filter {
    std::string name;
    std::function<bool(const Match&)> keep;
};

// -- predicate factories ---------------------------------------------------

/// Keep only the given class.
[[nodiscard]] Filter by_class(VectorClass cls);
/// Keep matches whose ranking score is at least `threshold`.
[[nodiscard]] Filter min_score(double threshold);
/// Keep vulnerabilities whose CVSS severity band is at least `band`;
/// non-vulnerability matches always pass (severity is a vulnerability
/// concept — the paper's CVSS caveat).
[[nodiscard]] Filter min_severity(cvss::Severity band);
/// Keep matches established via the given mechanism.
[[nodiscard]] Filter by_via(MatchVia via);
/// Keep matches whose evidence contains the given term.
[[nodiscard]] Filter evidence_contains(std::string term);

/// A sequential filter chain with per-stage drop accounting.
class FilterChain {
public:
    FilterChain& add(Filter f);
    /// After predicates, keep only the `k` highest-scoring matches per
    /// class (0 = unlimited). Vulnerability matches from platform bindings
    /// rank by severity since their lexical score is 0.
    FilterChain& top_k_per_class(std::size_t k);

    struct Report {
        std::size_t input = 0;
        std::size_t output = 0;
        /// stage name -> matches dropped by that stage.
        std::map<std::string, std::size_t> dropped_by;
    };

    /// Apply to a match list; returns the surviving matches and fills
    /// `report` if non-null.
    [[nodiscard]] std::vector<Match> apply(std::vector<Match> matches,
                                           Report* report = nullptr) const;
    /// Apply to every attribute's match list of an association map; the
    /// report sums over all attributes.
    [[nodiscard]] AssociationMap apply(AssociationMap map, Report* report = nullptr) const;

    [[nodiscard]] std::size_t stage_count() const noexcept { return filters_.size(); }

private:
    std::vector<Filter> filters_;
    std::size_t top_k_ = 0;
};

/// The paper's fidelity-mitigation: "abstract away vulnerabilities at the
/// earlier stages of the design lifecycle". Replaces vulnerability matches
/// by one aggregated weakness-class match per distinct CWE (carrying the
/// count and the maximum severity of the vulnerabilities it abstracts);
/// vulnerabilities without CWE references are aggregated per platform
/// evidence. Pattern/weakness matches pass through unchanged.
[[nodiscard]] std::vector<Match> abstract_vulnerabilities(const std::vector<Match>& matches,
                                                          const kb::Corpus& corpus);

} // namespace cybok::search
