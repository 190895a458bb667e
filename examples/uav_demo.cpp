// Second domain scenario: a small UAV control system. Exercises the
// safety layer end-to-end — control-structure extraction, attack-vector
// association (narrowed by a filter chain to the strongest findings), and
// consequence traces from the radio entry point to airframe-level hazards
// (GPS spoofing into the estimator, waypoint manipulation out of the
// approved volume).
//
//   $ ./uav_demo

#include <algorithm>
#include <iostream>

#include "core/session.hpp"
#include "search/filters.hpp"
#include "synth/corpus_gen.hpp"
#include "synth/scada.hpp"

using namespace cybok;

int main() {
    kb::Corpus corpus = synth::generate_corpus(synth::CorpusProfile::scada_demo());
    safety::HazardModel hazards = synth::uav_hazards();

    core::AnalysisSession session(synth::uav_model(), corpus);
    session.set_hazards(hazards);

    std::cout << "Control structure:\n";
    safety::ControlStructure cs = safety::extract_control_structure(session.model());
    for (const auto& a : cs.actions)
        std::cout << "  action: " << a.controller << " --[" << a.via << "]--> "
                  << a.controlled << '\n';
    for (const auto& f : cs.feedback)
        std::cout << "  feedback: " << f.source << " --[" << f.via << "]--> " << f.controller
                  << '\n';
    std::cout << '\n';

    // Analysts drown without filters; keep the strongest findings only.
    search::FilterChain chain;
    chain.add(search::min_severity(cvss::Severity::High)).top_k_per_class(25);
    search::FilterChain::Report funnel;
    const search::AssociationMap strongest = chain.apply(session.associations(), &funnel);
    std::cout << "Strongest findings (severity >= High, top 25 per class and attribute): "
              << funnel.output << " of " << funnel.input << " attack vectors\n";
    std::cout << dashboard::attribute_summary_table(strongest).render() << '\n';

    std::cout << dashboard::render_text(session.report());

    std::cout << "Traces initiated from outside the aircraft:\n";
    safety::ConsequenceAnalyzer analyzer(session.model(), hazards);
    for (const safety::ConsequenceTrace& t :
         analyzer.externally_reachable(session.associations()))
        std::cout << "  " << safety::to_string(t) << '\n';

    // STPA-with-security causal scenarios: how each unsafe control action
    // could be *made* to happen, and which weakness classes support it.
    std::cout << "\nCausal scenarios (supported ones first):\n";
    std::vector<safety::CausalScenario> scenarios = session.causal_scenarios();
    std::stable_partition(scenarios.begin(), scenarios.end(),
                          [](const safety::CausalScenario& s) { return s.supported(); });
    for (const safety::CausalScenario& s : scenarios)
        std::cout << "  " << safety::to_string(s) << '\n';

    std::cout << "\nHardening priorities:\n";
    for (const analysis::HardeningCandidate& c : session.hardening_candidates())
        std::cout << "  " << c.component << ": blocks " << c.traces_blocked
                  << " trace(s), cuts " << c.paths_cut << " path(s), removes "
                  << c.vectors_removed << " vector(s)"
                  << (c.articulation_point ? " [architectural choke point]" : "") << '\n';
    return 0;
}
