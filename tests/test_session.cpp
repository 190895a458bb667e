// End-to-end tests of the AnalysisSession facade, including the exact
// Table 1 regression against the paper's published numbers.

#include <gtest/gtest.h>

#include <filesystem>

#include "core/session.hpp"
#include "dashboard/vector_graph.hpp"
#include "graph/graphml.hpp"
#include "model/export.hpp"
#include "search/filters.hpp"
#include "synth/corpus_gen.hpp"
#include "synth/scada.hpp"

using namespace cybok;
using namespace cybok::core;

namespace {
const kb::Corpus& demo_corpus() {
    static const kb::Corpus corpus = synth::generate_corpus(synth::CorpusProfile::scada_demo());
    return corpus;
}
} // namespace

TEST(Session, CapabilityOneExportsArchitecture) {
    AnalysisSession s(synth::centrifuge_model(), demo_corpus());
    graph::PropertyGraph g = model::to_graph(s.model());
    EXPECT_EQ(g.node_count(), 6u);
    EXPECT_EQ(g.edge_count(), 10u); // 3 bidirectional + 4 one-way
    std::string xml = graph::to_graphml(g, s.model().name());
    EXPECT_NE(xml.find("<graphml"), std::string::npos);
    EXPECT_NE(xml.find("BPCS platform"), std::string::npos);
}

TEST(Session, TableOneMatchesThePaperExactly) {
    // The headline reproduction: Table 1 of the DSN 2020 paper.
    AnalysisSession s(synth::centrifuge_model(), demo_corpus());
    auto rows = s.associations().attribute_table();

    struct Expected {
        const char* attribute;
        std::size_t patterns, weaknesses, vulnerabilities;
    };
    const Expected paper[] = {
        {"Cisco ASA", 2, 1, 3776},  {"NI RT Linux OS", 54, 75, 9673},
        {"Windows 7", 41, 73, 6627}, {"LabVIEW", 0, 0, 6},
        {"NI cRIO 9063", 0, 0, 7},  {"NI cRIO 9064", 0, 0, 7},
    };
    for (const Expected& e : paper) {
        bool found = false;
        for (const auto& row : rows) {
            if (row.attribute != e.attribute) continue;
            found = true;
            EXPECT_EQ(row.attack_patterns, e.patterns) << e.attribute;
            EXPECT_EQ(row.weaknesses, e.weaknesses) << e.attribute;
            EXPECT_EQ(row.vulnerabilities, e.vulnerabilities) << e.attribute;
            break; // duplicate rows (both controllers) hold identical counts
        }
        EXPECT_TRUE(found) << e.attribute;
    }
}

TEST(Session, CweSeventyEightFindingOnControlPlatforms) {
    // "both the BPCS and SIS platforms were proposed of being vulnerable
    // to CWE-78 – OS Command Injection".
    AnalysisSession s(synth::centrifuge_model(), demo_corpus());
    for (const char* component : {"BPCS platform", "SIS platform"}) {
        const search::ComponentAssociation* ca = s.associations().find(component);
        ASSERT_NE(ca, nullptr);
        bool found = false;
        for (const auto& aa : ca->attributes)
            for (const auto& m : aa.matches)
                if (m.id == "CWE-78") found = true;
        EXPECT_TRUE(found) << component;
    }
}

TEST(Session, PostureAndTracesLazilyComputed) {
    AnalysisSession s(synth::centrifuge_model(), demo_corpus());
    EXPECT_FALSE(s.has_hazards());
    EXPECT_TRUE(s.consequence_traces().empty()); // no hazard model yet
    s.set_hazards(synth::centrifuge_hazards());
    EXPECT_TRUE(s.has_hazards());
    EXPECT_FALSE(s.consequence_traces().empty());
    EXPECT_EQ(s.posture().components.size(), 6u);
}

TEST(Session, RejectsInvalidHazardModel) {
    AnalysisSession s(synth::centrifuge_model(), demo_corpus());
    safety::HazardModel broken;
    broken.add(safety::Hazard{"H-1", "dangling", {"L-9"}});
    EXPECT_THROW(s.set_hazards(std::move(broken)), cybok::ValidationError);
}

TEST(Session, ProposeDoesNotMutateState) {
    AnalysisSession s(synth::centrifuge_model(), demo_corpus());
    std::size_t before = s.associations().total();
    analysis::WhatIfResult r = s.propose(synth::centrifuge_model_hardened());
    EXPECT_EQ(r.comparison.verdict, analysis::Verdict::Improved);
    EXPECT_EQ(s.associations().total(), before); // unchanged
    EXPECT_EQ(s.model().name(), "particle-separation-centrifuge");
}

TEST(Session, CommitAppliesIncrementalUpdate) {
    AnalysisSession s(synth::centrifuge_model(), demo_corpus());
    std::size_t before = s.associations().total();
    model::ModelDiff d = s.commit(synth::centrifuge_model_hardened());
    EXPECT_FALSE(d.empty());
    std::size_t after = s.associations().total();
    EXPECT_LT(after, before);

    // Committed state matches a fresh full analysis.
    AnalysisSession fresh(synth::centrifuge_model_hardened(), demo_corpus());
    EXPECT_EQ(after, fresh.associations().total());
}

TEST(Session, CommitInvalidatesDerivedViews) {
    AnalysisSession s(synth::centrifuge_model(), demo_corpus());
    s.set_hazards(synth::centrifuge_hazards());
    std::size_t traces_before = s.consequence_traces().size();
    (void)traces_before;
    double ws_sev_before = s.posture().find("Programming WS")->max_severity;
    s.commit(synth::centrifuge_model_hardened());
    double ws_sev_after = s.posture().find("Programming WS")->max_severity;
    EXPECT_NE(ws_sev_before, ws_sev_after); // Windows 7 CVEs are gone
}

TEST(Session, FilterChainShrinksResultSpace) {
    search::FilterChain chain;
    chain.add(search::min_severity(cvss::Severity::Critical)).top_k_per_class(10);
    AnalysisSession s(synth::centrifuge_model(), demo_corpus());
    search::FilterChain::Report report;
    search::AssociationMap filtered = chain.apply(s.associations(), &report);
    EXPECT_LT(filtered.total(), s.associations().total());
    EXPECT_EQ(report.input, s.associations().total());
    EXPECT_EQ(report.output, filtered.total());
    // Top-10 per class per attribute: bounded per attribute.
    for (const auto& ca : filtered.components)
        for (const auto& aa : ca.attributes)
            EXPECT_LE(aa.count(search::VectorClass::Vulnerability), 10u);
}

TEST(Session, ReportAndBundle) {
    AnalysisSession s(synth::centrifuge_model(), demo_corpus());
    s.set_hazards(synth::centrifuge_hazards());
    dashboard::Report r = s.report();
    EXPECT_NE(r.find_section("Physical consequences"), nullptr);

    std::string dir = testing::TempDir() + "/cybok_session_bundle";
    std::filesystem::create_directories(dir);
    auto files = s.export_bundle(dir);
    EXPECT_EQ(files.size(), 5u);
}

TEST(Session, FidelityStoryHoldsEndToEnd) {
    // The full paper narrative: a functional-fidelity model produces a
    // qualitatively different (vulnerability-free) result space than the
    // implementation-fidelity model.
    AnalysisSession impl(synth::centrifuge_model(), demo_corpus());
    AnalysisSession func(synth::centrifuge_model().at_fidelity(model::Fidelity::Functional),
                         demo_corpus());
    EXPECT_GT(impl.associations().total(search::VectorClass::Vulnerability), 20000u);
    EXPECT_EQ(func.associations().total(search::VectorClass::Vulnerability), 0u);
    EXPECT_GT(func.associations().total(search::VectorClass::AttackPattern), 0u);
}

TEST(Session, VersionString) {
    EXPECT_FALSE(version().empty());
}

TEST(Session, CausalScenariosRequireHazards) {
    AnalysisSession s(synth::centrifuge_model(), demo_corpus());
    EXPECT_TRUE(s.causal_scenarios().empty());
    s.set_hazards(synth::centrifuge_hazards());
    const auto& scenarios = s.causal_scenarios();
    EXPECT_FALSE(scenarios.empty());
    // The Triton-style UCA-4 (trip withheld) has a supported
    // compromised-controller scenario on the SIS.
    bool found = false;
    for (const auto& sc : scenarios) {
        if (sc.uca_id == "UCA-4" &&
            sc.cls == safety::CausalClass::CompromisedController) {
            EXPECT_TRUE(sc.supported());
            found = true;
        }
    }
    EXPECT_TRUE(found);
}

TEST(Session, HardeningCandidatesRanked) {
    AnalysisSession s(synth::centrifuge_model(), demo_corpus());
    s.set_hazards(synth::centrifuge_hazards());
    auto ranked = s.hardening_candidates();
    ASSERT_FALSE(ranked.empty());
    for (std::size_t i = 1; i < ranked.size(); ++i)
        EXPECT_GE(ranked[i - 1].traces_blocked, ranked[i].traces_blocked);
}

TEST(Session, VectorGraphBuilds) {
    AnalysisSession s(synth::centrifuge_model(), demo_corpus());
    graph::PropertyGraph g =
        dashboard::build_vector_graph(s.model(), s.associations(), s.corpus());
    auto stats = dashboard::vector_graph_stats(g);
    EXPECT_EQ(stats.components, 6u);
    EXPECT_GT(stats.association_edges, 0u);
}

TEST(Session, ExplainAuditsAMatch) {
    AnalysisSession s(synth::centrifuge_model(), demo_corpus());
    model::ComponentId bpcs = *s.model().find_component("BPCS platform");
    const model::Attribute* role = s.model().find_attribute(bpcs, "role");
    ASSERT_NE(role, nullptr);
    auto matches = s.engine().query_attribute(*role);
    ASSERT_FALSE(matches.empty());
    // Find the CWE-78 match and audit it.
    for (const auto& m : matches) {
        if (m.id != "CWE-78") continue;
        std::string why = s.engine().explain(*role, m);
        EXPECT_NE(why.find("CWE-78"), std::string::npos);
        EXPECT_NE(why.find("via lexical"), std::string::npos);
        EXPECT_NE(why.find("<- matched this record"), std::string::npos);
        EXPECT_NE(why.find("evidence IDF total"), std::string::npos);
    }
    // Platform-binding explanation path.
    const model::Attribute* os = s.model().find_attribute(bpcs, "os");
    auto os_matches = s.engine().query_attribute(*os);
    ASSERT_FALSE(os_matches.empty());
    std::string why = s.engine().explain(*os, os_matches.back());
    EXPECT_NE(why.find("CPE rule"), std::string::npos);
}

TEST(Session, ReportIncludesScenarioAndHardeningSections) {
    AnalysisSession s(synth::centrifuge_model(), demo_corpus());
    s.set_hazards(synth::centrifuge_hazards());
    dashboard::Report r = s.report();
    const dashboard::Section* scenarios = r.find_section("Causal scenarios");
    ASSERT_NE(scenarios, nullptr);
    EXPECT_FALSE(scenarios->lines.empty());
    const dashboard::Section* hardening = r.find_section("Hardening priorities");
    ASSERT_NE(hardening, nullptr);
    ASSERT_TRUE(hardening->table.has_value());
    EXPECT_GT(hardening->table->row_count(), 0u);

    // Without hazards, neither section appears.
    AnalysisSession bare(synth::centrifuge_model(), demo_corpus());
    dashboard::Report r2 = bare.report();
    EXPECT_EQ(r2.find_section("Causal scenarios"), nullptr);
    EXPECT_EQ(r2.find_section("Hardening priorities"), nullptr);
}

