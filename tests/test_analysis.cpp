#include <gtest/gtest.h>

#include <algorithm>

#include "analysis/attack_paths.hpp"
#include "analysis/fidelity.hpp"
#include "analysis/posture.hpp"
#include "analysis/whatif.hpp"
#include "oracle/association_reference.hpp"
#include "synth/corpus_gen.hpp"
#include "synth/scada.hpp"

using namespace cybok;
using namespace cybok::analysis;

namespace {

const kb::Corpus& demo_corpus() {
    static const kb::Corpus corpus =
        synth::generate_corpus(synth::CorpusProfile::scaled(0.1, 99));
    return corpus;
}

const search::SearchEngine& demo_engine() {
    static const search::SearchEngine engine(demo_corpus());
    return engine;
}

search::AssociationMap stub_assoc(
    std::initializer_list<std::pair<const char*, int>> items) {
    search::AssociationMap map;
    for (const auto& [name, n] : items) {
        search::ComponentAssociation ca;
        ca.component = name;
        search::AttributeAssociation aa;
        aa.attribute_name = "role";
        aa.attribute_value = "stub";
        for (int i = 0; i < n; ++i) {
            search::Match m;
            m.cls = i % 2 == 0 ? search::VectorClass::Weakness
                               : search::VectorClass::Vulnerability;
            m.id = "X-" + std::to_string(i);
            m.severity = i % 2 == 1 ? 5.0 + i : -1.0;
            aa.matches.push_back(std::move(m));
        }
        ca.attributes.push_back(std::move(aa));
        map.components.push_back(std::move(ca));
    }
    return map;
}

} // namespace

// ----------------------------------------------------------------- posture

TEST(Posture, ComputesCountsAndExposure) {
    model::SystemModel m = synth::centrifuge_model();
    search::AssociationMap assoc = oracle::associate(m, demo_engine());
    SecurityPosture posture = compute_posture(m, assoc);

    ASSERT_EQ(posture.components.size(), 6u);
    const ComponentPosture* ws = posture.find("Programming WS");
    ASSERT_NE(ws, nullptr);
    EXPECT_EQ(ws->exposure_hops, 0u); // external-facing
    EXPECT_GT(ws->total_vectors(), 0u);

    const ComponentPosture* bpcs = posture.find("BPCS platform");
    ASSERT_NE(bpcs, nullptr);
    EXPECT_EQ(bpcs->exposure_hops, 2u); // WS -> firewall -> BPCS
    EXPECT_GT(bpcs->centrality, 0.0);   // everything pivots through it

    const ComponentPosture* cf = posture.find("Centrifuge");
    ASSERT_NE(cf, nullptr);
    EXPECT_EQ(cf->exposure_hops, 3u);

    EXPECT_EQ(posture.total_vectors(), assoc.total());
    EXPECT_EQ(posture.find("nope"), nullptr);
}

TEST(Posture, MaxSeverityTracksWorstVulnerability) {
    model::SystemModel m("t", "");
    m.add_component("A", model::ComponentType::Compute);
    SecurityPosture p = compute_posture(m, stub_assoc({{"A", 4}}));
    ASSERT_EQ(p.components.size(), 1u);
    EXPECT_DOUBLE_EQ(p.components[0].max_severity, 8.0); // 5+3
}

TEST(Posture, UnreachableComponentExposure) {
    model::SystemModel m("t", "");
    m.add_component("A", model::ComponentType::Compute); // not external
    SecurityPosture p = compute_posture(m, search::AssociationMap{});
    EXPECT_EQ(p.components[0].exposure_hops, UINT32_MAX);
}

TEST(PostureCompare, ImprovedWhenVectorsDrop) {
    model::SystemModel m("t", "");
    m.add_component("A", model::ComponentType::Compute);
    SecurityPosture before = compute_posture(m, stub_assoc({{"A", 6}}));
    SecurityPosture after = compute_posture(m, stub_assoc({{"A", 2}}));
    PostureComparison cmp = compare(before, after);
    EXPECT_EQ(cmp.verdict, Verdict::Improved);
    EXPECT_EQ(cmp.delta_total, -4);
    ASSERT_EQ(cmp.rows.size(), 1u);
    EXPECT_EQ(cmp.rows[0].component, "A");
}

TEST(PostureCompare, WorsenedAndMixedAndUnchanged) {
    model::SystemModel m("t", "");
    m.add_component("A", model::ComponentType::Compute);
    m.add_component("B", model::ComponentType::Compute);
    auto p = [&](int a, int b) { return compute_posture(m, stub_assoc({{"A", a}, {"B", b}})); };
    EXPECT_EQ(compare(p(1, 1), p(3, 1)).verdict, Verdict::Worsened);
    EXPECT_EQ(compare(p(1, 1), p(3, 0)).verdict, Verdict::Mixed);
    EXPECT_EQ(compare(p(1, 1), p(1, 1)).verdict, Verdict::Unchanged);
    EXPECT_TRUE(compare(p(2, 2), p(2, 2)).rows.empty());
}

TEST(PostureCompare, HandlesAppearingAndDisappearingComponents) {
    model::SystemModel a("t", "");
    a.add_component("A", model::ComponentType::Compute);
    model::SystemModel b("t", "");
    b.add_component("B", model::ComponentType::Compute);
    SecurityPosture pa = compute_posture(a, stub_assoc({{"A", 3}}));
    SecurityPosture pb = compute_posture(b, stub_assoc({{"B", 5}}));
    PostureComparison cmp = compare(pa, pb);
    EXPECT_EQ(cmp.delta_total, 2); // -3 + 5
    EXPECT_EQ(cmp.verdict, Verdict::Mixed);
}

TEST(PostureCompare, VerdictNames) {
    EXPECT_EQ(verdict_name(Verdict::Improved), "improved");
    EXPECT_EQ(verdict_name(Verdict::Mixed), "mixed");
}

// -------------------------------------------------------------- attack paths

TEST(AttackPaths, RequireVectorsAlongThePath) {
    model::SystemModel m = synth::centrifuge_model();
    // Only the WS and BPCS carry vectors: the path WS->FW->BPCS is broken
    // at the firewall.
    auto paths = attack_paths(m, stub_assoc({{"Programming WS", 2}, {"BPCS platform", 3}}),
                              "BPCS platform");
    EXPECT_TRUE(paths.empty());

    // Give the firewall a vector and the path exists.
    paths = attack_paths(
        m,
        stub_assoc({{"Programming WS", 2}, {"Control firewall", 1}, {"BPCS platform", 3}}),
        "BPCS platform");
    ASSERT_EQ(paths.size(), 1u);
    EXPECT_EQ(paths[0].components.size(), 3u);
    EXPECT_EQ(paths[0].components.front(), "Programming WS");
    EXPECT_EQ(paths[0].components.back(), "BPCS platform");
    EXPECT_EQ(paths[0].total_vectors, 6u);
    EXPECT_EQ(paths[0].weakest_link, 1u);
    EXPECT_EQ(paths[0].hops(), 2u);
}

TEST(AttackPaths, MinVectorsPerHopRaisesTheBar) {
    model::SystemModel m = synth::centrifuge_model();
    auto assoc =
        stub_assoc({{"Programming WS", 2}, {"Control firewall", 1}, {"BPCS platform", 3}});
    AttackPathOptions opts;
    opts.min_vectors_per_hop = 2; // firewall (1 vector) no longer traversable
    EXPECT_TRUE(attack_paths(m, assoc, "BPCS platform", opts).empty());
    AttackPathOptions zero;
    zero.min_vectors_per_hop = 0;
    EXPECT_THROW(attack_paths(m, assoc, "BPCS platform", zero), cybok::ValidationError);
}

TEST(AttackPaths, TargetIsEntryPoint) {
    model::SystemModel m = synth::centrifuge_model();
    auto paths = attack_paths(m, stub_assoc({{"Programming WS", 2}}), "Programming WS");
    ASSERT_EQ(paths.size(), 1u);
    EXPECT_EQ(paths[0].hops(), 0u);
}

TEST(AttackPaths, UnknownTargetThrows) {
    model::SystemModel m = synth::centrifuge_model();
    EXPECT_THROW(attack_paths(m, search::AssociationMap{}, "Nonexistent"),
                 cybok::NotFoundError);
}

TEST(AttackPaths, TargetWithoutVectorsUnreachable) {
    model::SystemModel m = synth::centrifuge_model();
    auto paths = attack_paths(m, stub_assoc({{"Programming WS", 2}}), "BPCS platform");
    EXPECT_TRUE(paths.empty());
}

TEST(AttackPaths, TruncatedFlagDistinguishesCapFromExhaustion) {
    // Entry with two disjoint routes to the target: capping max_paths at
    // one must be reported as a truncation, a roomy cap as exhaustion.
    model::SystemModel m("twopath", "two disjoint entry->target routes");
    const auto a = m.add_component("Entry", model::ComponentType::Compute);
    const auto b = m.add_component("Upper", model::ComponentType::Network);
    const auto c = m.add_component("Lower", model::ComponentType::Network);
    const auto t = m.add_component("Target", model::ComponentType::Controller);
    m.component(a).external_facing = true;
    m.connect(a, b, "e-u");
    m.connect(a, c, "e-l");
    m.connect(b, t, "u-t");
    m.connect(c, t, "l-t");
    const auto assoc =
        stub_assoc({{"Entry", 2}, {"Upper", 1}, {"Lower", 1}, {"Target", 2}});

    AttackPathOptions capped;
    capped.max_paths = 1;
    const AttackPathsResult one = attack_paths(m, assoc, "Target", capped);
    EXPECT_EQ(one.size(), 1u);
    EXPECT_TRUE(one.truncated);

    const AttackPathsResult both = attack_paths(m, assoc, "Target");
    EXPECT_EQ(both.size(), 2u);
    EXPECT_FALSE(both.truncated);
    // Exposure is the product of per-hop permeabilities: positive, below 1.
    for (const AttackPath& p : both) {
        EXPECT_GT(p.exposure, 0.0);
        EXPECT_LT(p.exposure, 1.0);
    }

    AttackPathOptions hop_cut;
    hop_cut.max_hops = 1; // both routes need 2 hops; pruning is truncation
    const AttackPathsResult none = attack_paths(m, assoc, "Target", hop_cut);
    EXPECT_TRUE(none.empty());
    EXPECT_TRUE(none.truncated);
}

// ------------------------------------------------------------ fidelity sweep

TEST(FidelitySweep, ResultSpaceGrowsWithFidelity) {
    model::SystemModel m = synth::centrifuge_model();
    auto points = fidelity_sweep(m, demo_engine());
    ASSERT_EQ(points.size(), 4u); // conceptual..implementation

    // Attribute count is monotone in fidelity.
    for (std::size_t i = 1; i < points.size(); ++i)
        EXPECT_GE(points[i].attributes, points[i - 1].attributes);

    // The paper's lesson: vulnerabilities only appear at implementation
    // fidelity (platform references), and dominate the result space there.
    EXPECT_EQ(points[0].vulnerabilities, 0u);
    EXPECT_EQ(points[1].vulnerabilities, 0u);
    EXPECT_EQ(points[2].vulnerabilities, 0u);
    EXPECT_GT(points[3].vulnerabilities, 0u);
    EXPECT_GT(points[3].vulnerabilities, points[3].attack_patterns);

    // Specificity (platform-bound fraction) jumps at implementation level.
    EXPECT_DOUBLE_EQ(points[0].specificity, 0.0);
    EXPECT_GT(points[3].specificity, 0.5);
}

TEST(FidelitySweep, FunctionalLevelStillFindsPatterns) {
    model::SystemModel m = synth::centrifuge_model();
    auto points = fidelity_sweep(m, demo_engine());
    // Descriptors exist at functional fidelity; they match patterns and
    // weaknesses even before any product is chosen.
    EXPECT_GT(points[1].attack_patterns + points[1].weaknesses, 0u);
}

// ----------------------------------------------------------------- what-if

namespace {
/// what_if through a fresh inline Associator over the demo engine.
WhatIfResult what_if_inline(const model::SystemModel& before,
                            const search::AssociationMap& before_assoc,
                            const model::SystemModel& after) {
    search::AssocOptions options;
    options.threads = 1;
    search::Associator associator(demo_engine(), options);
    return what_if(before, before_assoc, after, associator);
}
} // namespace

TEST(WhatIf, HardenedArchitectureImproves) {
    model::SystemModel before = synth::centrifuge_model();
    search::AssociationMap before_assoc = oracle::associate(before, demo_engine());
    WhatIfResult result =
        what_if_inline(before, before_assoc, synth::centrifuge_model_hardened());

    EXPECT_FALSE(result.diff.empty());
    EXPECT_EQ(result.comparison.verdict, Verdict::Improved);
    EXPECT_LT(result.comparison.delta_total, 0);
    EXPECT_LT(result.after_posture.total_vectors(), before_assoc.total());
}

TEST(WhatIf, NoChangeIsUnchanged) {
    model::SystemModel before = synth::centrifuge_model();
    search::AssociationMap before_assoc = oracle::associate(before, demo_engine());
    WhatIfResult result = what_if_inline(before, before_assoc, synth::centrifuge_model());
    EXPECT_TRUE(result.diff.empty());
    EXPECT_EQ(result.comparison.verdict, Verdict::Unchanged);
}

TEST(WhatIf, MatchesFullRecomputation) {
    model::SystemModel before = synth::centrifuge_model();
    search::AssociationMap before_assoc = oracle::associate(before, demo_engine());
    model::SystemModel after = synth::centrifuge_model_hardened();
    WhatIfResult result = what_if_inline(before, before_assoc, after);
    search::AssociationMap full = oracle::associate(after, demo_engine());
    EXPECT_EQ(result.after_associations.total(), full.total());
}
