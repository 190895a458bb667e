#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "baseline/comparison.hpp"
#include "oracle/association_reference.hpp"
#include "synth/corpus_gen.hpp"
#include "synth/scada.hpp"

using namespace cybok;
using namespace cybok::baseline;

namespace {
search::AssociationMap stub(std::initializer_list<std::pair<const char*, int>> items) {
    search::AssociationMap map;
    for (const auto& [name, n] : items) {
        search::ComponentAssociation ca;
        ca.component = name;
        search::AttributeAssociation aa;
        aa.attribute_name = "role";
        aa.attribute_value = "stub";
        for (int i = 0; i < n; ++i) {
            search::Match m;
            m.cls = search::VectorClass::Weakness;
            m.id = "CWE-" + std::to_string(100 + i);
            aa.matches.push_back(std::move(m));
        }
        ca.attributes.push_back(std::move(aa));
        map.components.push_back(std::move(ca));
    }
    return map;
}
} // namespace

// ------------------------------------------------------------------ STRIDE

TEST(Stride, CategoryChartPerElementClass) {
    EXPECT_EQ(applicable_categories(ElementClass::ExternalEntity).size(), 2u);
    EXPECT_EQ(applicable_categories(ElementClass::Process).size(), 6u);
    EXPECT_EQ(applicable_categories(ElementClass::DataFlow).size(), 3u);
    EXPECT_EQ(applicable_categories(ElementClass::DataStore).size(), 4u);
}

TEST(Stride, ClassificationOfCentrifugeComponents) {
    model::SystemModel m = synth::centrifuge_model();
    auto classify = [&](const char* name) {
        return classify_component(m.component(*m.find_component(name)));
    };
    EXPECT_EQ(classify("Programming WS"), ElementClass::ExternalEntity);
    EXPECT_EQ(classify("Control firewall"), ElementClass::Process);
    EXPECT_EQ(classify("BPCS platform"), ElementClass::Process);
    EXPECT_EQ(classify("Temperature sensor"), ElementClass::DataStore);
    // The physical process is not representable by the baseline at all.
    EXPECT_FALSE(baseline_models(m.component(*m.find_component("Centrifuge"))));
}

TEST(Stride, PerElementFindingCounts) {
    model::SystemModel m = synth::centrifuge_model();
    std::vector<StrideThreat> threats = stride_per_element(m);
    // WS(ext,2) + FW(proc,6) + SIS(proc,6) + BPCS(proc,6) + Temp(store,4)
    // = 24 component findings; flows among modeled components:
    // WS<->FW, FW<->BPCS, BPCS<->SIS (3 connectors), Temp->BPCS, Temp->SIS
    // = 5 flows x 3 = 15. Flows touching the Centrifuge are dropped.
    std::size_t component_findings = 0;
    std::size_t flow_findings = 0;
    for (const StrideThreat& t : threats) {
        if (t.element_class == ElementClass::DataFlow) ++flow_findings;
        else ++component_findings;
        EXPECT_FALSE(t.description.empty());
    }
    EXPECT_EQ(component_findings, 24u);
    EXPECT_EQ(flow_findings, 15u);
}

TEST(Stride, PhysicalFlowsExcluded) {
    model::SystemModel m = synth::centrifuge_model();
    for (const StrideThreat& t : stride_per_element(m))
        EXPECT_EQ(t.element.find("Centrifuge"), std::string::npos) << t.element;
}

TEST(Stride, Names) {
    EXPECT_EQ(stride_name(Stride::ElevationOfPrivilege), "elevation-of-privilege");
    EXPECT_EQ(element_class_name(ElementClass::DataFlow), "data-flow");
}

// -------------------------------------------------------------- attack tree

TEST(AttackTree, BuildFromPaths) {
    model::SystemModel m = synth::centrifuge_model();
    auto assoc = stub({{"Programming WS", 2}, {"Control firewall", 1}, {"BPCS platform", 3}});
    AttackTree tree = build_attack_tree(m, assoc, "BPCS platform");
    // One path WS->FW->BPCS: 1 AND branch with 3 leaves.
    EXPECT_EQ(tree.leaf_count(), 3u);
    auto sets = tree.minimal_attack_sets();
    ASSERT_EQ(sets.size(), 1u);
    EXPECT_EQ(sets[0].size(), 3u);
    std::string rendered = tree.render();
    EXPECT_NE(rendered.find("GOAL: compromise BPCS platform"), std::string::npos);
    EXPECT_NE(rendered.find("AND:"), std::string::npos);
    EXPECT_NE(rendered.find("exploit Control firewall (1 candidate vectors)"),
              std::string::npos);
}

TEST(AttackTree, NoPathsYieldsBareGoal) {
    model::SystemModel m = synth::centrifuge_model();
    AttackTree tree = build_attack_tree(m, search::AssociationMap{}, "BPCS platform");
    EXPECT_EQ(tree.leaf_count(), 0u);
    EXPECT_TRUE(tree.minimal_attack_sets().empty());
}

TEST(AttackTree, OrOverMultiplePaths) {
    // Diamond: two disjoint 2-hop routes to the target.
    model::SystemModel m("diamond", "");
    auto a = m.add_component("Entry", model::ComponentType::Compute);
    m.component(a).external_facing = true;
    auto b1 = m.add_component("RouteA", model::ComponentType::Network);
    auto b2 = m.add_component("RouteB", model::ComponentType::Network);
    auto t = m.add_component("Target", model::ComponentType::Controller);
    m.connect(a, b1, "l1");
    m.connect(a, b2, "l2");
    m.connect(b1, t, "l3");
    m.connect(b2, t, "l4");
    auto assoc = stub({{"Entry", 1}, {"RouteA", 1}, {"RouteB", 1}, {"Target", 1}});
    AttackTree tree = build_attack_tree(m, assoc, "Target");
    auto sets = tree.minimal_attack_sets();
    EXPECT_EQ(sets.size(), 2u); // one per route
    EXPECT_EQ(tree.leaf_count(), 6u);
}

TEST(AttackTree, MinimalSetsRespectCap) {
    AttackTree tree("goal");
    std::size_t or_node = tree.add_node(AttackTreeNode::Kind::Or, "choices", 0);
    for (int i = 0; i < 20; ++i)
        tree.add_node(AttackTreeNode::Kind::Leaf, "leaf" + std::to_string(i), or_node);
    EXPECT_EQ(tree.minimal_attack_sets(5).size(), 5u);
    EXPECT_THROW(tree.add_node(AttackTreeNode::Kind::Leaf, "x", 999), cybok::ValidationError);
}

// --------------------------------------------------------------- comparison

TEST(MethodologyComparison, BaselineHasZeroConsequenceLinks) {
    kb::Corpus corpus = synth::generate_corpus(synth::CorpusProfile::scaled(0.1, 99));
    model::SystemModel m = synth::centrifuge_model();
    search::SearchEngine engine(corpus);
    search::AssociationMap assoc = oracle::associate(m, engine);
    safety::HazardModel hazards = synth::centrifuge_hazards();

    MethodologyComparison cmp = compare_methodologies(m, assoc, hazards, "BPCS platform");

    // The baseline produces plenty of findings...
    EXPECT_GT(cmp.stride_findings, 30u);
    EXPECT_GT(cmp.attack_tree_leaves, 0u);
    // ...but cannot express a single physical consequence, and cannot even
    // model the centrifuge itself.
    EXPECT_EQ(cmp.baseline_consequence_links, 0u);
    EXPECT_EQ(cmp.unmodeled_components, 1u);

    // The CPS pipeline reaches every modeled loss.
    EXPECT_GT(cmp.consequence_traces, 0u);
    EXPECT_GT(cmp.supported_scenarios, 0u);
    EXPECT_EQ(cmp.distinct_losses_reached, 3u); // L-1, L-2, L-3
}
