#include <gtest/gtest.h>

#include "dashboard/vector_graph.hpp"
#include "graph/graphml.hpp"
#include "oracle/association_reference.hpp"
#include "synth/corpus_gen.hpp"
#include "synth/scada.hpp"

using namespace cybok;
using namespace cybok::dashboard;

namespace {
struct Fixture {
    kb::Corpus corpus = synth::generate_corpus(synth::CorpusProfile::scaled(0.1, 99));
    model::SystemModel m = synth::centrifuge_model();
    search::SearchEngine engine{corpus};
    search::AssociationMap assoc = oracle::associate(m, engine);
};
Fixture& fixture() {
    static Fixture f;
    return f;
}
} // namespace

TEST(VectorGraph, ContainsAllComponentNodes) {
    Fixture& f = fixture();
    graph::PropertyGraph g = build_vector_graph(f.m, f.assoc, f.corpus);
    VectorGraphStats stats = vector_graph_stats(g);
    EXPECT_EQ(stats.components, 6u);
    EXPECT_GT(stats.patterns, 0u);
    EXPECT_GT(stats.weaknesses, 0u);
    EXPECT_GT(stats.vulnerability_groups, 0u);
    EXPECT_GT(stats.association_edges, 0u);
}

TEST(VectorGraph, GroupingBoundsVulnerabilityNodes) {
    Fixture& f = fixture();
    graph::PropertyGraph grouped = build_vector_graph(f.m, f.assoc, f.corpus);
    // Grouped: far fewer vulnerability nodes than CVE matches.
    std::size_t cves = f.assoc.total(search::VectorClass::Vulnerability);
    EXPECT_LT(vector_graph_stats(grouped).vulnerability_groups, cves / 2);

    VectorGraphOptions ungrouped;
    ungrouped.group_vulnerabilities = false;
    graph::PropertyGraph raw = build_vector_graph(f.m, f.assoc, f.corpus, ungrouped);
    EXPECT_GT(raw.node_count(), grouped.node_count());
}

TEST(VectorGraph, SharedWeaknessHasFanoutTwo) {
    // CWE-78 is associated to both BPCS and SIS (same descriptor class),
    // so its node must record fanout >= 2 — the paper's shared finding.
    Fixture& f = fixture();
    graph::PropertyGraph g = build_vector_graph(f.m, f.assoc, f.corpus);
    bool found = false;
    for (graph::NodeId n : g.nodes()) {
        if (g.node(n).label.rfind("CWE-78 ", 0) != 0) continue;
        found = true;
        const graph::Property* fanout = g.get_property(n, "fanout");
        ASSERT_NE(fanout, nullptr);
        EXPECT_GE(std::get<std::int64_t>(*fanout), 2);
    }
    EXPECT_TRUE(found);
    EXPECT_GT(vector_graph_stats(g).shared_vectors, 0u);
}

TEST(VectorGraph, MinComponentDegreeFiltersPrivateVectors) {
    Fixture& f = fixture();
    VectorGraphOptions opts;
    opts.min_component_degree = 2;
    graph::PropertyGraph shared_only = build_vector_graph(f.m, f.assoc, f.corpus, opts);
    graph::PropertyGraph all = build_vector_graph(f.m, f.assoc, f.corpus);
    EXPECT_LT(shared_only.node_count(), all.node_count());
    // Every surviving vector node has fanout >= 2.
    for (graph::NodeId n : shared_only.nodes()) {
        const graph::Property* fanout = shared_only.get_property(n, "fanout");
        if (fanout != nullptr) {
            EXPECT_GE(std::get<std::int64_t>(*fanout), 2);
        }
    }
}

TEST(VectorGraph, CrossReferenceEdgesPresent) {
    Fixture& f = fixture();
    graph::PropertyGraph g = build_vector_graph(f.m, f.assoc, f.corpus);
    VectorGraphStats stats = vector_graph_stats(g);
    EXPECT_GT(stats.cross_reference_edges, 0u);

    VectorGraphOptions no_xref;
    no_xref.include_cross_references = false;
    graph::PropertyGraph plain = build_vector_graph(f.m, f.assoc, f.corpus, no_xref);
    EXPECT_EQ(vector_graph_stats(plain).cross_reference_edges, 0u);
}

TEST(VectorGraph, ArchitectureEdgesToggle) {
    Fixture& f = fixture();
    VectorGraphOptions no_arch;
    no_arch.include_architecture = false;
    graph::PropertyGraph without = build_vector_graph(f.m, f.assoc, f.corpus, no_arch);
    graph::PropertyGraph with = build_vector_graph(f.m, f.assoc, f.corpus);
    EXPECT_GT(with.edge_count(), without.edge_count());
}

TEST(VectorGraph, SerializesToGraphml) {
    Fixture& f = fixture();
    graph::PropertyGraph g = build_vector_graph(f.m, f.assoc, f.corpus);
    std::string xml = graph::to_graphml(g, "vector-space");
    graph::PropertyGraph back = graph::from_graphml(xml);
    EXPECT_EQ(back.node_count(), g.node_count());
    EXPECT_EQ(back.edge_count(), g.edge_count());
}

TEST(VectorGraph, EmptyAssociationYieldsArchitectureOnly) {
    Fixture& f = fixture();
    graph::PropertyGraph g = build_vector_graph(f.m, search::AssociationMap{}, f.corpus);
    VectorGraphStats stats = vector_graph_stats(g);
    EXPECT_EQ(stats.components, 6u);
    EXPECT_EQ(stats.patterns + stats.weaknesses + stats.vulnerability_groups, 0u);
    EXPECT_EQ(stats.association_edges, 0u);
}
