#include <gtest/gtest.h>

#include "graph/algorithms.hpp"
#include "graph/property_graph.hpp"

using namespace cybok::graph;

namespace {

/// a -> b -> c -> d with a side edge a -> c.
PropertyGraph diamondish() {
    PropertyGraph g;
    NodeId a = g.add_node("a");
    NodeId b = g.add_node("b");
    NodeId c = g.add_node("c");
    NodeId d = g.add_node("d");
    g.add_edge(a, b);
    g.add_edge(b, c);
    g.add_edge(c, d);
    g.add_edge(a, c);
    return g;
}

} // namespace

TEST(PropertyGraph, AddAndQueryNodes) {
    PropertyGraph g;
    NodeId a = g.add_node("alpha");
    NodeId b = g.add_node("beta");
    EXPECT_EQ(g.node_count(), 2u);
    EXPECT_EQ(g.node(a).label, "alpha");
    EXPECT_EQ(g.node(b).label, "beta");
    EXPECT_TRUE(g.contains(a));
    EXPECT_EQ(g.find_node("beta"), b);
    EXPECT_FALSE(g.find_node("gamma").has_value());
}

TEST(PropertyGraph, EdgesAndAdjacency) {
    PropertyGraph g;
    NodeId a = g.add_node("a");
    NodeId b = g.add_node("b");
    EdgeId e = g.add_edge(a, b, "link");
    EXPECT_EQ(g.edge_count(), 1u);
    EXPECT_EQ(g.edge(e).label, "link");
    EXPECT_EQ(g.out_degree(a), 1u);
    EXPECT_EQ(g.in_degree(b), 1u);
    EXPECT_EQ(g.successors(a), std::vector<NodeId>{b});
    EXPECT_EQ(g.predecessors(b), std::vector<NodeId>{a});
    EXPECT_TRUE(g.find_edge(a, b).has_value());
    EXPECT_FALSE(g.find_edge(b, a).has_value());
}

TEST(PropertyGraph, MultigraphAllowsParallelEdges) {
    PropertyGraph g;
    NodeId a = g.add_node("a");
    NodeId b = g.add_node("b");
    g.add_edge(a, b, "one");
    g.add_edge(a, b, "two");
    EXPECT_EQ(g.edge_count(), 2u);
    EXPECT_EQ(g.out_degree(a), 2u);
}

TEST(PropertyGraph, Properties) {
    PropertyGraph g;
    NodeId a = g.add_node("a");
    g.set_property(a, "type", std::string("controller"));
    g.set_property(a, "count", std::int64_t{42});
    g.set_property(a, "score", 2.5);
    g.set_property(a, "flag", true);
    ASSERT_NE(g.get_property(a, "type"), nullptr);
    EXPECT_EQ(std::get<std::string>(*g.get_property(a, "type")), "controller");
    EXPECT_EQ(std::get<std::int64_t>(*g.get_property(a, "count")), 42);
    EXPECT_EQ(g.get_property(a, "missing"), nullptr);
    // Overwrite.
    g.set_property(a, "count", std::int64_t{7});
    EXPECT_EQ(std::get<std::int64_t>(*g.get_property(a, "count")), 7);
}

TEST(PropertyGraph, PropertyToString) {
    EXPECT_EQ(property_to_string(Property(std::string("x"))), "x");
    EXPECT_EQ(property_to_string(Property(std::int64_t{5})), "5");
    EXPECT_EQ(property_to_string(Property(true)), "true");
    EXPECT_EQ(property_to_string(Property(false)), "false");
}

TEST(PropertyGraph, NeighborsDeduplicates) {
    PropertyGraph g;
    NodeId a = g.add_node("a");
    NodeId b = g.add_node("b");
    g.add_edge(a, b);
    g.add_edge(b, a);
    EXPECT_EQ(g.neighbors(a), std::vector<NodeId>{b});
}

// ------------------------------------------------------------ algorithms

TEST(GraphAlgorithms, BfsOrderFromSource) {
    PropertyGraph g = diamondish();
    NodeId a = *g.find_node("a");
    std::vector<NodeId> order = reachable_from(g, {a});
    EXPECT_EQ(order.size(), 4u);
    EXPECT_EQ(order.front(), a);
}

TEST(GraphAlgorithms, BfsBackward) {
    PropertyGraph g = diamondish();
    NodeId d = *g.find_node("d");
    EXPECT_EQ(reachable_from(g, {d}, Direction::Forward).size(), 1u);
    EXPECT_EQ(reachable_from(g, {d}, Direction::Backward).size(), 4u);
}

TEST(GraphAlgorithms, ReachableFromMultipleSources) {
    PropertyGraph g;
    NodeId a = g.add_node("a");
    NodeId b = g.add_node("b");
    NodeId c = g.add_node("c");
    g.add_edge(a, c);
    std::vector<NodeId> r = reachable_from(g, {a, b});
    EXPECT_EQ(r.size(), 3u);
}

TEST(GraphAlgorithms, ShortestPathPrefersFewerHops) {
    PropertyGraph g = diamondish();
    NodeId a = *g.find_node("a");
    NodeId d = *g.find_node("d");
    std::vector<NodeId> path = shortest_path(g, a, d);
    ASSERT_EQ(path.size(), 3u); // a -> c -> d
    EXPECT_EQ(g.node(path[1]).label, "c");
}

TEST(GraphAlgorithms, ShortestPathUnreachableIsEmpty) {
    PropertyGraph g;
    NodeId a = g.add_node("a");
    NodeId b = g.add_node("b");
    EXPECT_TRUE(shortest_path(g, a, b).empty());
    EXPECT_EQ(shortest_path(g, a, a).size(), 1u);
}

TEST(GraphAlgorithms, BfsDistances) {
    PropertyGraph g = diamondish();
    NodeId a = *g.find_node("a");
    std::vector<std::uint32_t> dist = bfs_distances(g, a);
    EXPECT_EQ(dist[a.value], 0u);
    EXPECT_EQ(dist[g.find_node("b")->value], 1u);
    EXPECT_EQ(dist[g.find_node("c")->value], 1u);
    EXPECT_EQ(dist[g.find_node("d")->value], 2u);
}

TEST(GraphAlgorithms, AllSimplePathsEnumeratesBoth) {
    PropertyGraph g = diamondish();
    NodeId a = *g.find_node("a");
    NodeId d = *g.find_node("d");
    auto paths = all_simple_paths_bounded(g, a, d, 5).paths;
    EXPECT_EQ(paths.size(), 2u); // a-b-c-d and a-c-d
}

TEST(GraphAlgorithms, AllSimplePathsRespectsHopLimit) {
    PropertyGraph g = diamondish();
    NodeId a = *g.find_node("a");
    NodeId d = *g.find_node("d");
    auto paths = all_simple_paths_bounded(g, a, d, 2).paths;
    ASSERT_EQ(paths.size(), 1u);
    EXPECT_EQ(paths[0].size(), 3u);
}

TEST(GraphAlgorithms, BetweennessCentralityOnPath) {
    // a -> b -> c: b lies on the single a..c shortest path.
    PropertyGraph g;
    NodeId a = g.add_node("a");
    NodeId b = g.add_node("b");
    NodeId c = g.add_node("c");
    g.add_edge(a, b);
    g.add_edge(b, c);
    auto cb = betweenness_centrality(g);
    EXPECT_DOUBLE_EQ(cb[b], 1.0);
    EXPECT_DOUBLE_EQ(cb[a], 0.0);
    EXPECT_DOUBLE_EQ(cb[c], 0.0);
}

TEST(GraphAlgorithms, BetweennessSplitsOverEqualPaths) {
    // Two parallel 2-hop routes a->{b,c}->d: each midpoint carries half.
    PropertyGraph g;
    NodeId a = g.add_node("a");
    NodeId b = g.add_node("b");
    NodeId c = g.add_node("c");
    NodeId d = g.add_node("d");
    g.add_edge(a, b);
    g.add_edge(a, c);
    g.add_edge(b, d);
    g.add_edge(c, d);
    auto cb = betweenness_centrality(g);
    EXPECT_DOUBLE_EQ(cb[b], 0.5);
    EXPECT_DOUBLE_EQ(cb[c], 0.5);
}

TEST(GraphAlgorithms, ArticulationPoints) {
    // a - b - c (undirected view): b is the cut vertex.
    PropertyGraph g;
    NodeId a = g.add_node("a");
    NodeId b = g.add_node("b");
    NodeId c = g.add_node("c");
    g.add_edge(a, b);
    g.add_edge(b, c);
    auto points = articulation_points(g);
    ASSERT_EQ(points.size(), 1u);
    EXPECT_EQ(points[0], b);
}

TEST(GraphAlgorithms, ArticulationPointsNoneInCycle) {
    PropertyGraph g;
    NodeId a = g.add_node("a");
    NodeId b = g.add_node("b");
    NodeId c = g.add_node("c");
    g.add_edge(a, b);
    g.add_edge(b, c);
    g.add_edge(c, a);
    EXPECT_TRUE(articulation_points(g).empty());
}

TEST(GraphAlgorithms, InducedSubgraph) {
    PropertyGraph g = diamondish();
    g.set_property(*g.find_node("a"), "k", std::string("v"));
    std::vector<NodeId> keep{*g.find_node("a"), *g.find_node("c"), *g.find_node("d")};
    Subgraph sub = induced_subgraph(g, keep);
    EXPECT_EQ(sub.graph.node_count(), 3u);
    EXPECT_EQ(sub.graph.edge_count(), 2u); // a->c, c->d survive
    NodeId na = sub.node_map.at(*g.find_node("a"));
    ASSERT_NE(sub.graph.get_property(na, "k"), nullptr);
}

TEST(GraphAlgorithms, SimplePathsBoundedReportsTruncation) {
    PropertyGraph g = diamondish();
    NodeId a = *g.find_node("a");
    NodeId d = *g.find_node("d");
    // Two paths exist; a cap of one means the enumeration gave up early.
    SimplePaths capped = all_simple_paths_bounded(g, a, d, 5, 1);
    EXPECT_EQ(capped.paths.size(), 1u);
    EXPECT_TRUE(capped.truncated);
    // A hop bound that prunes a branch is also a truncation, not exhaustion.
    SimplePaths hop_cut = all_simple_paths_bounded(g, a, d, 2, 4096);
    EXPECT_EQ(hop_cut.paths.size(), 1u);
    EXPECT_TRUE(hop_cut.truncated);
    // Room for everything: the path space was exhausted.
    SimplePaths all = all_simple_paths_bounded(g, a, d, 5, 4096);
    EXPECT_EQ(all.paths.size(), 2u);
    EXPECT_FALSE(all.truncated);
}

TEST(GraphAlgorithms, MinVertexCutSingleWaist) {
    // s -> {p, q} -> m -> t : every path squeezes through m.
    PropertyGraph g;
    NodeId s = g.add_node("s");
    NodeId p = g.add_node("p");
    NodeId q = g.add_node("q");
    NodeId m = g.add_node("m");
    NodeId t = g.add_node("t");
    g.add_edge(s, p);
    g.add_edge(s, q);
    g.add_edge(p, m);
    g.add_edge(q, m);
    g.add_edge(m, t);
    EXPECT_EQ(min_vertex_cut(g, {s}, {t}), std::vector<NodeId>{m});
}

TEST(GraphAlgorithms, MinVertexCutDisjointPathsNeedTwoNodes) {
    // Two fully node-disjoint s->t routes: the cut must take one from each.
    PropertyGraph g;
    NodeId s = g.add_node("s");
    NodeId a = g.add_node("a");
    NodeId b = g.add_node("b");
    NodeId t = g.add_node("t");
    g.add_edge(s, a);
    g.add_edge(a, t);
    g.add_edge(s, b);
    g.add_edge(b, t);
    std::vector<NodeId> cut = min_vertex_cut(g, {s}, {t});
    EXPECT_EQ(cut.size(), 2u);
    EXPECT_TRUE(std::is_sorted(cut.begin(), cut.end()));
}

TEST(GraphAlgorithms, MinVertexCutIgnoresDirectEdge) {
    // The direct s->t edge cannot be severed by removing an intermediate;
    // only the path through m is cuttable.
    PropertyGraph g;
    NodeId s = g.add_node("s");
    NodeId m = g.add_node("m");
    NodeId t = g.add_node("t");
    g.add_edge(s, t);
    g.add_edge(s, m);
    g.add_edge(m, t);
    EXPECT_EQ(min_vertex_cut(g, {s}, {t}), std::vector<NodeId>{m});
}

TEST(GraphAlgorithms, MinVertexCutEmptyWhenUnreachable) {
    PropertyGraph g;
    NodeId s = g.add_node("s");
    NodeId m = g.add_node("m");
    NodeId t = g.add_node("t");
    g.add_edge(t, m); // edges point away from t; s reaches nothing
    g.add_edge(m, s);
    EXPECT_TRUE(min_vertex_cut(g, {s}, {t}).empty());
    EXPECT_TRUE(min_vertex_cut(g, {}, {t}).empty());
    EXPECT_TRUE(min_vertex_cut(g, {s}, {}).empty());
}

TEST(GraphAlgorithms, MinVertexCutMultiSourceMultiTarget) {
    // {s1, s2} both funnel through m to reach {t1, t2}.
    PropertyGraph g;
    NodeId s1 = g.add_node("s1");
    NodeId s2 = g.add_node("s2");
    NodeId m = g.add_node("m");
    NodeId t1 = g.add_node("t1");
    NodeId t2 = g.add_node("t2");
    g.add_edge(s1, m);
    g.add_edge(s2, m);
    g.add_edge(m, t1);
    g.add_edge(m, t2);
    EXPECT_EQ(min_vertex_cut(g, {s1, s2}, {t1, t2}), std::vector<NodeId>{m});
}
