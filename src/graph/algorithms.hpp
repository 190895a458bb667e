// Graph algorithms used by the security-analysis layer: traversal,
// reachability (attack-surface exposure), shortest paths (attack paths),
// centrality (component criticality), and structural queries.

#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "graph/property_graph.hpp"

namespace cybok::graph {

/// Direction in which edges are followed during traversal.
enum class Direction { Forward, Backward, Undirected };

/// Nodes reachable from any node in `starts` (inclusive of the starts),
/// BFS order.
[[nodiscard]] std::vector<NodeId> reachable_from(const PropertyGraph& g,
                                                 const std::vector<NodeId>& starts,
                                                 Direction dir = Direction::Forward);

/// Unweighted shortest path from `from` to `to` (inclusive endpoints), or
/// empty if unreachable.
[[nodiscard]] std::vector<NodeId> shortest_path(const PropertyGraph& g, NodeId from, NodeId to,
                                                Direction dir = Direction::Forward);

/// Unweighted shortest-path distance from `from` to every node
/// (UINT32_MAX where unreachable). Indexed by raw node id value.
[[nodiscard]] std::vector<std::uint32_t> bfs_distances(const PropertyGraph& g, NodeId from,
                                                       Direction dir = Direction::Forward);

/// All simple paths from `from` to `to` of length <= max_hops (edge count),
/// capped at `max_paths` results. DFS enumeration; deterministic order.
/// `truncated` is true when the enumeration gave up on a bound (the result
/// cap was reached, or some branch was cut off by max_hops) rather than
/// because the path space was exhausted. Lets callers distinguish "no more
/// paths" from "gave up".
struct SimplePaths {
    std::vector<std::vector<NodeId>> paths;
    bool truncated = false;
};
[[nodiscard]] SimplePaths all_simple_paths_bounded(const PropertyGraph& g, NodeId from,
                                                   NodeId to, std::size_t max_hops,
                                                   std::size_t max_paths = 4096);

/// Brandes' betweenness centrality over the directed, unweighted graph.
/// Scores are unnormalized pair counts.
[[nodiscard]] std::map<NodeId, double> betweenness_centrality(const PropertyGraph& g);

/// Nodes whose removal disconnects the undirected view (articulation points).
[[nodiscard]] std::vector<NodeId> articulation_points(const PropertyGraph& g);

/// A minimum-cardinality set of *intermediate* nodes whose removal severs
/// every directed path from `sources` to `targets` (unit node capacities
/// via node splitting + Edmonds–Karp max-flow). Source and target nodes
/// are never cut candidates, so a direct source->target edge represents an
/// unseverable flow and is ignored. Returns the cut nodes sorted by id;
/// empty when nothing needs cutting (no source reaches a target through an
/// intermediate). Deterministic.
[[nodiscard]] std::vector<NodeId> min_vertex_cut(const PropertyGraph& g,
                                                 const std::vector<NodeId>& sources,
                                                 const std::vector<NodeId>& targets);

/// Induced subgraph on `keep` (copies labels/properties; returns the new
/// graph and the old->new node mapping).
struct Subgraph {
    PropertyGraph graph;
    std::map<NodeId, NodeId> node_map;
};
[[nodiscard]] Subgraph induced_subgraph(const PropertyGraph& g, const std::vector<NodeId>& keep);

} // namespace cybok::graph
