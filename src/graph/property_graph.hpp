// A generic directed property graph — the "general architectural model" the
// paper's capability (1) exports system models into. Nodes and edges carry
// string-keyed typed properties; the graph is the lingua franca between the
// modeling layer, the GraphML/DOT serializers, and the analysis algorithms.

#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "util/error.hpp"

namespace cybok::graph {

/// Stable handle to a node (its insertion index).
struct NodeId {
    std::uint32_t value = UINT32_MAX;
    [[nodiscard]] bool valid() const noexcept { return value != UINT32_MAX; }
    friend auto operator<=>(const NodeId&, const NodeId&) = default;
};

/// Stable handle to an edge.
struct EdgeId {
    std::uint32_t value = UINT32_MAX;
    [[nodiscard]] bool valid() const noexcept { return value != UINT32_MAX; }
    friend auto operator<=>(const EdgeId&, const EdgeId&) = default;
};

/// Property values: the subset of types GraphML attributes support.
using Property = std::variant<std::string, double, std::int64_t, bool>;

/// Ordered so that serialization is deterministic.
using PropertyMap = std::map<std::string, Property, std::less<>>;

/// Render a property as the string GraphML/DOT would emit.
[[nodiscard]] std::string property_to_string(const Property& p);

/// An append-only directed multigraph with properties: O(1) amortized
/// insertion, and handles are dense insertion indices.
class PropertyGraph {
public:
    struct Node {
        std::string label;
        PropertyMap properties;
    };
    struct Edge {
        NodeId source;
        NodeId target;
        std::string label;
        PropertyMap properties;
    };

    // -- construction ------------------------------------------------------

    NodeId add_node(std::string label);
    EdgeId add_edge(NodeId source, NodeId target, std::string label = "");

    // -- element access ----------------------------------------------------

    [[nodiscard]] bool contains(NodeId id) const noexcept;
    [[nodiscard]] bool contains(EdgeId id) const noexcept;

    [[nodiscard]] const Node& node(NodeId id) const;
    [[nodiscard]] Node& node(NodeId id);
    [[nodiscard]] const Edge& edge(EdgeId id) const;
    [[nodiscard]] Edge& edge(EdgeId id);

    /// First node whose label equals `label`, if any.
    [[nodiscard]] std::optional<NodeId> find_node(std::string_view label) const noexcept;

    // -- properties --------------------------------------------------------

    void set_property(NodeId id, std::string_view key, Property value);
    void set_property(EdgeId id, std::string_view key, Property value);
    [[nodiscard]] const Property* get_property(NodeId id, std::string_view key) const noexcept;
    [[nodiscard]] const Property* get_property(EdgeId id, std::string_view key) const noexcept;

    // -- topology ----------------------------------------------------------

    [[nodiscard]] std::size_t node_count() const noexcept { return nodes_.size(); }
    [[nodiscard]] std::size_t edge_count() const noexcept { return edges_.size(); }

    /// Node / edge ids in insertion order.
    [[nodiscard]] std::vector<NodeId> nodes() const;
    [[nodiscard]] std::vector<EdgeId> edges() const;

    [[nodiscard]] const std::vector<EdgeId>& out_edges(NodeId id) const;
    [[nodiscard]] const std::vector<EdgeId>& in_edges(NodeId id) const;
    [[nodiscard]] std::vector<NodeId> successors(NodeId id) const;
    [[nodiscard]] std::vector<NodeId> predecessors(NodeId id) const;
    /// Successors ∪ predecessors (deduplicated) — the undirected view.
    [[nodiscard]] std::vector<NodeId> neighbors(NodeId id) const;

    [[nodiscard]] std::size_t out_degree(NodeId id) const { return out_edges(id).size(); }
    [[nodiscard]] std::size_t in_degree(NodeId id) const { return in_edges(id).size(); }

    /// Any edge source -> target, if one exists.
    [[nodiscard]] std::optional<EdgeId> find_edge(NodeId source, NodeId target) const;

private:
    void check(NodeId id) const;
    void check(EdgeId id) const;

    struct NodeSlot {
        Node data;
        std::vector<EdgeId> out;
        std::vector<EdgeId> in;
    };

    std::vector<NodeSlot> nodes_;
    std::vector<Edge> edges_;
};

} // namespace cybok::graph
