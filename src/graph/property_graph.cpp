#include "graph/property_graph.hpp"

#include <algorithm>

namespace cybok::graph {

std::string property_to_string(const Property& p) {
    if (const auto* s = std::get_if<std::string>(&p)) return *s;
    if (const auto* d = std::get_if<double>(&p)) {
        std::string out = std::to_string(*d);
        // Trim trailing zeros for readability but keep at least one decimal.
        while (out.size() > 1 && out.back() == '0' && out[out.size() - 2] != '.') out.pop_back();
        return out;
    }
    if (const auto* i = std::get_if<std::int64_t>(&p)) return std::to_string(*i);
    return std::get<bool>(p) ? "true" : "false";
}

void PropertyGraph::check(NodeId id) const {
    if (!contains(id))
        throw NotFoundError("graph: node id " + std::to_string(id.value) + " is not in the graph");
}

void PropertyGraph::check(EdgeId id) const {
    if (!contains(id))
        throw NotFoundError("graph: edge id " + std::to_string(id.value) + " is not in the graph");
}

NodeId PropertyGraph::add_node(std::string label) {
    NodeSlot slot;
    slot.data.label = std::move(label);
    nodes_.push_back(std::move(slot));
    return NodeId{static_cast<std::uint32_t>(nodes_.size() - 1)};
}

EdgeId PropertyGraph::add_edge(NodeId source, NodeId target, std::string label) {
    check(source);
    check(target);
    Edge edge;
    edge.source = source;
    edge.target = target;
    edge.label = std::move(label);
    edges_.push_back(std::move(edge));
    EdgeId id{static_cast<std::uint32_t>(edges_.size() - 1)};
    nodes_[source.value].out.push_back(id);
    nodes_[target.value].in.push_back(id);
    return id;
}

bool PropertyGraph::contains(NodeId id) const noexcept { return id.value < nodes_.size(); }

bool PropertyGraph::contains(EdgeId id) const noexcept { return id.value < edges_.size(); }

const PropertyGraph::Node& PropertyGraph::node(NodeId id) const {
    check(id);
    return nodes_[id.value].data;
}

PropertyGraph::Node& PropertyGraph::node(NodeId id) {
    check(id);
    return nodes_[id.value].data;
}

const PropertyGraph::Edge& PropertyGraph::edge(EdgeId id) const {
    check(id);
    return edges_[id.value];
}

PropertyGraph::Edge& PropertyGraph::edge(EdgeId id) {
    check(id);
    return edges_[id.value];
}

std::optional<NodeId> PropertyGraph::find_node(std::string_view label) const noexcept {
    for (std::uint32_t i = 0; i < nodes_.size(); ++i)
        if (nodes_[i].data.label == label) return NodeId{i};
    return std::nullopt;
}

void PropertyGraph::set_property(NodeId id, std::string_view key, Property value) {
    check(id);
    nodes_[id.value].data.properties.insert_or_assign(std::string(key), std::move(value));
}

void PropertyGraph::set_property(EdgeId id, std::string_view key, Property value) {
    check(id);
    edges_[id.value].properties.insert_or_assign(std::string(key), std::move(value));
}

const Property* PropertyGraph::get_property(NodeId id, std::string_view key) const noexcept {
    if (!contains(id)) return nullptr;
    const PropertyMap& m = nodes_[id.value].data.properties;
    auto it = m.find(key);
    return it == m.end() ? nullptr : &it->second;
}

const Property* PropertyGraph::get_property(EdgeId id, std::string_view key) const noexcept {
    if (!contains(id)) return nullptr;
    const PropertyMap& m = edges_[id.value].properties;
    auto it = m.find(key);
    return it == m.end() ? nullptr : &it->second;
}

std::vector<NodeId> PropertyGraph::nodes() const {
    std::vector<NodeId> out;
    out.reserve(nodes_.size());
    for (std::uint32_t i = 0; i < nodes_.size(); ++i) out.push_back(NodeId{i});
    return out;
}

std::vector<EdgeId> PropertyGraph::edges() const {
    std::vector<EdgeId> out;
    out.reserve(edges_.size());
    for (std::uint32_t i = 0; i < edges_.size(); ++i) out.push_back(EdgeId{i});
    return out;
}

const std::vector<EdgeId>& PropertyGraph::out_edges(NodeId id) const {
    check(id);
    return nodes_[id.value].out;
}

const std::vector<EdgeId>& PropertyGraph::in_edges(NodeId id) const {
    check(id);
    return nodes_[id.value].in;
}

std::vector<NodeId> PropertyGraph::successors(NodeId id) const {
    std::vector<NodeId> out;
    for (EdgeId e : out_edges(id)) out.push_back(edges_[e.value].target);
    return out;
}

std::vector<NodeId> PropertyGraph::predecessors(NodeId id) const {
    std::vector<NodeId> out;
    for (EdgeId e : in_edges(id)) out.push_back(edges_[e.value].source);
    return out;
}

std::vector<NodeId> PropertyGraph::neighbors(NodeId id) const {
    std::vector<NodeId> out = successors(id);
    for (NodeId p : predecessors(id)) out.push_back(p);
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
}

std::optional<EdgeId> PropertyGraph::find_edge(NodeId source, NodeId target) const {
    for (EdgeId e : out_edges(source))
        if (edges_[e.value].target == target) return e;
    return std::nullopt;
}

} // namespace cybok::graph
