#include "graph/algorithms.hpp"

#include <algorithm>
#include <deque>
#include <functional>
#include <set>
#include <stack>

namespace cybok::graph {

namespace {

std::vector<NodeId> step(const PropertyGraph& g, NodeId n, Direction dir) {
    switch (dir) {
        case Direction::Forward: return g.successors(n);
        case Direction::Backward: return g.predecessors(n);
        case Direction::Undirected: return g.neighbors(n);
    }
    return {};
}

} // namespace

std::vector<NodeId> reachable_from(const PropertyGraph& g, const std::vector<NodeId>& starts,
                                   Direction dir) {
    std::vector<bool> seen;
    std::vector<NodeId> order;
    std::deque<NodeId> frontier;
    auto mark = [&](NodeId n) {
        if (seen.size() <= n.value) seen.resize(n.value + 1, false);
        if (seen[n.value]) return false;
        seen[n.value] = true;
        return true;
    };
    for (NodeId s : starts) {
        if (!g.contains(s)) continue;
        if (mark(s)) {
            frontier.push_back(s);
            order.push_back(s);
        }
    }
    while (!frontier.empty()) {
        NodeId n = frontier.front();
        frontier.pop_front();
        for (NodeId m : step(g, n, dir)) {
            if (mark(m)) {
                frontier.push_back(m);
                order.push_back(m);
            }
        }
    }
    return order;
}

std::vector<std::uint32_t> bfs_distances(const PropertyGraph& g, NodeId from, Direction dir) {
    std::vector<std::uint32_t> dist;
    auto d = [&](NodeId n) -> std::uint32_t& {
        if (dist.size() <= n.value) dist.resize(n.value + 1, UINT32_MAX);
        return dist[n.value];
    };
    if (!g.contains(from)) return dist;
    d(from) = 0;
    std::deque<NodeId> frontier{from};
    while (!frontier.empty()) {
        NodeId n = frontier.front();
        frontier.pop_front();
        std::uint32_t dn = d(n);
        for (NodeId m : step(g, n, dir)) {
            if (d(m) == UINT32_MAX) {
                d(m) = dn + 1;
                frontier.push_back(m);
            }
        }
    }
    return dist;
}

std::vector<NodeId> shortest_path(const PropertyGraph& g, NodeId from, NodeId to, Direction dir) {
    if (!g.contains(from) || !g.contains(to)) return {};
    std::map<NodeId, NodeId> parent;
    std::deque<NodeId> frontier{from};
    parent[from] = from;
    while (!frontier.empty()) {
        NodeId n = frontier.front();
        frontier.pop_front();
        if (n == to) break;
        for (NodeId m : step(g, n, dir)) {
            if (!parent.contains(m)) {
                parent[m] = n;
                frontier.push_back(m);
            }
        }
    }
    if (!parent.contains(to)) return {};
    std::vector<NodeId> path;
    for (NodeId n = to; ; n = parent[n]) {
        path.push_back(n);
        if (n == from) break;
    }
    std::reverse(path.begin(), path.end());
    return path;
}

SimplePaths all_simple_paths_bounded(const PropertyGraph& g, NodeId from, NodeId to,
                                     std::size_t max_hops, std::size_t max_paths) {
    SimplePaths out;
    if (!g.contains(from) || !g.contains(to)) return out;
    std::vector<NodeId> current{from};
    std::set<NodeId> on_path{from};
    std::function<void(NodeId)> dfs = [&](NodeId n) {
        if (out.paths.size() >= max_paths) {
            out.truncated = true; // a branch was still open when the cap hit
            return;
        }
        if (n == to) {
            out.paths.push_back(current);
            return;
        }
        if (current.size() > max_hops) {
            // The hop bound pruned this branch; it could have held more
            // paths, so the enumeration is no longer exhaustive.
            out.truncated = true;
            return;
        }
        std::vector<NodeId> succ = g.successors(n);
        std::sort(succ.begin(), succ.end());
        for (NodeId m : succ) {
            if (on_path.contains(m)) continue;
            current.push_back(m);
            on_path.insert(m);
            dfs(m);
            on_path.erase(m);
            current.pop_back();
        }
    };
    dfs(from);
    if (out.paths.size() >= max_paths) out.truncated = true;
    return out;
}

std::map<NodeId, double> betweenness_centrality(const PropertyGraph& g) {
    // Brandes (2001), unweighted directed variant.
    std::map<NodeId, double> cb;
    std::vector<NodeId> nodes = g.nodes();
    for (NodeId n : nodes) cb[n] = 0.0;
    for (NodeId s : nodes) {
        std::stack<NodeId> order;
        std::map<NodeId, std::vector<NodeId>> preds;
        std::map<NodeId, double> sigma;
        std::map<NodeId, std::int64_t> dist;
        for (NodeId n : nodes) {
            sigma[n] = 0.0;
            dist[n] = -1;
        }
        sigma[s] = 1.0;
        dist[s] = 0;
        std::deque<NodeId> queue{s};
        while (!queue.empty()) {
            NodeId v = queue.front();
            queue.pop_front();
            order.push(v);
            for (NodeId w : g.successors(v)) {
                if (dist[w] < 0) {
                    dist[w] = dist[v] + 1;
                    queue.push_back(w);
                }
                if (dist[w] == dist[v] + 1) {
                    sigma[w] += sigma[v];
                    preds[w].push_back(v);
                }
            }
        }
        std::map<NodeId, double> delta;
        for (NodeId n : nodes) delta[n] = 0.0;
        while (!order.empty()) {
            NodeId w = order.top();
            order.pop();
            for (NodeId v : preds[w])
                delta[v] += (sigma[v] / sigma[w]) * (1.0 + delta[w]);
            if (w != s) cb[w] += delta[w];
        }
    }
    return cb;
}

std::vector<NodeId> articulation_points(const PropertyGraph& g) {
    // Hopcroft–Tarjan over the undirected view.
    std::map<NodeId, int> disc;
    std::map<NodeId, int> low;
    std::set<NodeId> points;
    int timer = 0;
    std::function<void(NodeId, NodeId, bool)> dfs = [&](NodeId u, NodeId parent, bool is_root) {
        disc[u] = low[u] = timer++;
        int children = 0;
        for (NodeId v : g.neighbors(u)) {
            if (v == parent) continue;
            if (disc.contains(v)) {
                low[u] = std::min(low[u], disc[v]);
            } else {
                ++children;
                dfs(v, u, false);
                low[u] = std::min(low[u], low[v]);
                if (!is_root && low[v] >= disc[u]) points.insert(u);
            }
        }
        if (is_root && children > 1) points.insert(u);
    };
    for (NodeId n : g.nodes())
        if (!disc.contains(n)) dfs(n, NodeId{}, true);
    return {points.begin(), points.end()};
}

std::vector<NodeId> min_vertex_cut(const PropertyGraph& g, const std::vector<NodeId>& sources,
                                   const std::vector<NodeId>& targets) {
    // Node-splitting reduction: every intermediate node v becomes an arc
    // v_in -> v_out with capacity 1; graph edges u -> v become arcs
    // u_out -> v_in with effectively-infinite capacity. A max-flow from a
    // super-source (feeding every source's out side) to a super-sink (fed
    // by every target's in side) then equals the minimum number of
    // intermediate nodes on any source->target disconnecting set
    // (Menger), and the cut is read off the residual reachability.
    const std::set<NodeId> source_set(sources.begin(), sources.end());
    const std::set<NodeId> target_set(targets.begin(), targets.end());
    std::vector<NodeId> live;
    for (NodeId n : g.nodes())
        live.push_back(n);
    if (live.empty() || source_set.empty() || target_set.empty()) return {};

    // Vertex layout: node i -> in = 2i, out = 2i + 1; then S, T.
    std::map<NodeId, std::uint32_t> index;
    for (std::uint32_t i = 0; i < live.size(); ++i) index[live[i]] = i;
    const std::uint32_t kS = static_cast<std::uint32_t>(2 * live.size());
    const std::uint32_t kT = kS + 1;
    // Capacity larger than any achievable node-cut value stands in for
    // infinity; intermediate splits cap every augmenting path at 1.
    const std::int64_t kInf = static_cast<std::int64_t>(live.size()) + 1;

    struct Arc {
        std::uint32_t to = 0;
        std::int64_t cap = 0;
        std::size_t rev = 0; ///< index of the reverse arc in adj[to]
    };
    std::vector<std::vector<Arc>> adj(kT + 1);
    auto add_arc = [&](std::uint32_t from, std::uint32_t to, std::int64_t cap) {
        adj[from].push_back({to, cap, adj[to].size()});
        adj[to].push_back({from, 0, adj[from].size() - 1});
    };

    for (std::uint32_t i = 0; i < live.size(); ++i) {
        const NodeId n = live[i];
        const bool terminal = source_set.contains(n) || target_set.contains(n);
        add_arc(2 * i, 2 * i + 1, terminal ? kInf : 1);
        if (source_set.contains(n)) add_arc(kS, 2 * i, kInf);
        if (target_set.contains(n)) add_arc(2 * i + 1, kT, kInf);
    }
    for (NodeId n : live) {
        // Deterministic arc order: successors sorted by id.
        std::vector<NodeId> succ = g.successors(n);
        std::sort(succ.begin(), succ.end());
        succ.erase(std::unique(succ.begin(), succ.end()), succ.end());
        for (NodeId m : succ) {
            if (m == n) continue; // self-loops never carry s->t flow
            // A direct source->target edge is unseverable by an
            // intermediate cut; modeling it would make the flow infinite.
            if (source_set.contains(n) && target_set.contains(m)) continue;
            add_arc(2 * index.at(n) + 1, 2 * index.at(m), kInf);
        }
    }

    // Edmonds–Karp: BFS shortest augmenting paths until none remains.
    const std::size_t vertex_count = adj.size();
    std::vector<std::pair<std::uint32_t, std::size_t>> parent(vertex_count); // (vertex, arc idx)
    std::vector<bool> visited(vertex_count);
    while (true) {
        std::fill(visited.begin(), visited.end(), false);
        std::deque<std::uint32_t> queue{kS};
        visited[kS] = true;
        while (!queue.empty() && !visited[kT]) {
            const std::uint32_t u = queue.front();
            queue.pop_front();
            for (std::size_t a = 0; a < adj[u].size(); ++a) {
                const Arc& arc = adj[u][a];
                if (arc.cap <= 0 || visited[arc.to]) continue;
                visited[arc.to] = true;
                parent[arc.to] = {u, a};
                queue.push_back(arc.to);
            }
        }
        if (!visited[kT]) break;
        std::int64_t bottleneck = kInf;
        for (std::uint32_t v = kT; v != kS; v = parent[v].first)
            bottleneck = std::min(bottleneck, adj[parent[v].first][parent[v].second].cap);
        for (std::uint32_t v = kT; v != kS; v = parent[v].first) {
            Arc& arc = adj[parent[v].first][parent[v].second];
            arc.cap -= bottleneck;
            adj[arc.to][arc.rev].cap += bottleneck;
        }
    }

    // Min cut = intermediate nodes whose in side is residual-reachable
    // from S while their out side is not (the saturated split arcs that
    // cross the cut).
    std::fill(visited.begin(), visited.end(), false);
    std::deque<std::uint32_t> queue{kS};
    visited[kS] = true;
    while (!queue.empty()) {
        const std::uint32_t u = queue.front();
        queue.pop_front();
        for (const Arc& arc : adj[u]) {
            if (arc.cap <= 0 || visited[arc.to]) continue;
            visited[arc.to] = true;
            queue.push_back(arc.to);
        }
    }
    std::vector<NodeId> cut;
    for (std::uint32_t i = 0; i < live.size(); ++i) {
        const NodeId n = live[i];
        if (source_set.contains(n) || target_set.contains(n)) continue;
        if (visited[2 * i] && !visited[2 * i + 1]) cut.push_back(n);
    }
    return cut; // live[] is id-ordered, so the cut already is too
}

Subgraph induced_subgraph(const PropertyGraph& g, const std::vector<NodeId>& keep) {
    Subgraph out;
    std::set<NodeId> keep_set(keep.begin(), keep.end());
    for (NodeId n : g.nodes()) {
        if (!keep_set.contains(n)) continue;
        NodeId nn = out.graph.add_node(g.node(n).label);
        out.graph.node(nn).properties = g.node(n).properties;
        out.node_map[n] = nn;
    }
    for (EdgeId e : g.edges()) {
        const auto& ed = g.edge(e);
        auto s = out.node_map.find(ed.source);
        auto t = out.node_map.find(ed.target);
        if (s == out.node_map.end() || t == out.node_map.end()) continue;
        EdgeId ne = out.graph.add_edge(s->second, t->second, ed.label);
        out.graph.edge(ne).properties = ed.properties;
    }
    return out;
}

} // namespace cybok::graph
