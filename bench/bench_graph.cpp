// Graph-substrate throughput: the algorithms the analysis layer leans on
// (reachability for exposure, betweenness for criticality, simple-path
// enumeration for attack paths) across architecture sizes.

#include <cstdio>

#include "bench_common.hpp"
#include "graph/algorithms.hpp"
#include "graph/graphml.hpp"
#include "model/export.hpp"

using namespace cybok;
using namespace cybok::graph;

namespace {

PropertyGraph layered_graph(std::size_t components) {
    synth::ModelGenConfig cfg;
    cfg.components = components;
    cfg.seed = 41;
    return model::to_graph(synth::generate_model(cfg));
}

void preamble() {
    std::printf("Graph algorithm throughput on layered architectures\n\n");
}

void BM_Bfs(benchmark::State& state) {
    PropertyGraph g = layered_graph(static_cast<std::size_t>(state.range(0)));
    NodeId start = g.nodes().front();
    for (auto _ : state) {
        auto order = reachable_from(g, {start});
        benchmark::DoNotOptimize(order);
    }
}
BENCHMARK(BM_Bfs)->Arg(50)->Arg(200)->Arg(800);

void BM_Betweenness(benchmark::State& state) {
    PropertyGraph g = layered_graph(static_cast<std::size_t>(state.range(0)));
    for (auto _ : state) {
        auto cb = betweenness_centrality(g);
        benchmark::DoNotOptimize(cb);
    }
}
BENCHMARK(BM_Betweenness)->Arg(50)->Arg(200)->Unit(benchmark::kMillisecond);

void BM_AllSimplePaths(benchmark::State& state) {
    PropertyGraph g = layered_graph(static_cast<std::size_t>(state.range(0)));
    auto nodes = g.nodes();
    NodeId from = nodes.front();
    NodeId to = nodes.back();
    for (auto _ : state) {
        auto paths = all_simple_paths_bounded(g, from, to, 8, 1024);
        benchmark::DoNotOptimize(paths);
    }
}
BENCHMARK(BM_AllSimplePaths)->Arg(50)->Arg(200);

void BM_GraphmlSerialize(benchmark::State& state) {
    PropertyGraph g = layered_graph(static_cast<std::size_t>(state.range(0)));
    for (auto _ : state) {
        std::string xml = to_graphml(g);
        benchmark::DoNotOptimize(xml);
    }
    state.counters["nodes"] = static_cast<double>(g.node_count());
}
BENCHMARK(BM_GraphmlSerialize)->Arg(50)->Arg(200)->Arg(800);

void BM_GraphmlParse(benchmark::State& state) {
    std::string xml = to_graphml(layered_graph(static_cast<std::size_t>(state.range(0))));
    for (auto _ : state) {
        PropertyGraph g = from_graphml(xml);
        benchmark::DoNotOptimize(g);
    }
    state.counters["bytes"] = static_cast<double>(xml.size());
}
BENCHMARK(BM_GraphmlParse)->Arg(50)->Arg(200)->Arg(800);

} // namespace

CYBOK_BENCH_MAIN(preamble)
