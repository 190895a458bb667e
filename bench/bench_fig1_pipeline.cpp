// Fig. 1 of the paper: the end-to-end pipeline that "merges system models
// with attack vector data to promote model-based security". The preamble
// walks the three capabilities on the demo system and reports what each
// stage produced; the benchmarks time each capability separately and the
// whole pipeline across model sizes.

#include <cstdio>

#include "bench_common.hpp"
#include "graph/graphml.hpp"
#include "model/export.hpp"

using namespace cybok;
using cybok::bench::demo_corpus;

namespace {

void print_pipeline() {
    std::printf("Fig. 1 — pipeline stages on the centrifuge SCADA model\n");
    core::AnalysisSession session(synth::centrifuge_model(), demo_corpus());
    session.set_hazards(synth::centrifuge_hazards());

    const graph::PropertyGraph architecture = model::to_graph(session.model());
    std::string graphml = graph::to_graphml(architecture, session.model().name());
    std::printf("  capability 1 (export):    %zu nodes, %zu edges, %zu bytes GraphML\n",
                architecture.node_count(), architecture.edge_count(), graphml.size());
    std::printf("  capability 2 (associate): %zu attack vectors (%zu AP, %zu W, %zu V)\n",
                session.associations().total(),
                session.associations().total(search::VectorClass::AttackPattern),
                session.associations().total(search::VectorClass::Weakness),
                session.associations().total(search::VectorClass::Vulnerability));
    dashboard::Report report = session.report();
    std::printf("  capability 3 (present):   %zu report sections, %zu consequence traces\n\n",
                report.sections.size(), session.consequence_traces().size());
}

void BM_Capability1_Export(benchmark::State& state) {
    model::SystemModel m = synth::centrifuge_model();
    for (auto _ : state) {
        std::string xml = graph::to_graphml(model::to_graph(m), m.name());
        benchmark::DoNotOptimize(xml);
    }
}
BENCHMARK(BM_Capability1_Export);

void BM_Capability2_Associate(benchmark::State& state) {
    static const search::SearchEngine& engine = cybok::bench::demo_engine();
    model::SystemModel m = synth::centrifuge_model();
    for (auto _ : state) {
        auto assoc = bench::associate(m, engine);
        benchmark::DoNotOptimize(assoc);
    }
}
BENCHMARK(BM_Capability2_Associate);

void BM_Capability3_Report(benchmark::State& state) {
    core::AnalysisSession session(synth::centrifuge_model(), demo_corpus());
    session.set_hazards(synth::centrifuge_hazards());
    (void)session.associations();
    for (auto _ : state) {
        dashboard::Report r = session.report();
        std::string text = dashboard::render_text(r);
        benchmark::DoNotOptimize(text);
    }
}
BENCHMARK(BM_Capability3_Report);

// The whole pipeline as a function of model size (components), on
// synthetic layered architectures using the same product catalog.
void BM_PipelineVsModelSize(benchmark::State& state) {
    synth::ModelGenConfig cfg;
    cfg.components = static_cast<std::size_t>(state.range(0));
    cfg.seed = 17;
    model::SystemModel m = synth::generate_model(cfg);
    static const search::SearchEngine& engine = cybok::bench::demo_engine();
    std::size_t vectors = 0;
    for (auto _ : state) {
        std::string xml = graph::to_graphml(model::to_graph(m), m.name());
        benchmark::DoNotOptimize(xml);
        auto assoc = bench::associate(m, engine);
        vectors = assoc.total();
        auto posture = analysis::compute_posture(m, assoc);
        benchmark::DoNotOptimize(posture);
    }
    state.counters["components"] = static_cast<double>(cfg.components);
    state.counters["vectors"] = static_cast<double>(vectors);
}
BENCHMARK(BM_PipelineVsModelSize)->Arg(6)->Arg(25)->Arg(50)->Arg(100)->Arg(200)
    ->Unit(benchmark::kMillisecond);

} // namespace

CYBOK_BENCH_MAIN(print_pipeline)
