// Section 3: the dashboard lets the analyst "change the model on the fly
// and immediately see the new results". Preamble: one refinement step with
// its qualitative verdict. Benchmarks: incremental re-association vs full
// re-association (the design choice that makes "immediately" true), and
// the propose/commit session loop.

#include <cstdio>

#include "bench_common.hpp"
#include "model/diff.hpp"

using namespace cybok;
using cybok::bench::demo_corpus;
using cybok::bench::demo_engine;

namespace {

void print_whatif() {
    std::printf("What-if refinement: Windows 7 engineering WS -> hardened RTOS\n");
    model::SystemModel before = synth::centrifuge_model();
    search::AssociationMap before_assoc = bench::associate(before, demo_engine());
    search::AssocOptions options;
    options.threads = 1;
    search::Associator associator(demo_engine(), options);
    analysis::WhatIfResult r = analysis::what_if(before, before_assoc,
                                                 synth::centrifuge_model_hardened(), associator);
    std::printf("  verdict: %s, delta %lld vectors\n",
                std::string(analysis::verdict_name(r.comparison.verdict)).c_str(),
                static_cast<long long>(r.comparison.delta_total));
    for (const auto& row : r.comparison.rows)
        std::printf("    %s: %+lld patterns, %+lld weaknesses, %+lld vulnerabilities\n",
                    row.component.c_str(), static_cast<long long>(row.delta_patterns),
                    static_cast<long long>(row.delta_weaknesses),
                    static_cast<long long>(row.delta_vulnerabilities));
    std::printf("\n");
}

void BM_FullReassociation(benchmark::State& state) {
    model::SystemModel after = synth::centrifuge_model_hardened();
    for (auto _ : state) {
        auto assoc = bench::associate(after, demo_engine());
        benchmark::DoNotOptimize(assoc);
    }
}
BENCHMARK(BM_FullReassociation);

void BM_IncrementalReassociation(benchmark::State& state) {
    model::SystemModel before = synth::centrifuge_model();
    model::SystemModel after = synth::centrifuge_model_hardened();
    search::AssociationMap before_assoc = bench::associate(before, demo_engine());
    model::ModelDiff d = model::diff(before, after);
    for (auto _ : state) {
        auto assoc = bench::reassociate(before_assoc, d, after, demo_engine());
        benchmark::DoNotOptimize(assoc);
    }
}
BENCHMARK(BM_IncrementalReassociation);

// The refinement step through the parallel engine. Untouched components
// are copied wholesale (the dominant win); the touched components' cache
// entries are invalidated by policy on every reassociate, so they
// re-query each iteration — hit_rate here reflects only duplicate
// attributes, not replay.
void BM_IncrementalReassociationParallelCached(benchmark::State& state) {
    model::SystemModel before = synth::centrifuge_model();
    model::SystemModel after = synth::centrifuge_model_hardened();
    search::Associator assoc_engine(demo_engine(), search::AssocOptions{});
    search::AssociationMap before_assoc = assoc_engine.associate(before);
    model::ModelDiff d = model::diff(before, after);
    for (auto _ : state) {
        auto assoc = assoc_engine.reassociate(before_assoc, d, after);
        benchmark::DoNotOptimize(assoc);
    }
    state.counters["hit_rate"] = assoc_engine.metrics().cache_hit_rate();
}
BENCHMARK(BM_IncrementalReassociationParallelCached);

// Full re-association of the whole model, parallel engine, cold vs warm
// cache — the "re-run everything after a refinement" upper bound the
// paper's workflow pays without incrementality.
void BM_FullReassociationParallelWarm(benchmark::State& state) {
    model::SystemModel after = synth::centrifuge_model_hardened();
    search::Associator assoc_engine(demo_engine(), search::AssocOptions{});
    (void)assoc_engine.associate(after); // prime
    for (auto _ : state) {
        auto assoc = assoc_engine.associate(after);
        benchmark::DoNotOptimize(assoc);
    }
    state.counters["hit_rate"] = assoc_engine.metrics().cache_hit_rate();
}
BENCHMARK(BM_FullReassociationParallelWarm);

// Incremental advantage grows with model size: edit one component of an
// N-component architecture.
void BM_IncrementalVsSize(benchmark::State& state) {
    synth::ModelGenConfig cfg;
    cfg.components = static_cast<std::size_t>(state.range(0));
    cfg.seed = 23;
    model::SystemModel before = synth::generate_model(cfg);
    model::SystemModel after = synth::generate_model(cfg);
    // Touch exactly one component.
    model::ComponentId first = after.components().front().id;
    model::Attribute extra;
    extra.name = "note";
    extra.value = "revised supervisory role";
    after.set_attribute(first, extra);

    search::AssociationMap before_assoc = bench::associate(before, demo_engine());
    model::ModelDiff d = model::diff(before, after);
    for (auto _ : state) {
        auto assoc = bench::reassociate(before_assoc, d, after, demo_engine());
        benchmark::DoNotOptimize(assoc);
    }
    state.counters["components"] = static_cast<double>(cfg.components);
}
BENCHMARK(BM_IncrementalVsSize)->Arg(25)->Arg(100)->Arg(200);

void BM_FullVsSize(benchmark::State& state) {
    synth::ModelGenConfig cfg;
    cfg.components = static_cast<std::size_t>(state.range(0));
    cfg.seed = 23;
    model::SystemModel m = synth::generate_model(cfg);
    for (auto _ : state) {
        auto assoc = bench::associate(m, demo_engine());
        benchmark::DoNotOptimize(assoc);
    }
    state.counters["components"] = static_cast<double>(cfg.components);
}
BENCHMARK(BM_FullVsSize)->Arg(25)->Arg(100)->Arg(200)->Unit(benchmark::kMillisecond);

void BM_SessionProposeCommit(benchmark::State& state) {
    for (auto _ : state) {
        core::AnalysisSession session(synth::centrifuge_model(), demo_corpus());
        (void)session.associations();
        auto result = session.propose(synth::centrifuge_model_hardened());
        benchmark::DoNotOptimize(result);
        session.commit(synth::centrifuge_model_hardened());
        benchmark::DoNotOptimize(session.associations().total());
    }
}
BENCHMARK(BM_SessionProposeCommit)->Unit(benchmark::kMillisecond);

void BM_ModelDiff(benchmark::State& state) {
    model::SystemModel before = synth::centrifuge_model();
    model::SystemModel after = synth::centrifuge_model_hardened();
    for (auto _ : state) {
        auto d = model::diff(before, after);
        benchmark::DoNotOptimize(d);
    }
}
BENCHMARK(BM_ModelDiff);

} // namespace

CYBOK_BENCH_MAIN(print_whatif)
