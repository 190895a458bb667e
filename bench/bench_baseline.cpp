// The paper's core argument, §1–§2: IT-centric threat modeling (STRIDE,
// attack trees) "cannot map threats to environmental consequences" and is
// therefore "insufficient for assessing security in CPS". The preamble
// runs both methodologies over the same model, associations, and hazard
// knowledge and prints the structural difference; the benchmarks time both
// sides (the CPS pipeline's consequence mapping is not free — the paper's
// point is that it is *necessary*, the measurement shows it is affordable).

#include <cstdio>

#include "baseline/comparison.hpp"
#include "bench_common.hpp"
#include "dashboard/table.hpp"
#include "dashboard/vector_graph.hpp"

using namespace cybok;
using namespace cybok::baseline;
using cybok::bench::demo_engine;

namespace {

void print_comparison() {
    model::SystemModel m = synth::centrifuge_model();
    search::AssociationMap assoc = bench::associate(m, demo_engine());
    safety::HazardModel hazards = synth::centrifuge_hazards();
    MethodologyComparison cmp = compare_methodologies(m, assoc, hazards, "BPCS platform");

    std::printf("IT-baseline vs CPS methodology on the centrifuge SCADA model\n");
    dashboard::TextTable table({"Measure", "STRIDE + attack tree", "CPS pipeline"});
    table.align_right(1).align_right(2);
    table.add_row({"findings produced", std::to_string(cmp.stride_findings) + " threats",
                   std::to_string(cmp.consequence_traces) + " traces"});
    table.add_row({"attack tree leaves / minimal sets",
                   std::to_string(cmp.attack_tree_leaves) + " / " +
                       std::to_string(cmp.minimal_attack_sets),
                   "-"});
    table.add_row({"components the method cannot model",
                   std::to_string(cmp.unmodeled_components), "0"});
    table.add_row({"findings linked to physical consequences",
                   std::to_string(cmp.baseline_consequence_links),
                   std::to_string(cmp.consequence_traces)});
    table.add_row({"supported causal scenarios", "-",
                   std::to_string(cmp.supported_scenarios)});
    table.add_row({"distinct losses reached", "0",
                   std::to_string(cmp.distinct_losses_reached)});
    std::fputs(table.render().c_str(), stdout);
    std::printf("Expected shape: the baseline produces findings but zero consequence "
                "links and cannot model the physical process at all.\n\n");
}

void BM_StridePerElement(benchmark::State& state) {
    model::SystemModel m = synth::centrifuge_model();
    for (auto _ : state) {
        auto threats = stride_per_element(m);
        benchmark::DoNotOptimize(threats);
    }
}
BENCHMARK(BM_StridePerElement);

void BM_BuildAttackTree(benchmark::State& state) {
    model::SystemModel m = synth::centrifuge_model();
    search::AssociationMap assoc = bench::associate(m, demo_engine());
    for (auto _ : state) {
        AttackTree tree = build_attack_tree(m, assoc, "BPCS platform");
        benchmark::DoNotOptimize(tree);
    }
}
BENCHMARK(BM_BuildAttackTree);

void BM_ConsequenceTracing(benchmark::State& state) {
    model::SystemModel m = synth::centrifuge_model();
    search::AssociationMap assoc = bench::associate(m, demo_engine());
    safety::HazardModel hazards = synth::centrifuge_hazards();
    for (auto _ : state) {
        safety::ConsequenceAnalyzer analyzer(m, hazards);
        auto traces = analyzer.trace(assoc);
        benchmark::DoNotOptimize(traces);
    }
}
BENCHMARK(BM_ConsequenceTracing);

void BM_CausalScenarios(benchmark::State& state) {
    model::SystemModel m = synth::centrifuge_model();
    search::AssociationMap assoc = bench::associate(m, demo_engine());
    safety::HazardModel hazards = synth::centrifuge_hazards();
    for (auto _ : state) {
        auto scenarios = safety::generate_scenarios(m, hazards, assoc);
        benchmark::DoNotOptimize(scenarios);
    }
}
BENCHMARK(BM_CausalScenarios);

void BM_FullMethodologyComparison(benchmark::State& state) {
    model::SystemModel m = synth::centrifuge_model();
    search::AssociationMap assoc = bench::associate(m, demo_engine());
    safety::HazardModel hazards = synth::centrifuge_hazards();
    for (auto _ : state) {
        auto cmp = compare_methodologies(m, assoc, hazards, "BPCS platform");
        benchmark::DoNotOptimize(cmp);
    }
}
BENCHMARK(BM_FullMethodologyComparison)->Unit(benchmark::kMillisecond);

void BM_HardeningPrioritization(benchmark::State& state) {
    model::SystemModel m = synth::centrifuge_model();
    search::AssociationMap assoc = bench::associate(m, demo_engine());
    safety::HazardModel hazards = synth::centrifuge_hazards();
    for (auto _ : state) {
        auto ranked = analysis::rank_hardening_candidates(m, assoc, &hazards);
        benchmark::DoNotOptimize(ranked);
    }
}
BENCHMARK(BM_HardeningPrioritization)->Unit(benchmark::kMillisecond);

void BM_VectorGraphBuild(benchmark::State& state) {
    model::SystemModel m = synth::centrifuge_model();
    search::AssociationMap assoc = bench::associate(m, demo_engine());
    for (auto _ : state) {
        auto g = dashboard::build_vector_graph(m, assoc, cybok::bench::demo_corpus());
        benchmark::DoNotOptimize(g);
    }
}
BENCHMARK(BM_VectorGraphBuild)->Unit(benchmark::kMillisecond);

} // namespace

CYBOK_BENCH_MAIN(print_comparison)
