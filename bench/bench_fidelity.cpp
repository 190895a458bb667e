// Section 3 lesson: "the result space … is highly sensitive to the
// fidelity of the model." The preamble prints the result-space size and
// shape at each fidelity level of the same architecture; the benchmarks
// time association per level.

#include <cstdio>

#include "analysis/fidelity.hpp"
#include "bench_common.hpp"
#include "dashboard/table.hpp"
#include "search/filters.hpp"

using namespace cybok;
using cybok::bench::demo_engine;

namespace {

void print_fidelity_sweep() {
    std::printf("Result-space size vs model fidelity (centrifuge SCADA model)\n");
    auto points = analysis::fidelity_sweep(synth::centrifuge_model(), demo_engine());
    dashboard::TextTable table({"Fidelity", "Attributes", "Attack Patterns", "Weaknesses",
                                "Vulnerabilities", "Specificity"});
    for (int i = 1; i <= 5; ++i) table.align_right(static_cast<std::size_t>(i));
    for (const auto& p : points) {
        char spec[16];
        std::snprintf(spec, sizeof spec, "%.2f", p.specificity);
        table.add_row({std::string(model::fidelity_name(p.level)),
                       std::to_string(p.attributes), std::to_string(p.attack_patterns),
                       std::to_string(p.weaknesses), std::to_string(p.vulnerabilities),
                       spec});
    }
    std::fputs(table.render().c_str(), stdout);
    std::printf("Expected shape: vulnerabilities ~0 until implementation fidelity, then "
                "dominant; specificity jumps with platform references.\n\n");
}

void BM_AssociateAtFidelity(benchmark::State& state) {
    auto level = static_cast<model::Fidelity>(state.range(0));
    model::SystemModel m = synth::centrifuge_model().at_fidelity(level);
    std::size_t vectors = 0;
    for (auto _ : state) {
        auto assoc = bench::associate(m, demo_engine());
        vectors = assoc.total();
        benchmark::DoNotOptimize(assoc);
    }
    state.SetLabel(std::string(model::fidelity_name(level)));
    state.counters["vectors"] = static_cast<double>(vectors);
}
BENCHMARK(BM_AssociateAtFidelity)->DenseRange(0, 3);

void BM_FidelitySweepFull(benchmark::State& state) {
    model::SystemModel m = synth::centrifuge_model();
    for (auto _ : state) {
        auto points = analysis::fidelity_sweep(m, demo_engine());
        benchmark::DoNotOptimize(points);
    }
}
BENCHMARK(BM_FidelitySweepFull)->Unit(benchmark::kMillisecond);

// The mitigation the paper proposes for the fidelity explosion: abstract
// vulnerabilities into weakness classes at early stages.
void BM_AbstractVulnerabilities(benchmark::State& state) {
    model::Attribute attr;
    attr.name = "os";
    attr.value = "NI RT Linux OS";
    attr.kind = model::AttributeKind::PlatformRef;
    attr.platform = kb::Platform{kb::PlatformPart::OperatingSystem, "ni", "rt_linux", ""};
    auto matches = demo_engine().query_attribute(attr);
    std::size_t abstracted_size = 0;
    for (auto _ : state) {
        auto abstracted = search::abstract_vulnerabilities(matches, demo_engine().corpus());
        abstracted_size = abstracted.size();
        benchmark::DoNotOptimize(abstracted);
    }
    state.counters["before"] = static_cast<double>(matches.size());
    state.counters["after"] = static_cast<double>(abstracted_size);
}
BENCHMARK(BM_AbstractVulnerabilities)->Unit(benchmark::kMillisecond);

} // namespace

CYBOK_BENCH_MAIN(print_fidelity_sweep)
