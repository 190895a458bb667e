// Table 1 of the paper: the number of attack patterns / weaknesses /
// vulnerabilities associated with each attribute of the centrifuge SCADA
// model. The preamble prints the paper's numbers next to ours (they must
// agree exactly — the corpus generator is calibrated to the published
// volumes); the benchmarks measure what the paper's prototype pays for
// that search.

#include <cstdio>

#include "bench_common.hpp"
#include "dashboard/table.hpp"
#include "search/association.hpp"

using namespace cybok;
using cybok::bench::demo_corpus;
using cybok::bench::demo_engine;

namespace {

struct PaperRow {
    const char* attribute;
    std::size_t patterns, weaknesses, vulnerabilities;
};
constexpr PaperRow kPaper[] = {
    {"Cisco ASA", 2, 1, 3776},   {"NI RT Linux OS", 54, 75, 9673},
    {"Windows 7", 41, 73, 6627}, {"LabVIEW", 0, 0, 6},
    {"NI cRIO 9063", 0, 0, 7},   {"NI cRIO 9064", 0, 0, 7},
};

void print_table1() {
    model::SystemModel m = synth::centrifuge_model();
    search::AssociationMap assoc = bench::associate(m, demo_engine());
    auto rows = assoc.attribute_table();

    std::printf("Table 1 — attack vectors per SCADA model attribute (paper vs measured)\n");
    dashboard::TextTable table({"Attribute", "AP paper", "AP ours", "W paper", "W ours",
                                "V paper", "V ours", "match"});
    for (int i = 1; i <= 6; ++i) table.align_right(static_cast<std::size_t>(i));
    bool all_match = true;
    for (const PaperRow& p : kPaper) {
        std::size_t ap = 0, w = 0, v = 0;
        for (const auto& row : rows) {
            if (row.attribute == p.attribute) {
                ap = row.attack_patterns;
                w = row.weaknesses;
                v = row.vulnerabilities;
                break;
            }
        }
        bool match = ap == p.patterns && w == p.weaknesses && v == p.vulnerabilities;
        all_match = all_match && match;
        table.add_row({p.attribute, std::to_string(p.patterns), std::to_string(ap),
                       std::to_string(p.weaknesses), std::to_string(w),
                       std::to_string(p.vulnerabilities), std::to_string(v),
                       match ? "yes" : "NO"});
    }
    std::fputs(table.render().c_str(), stdout);
    std::printf("Table 1 reproduction: %s\n\n", all_match ? "EXACT" : "MISMATCH");

    // The same table through the parallel+cached engine must be identical;
    // print its metrics so every bench run documents the cache behavior.
    search::Associator par(demo_engine(), search::AssocOptions{});
    search::AssociationMap cold = par.associate(m);
    search::AssociationMap warm = par.associate(m);
    std::printf("Parallel engine check: %s (cold) / %s (warm)\n",
                cold.total() == assoc.total() ? "identical totals" : "MISMATCH",
                warm.total() == assoc.total() ? "identical totals" : "MISMATCH");
    std::printf("Assoc metrics: %s\n\n", par.metrics().summary().c_str());
}

// How long one attribute query takes, per attribute kind.
void BM_QueryPlatformAttribute(benchmark::State& state) {
    model::Attribute attr;
    attr.name = "os";
    attr.value = "NI RT Linux OS";
    attr.kind = model::AttributeKind::PlatformRef;
    attr.platform = kb::Platform{kb::PlatformPart::OperatingSystem, "ni", "rt_linux", ""};
    std::size_t total = 0;
    for (auto _ : state) {
        auto matches = demo_engine().query_attribute(attr);
        total += matches.size();
        benchmark::DoNotOptimize(matches);
    }
    state.counters["matches"] = static_cast<double>(total) /
                                static_cast<double>(state.iterations());
}
BENCHMARK(BM_QueryPlatformAttribute);

void BM_QueryDescriptorAttribute(benchmark::State& state) {
    model::Attribute attr;
    attr.name = "role";
    attr.value = "basic process control scada controller modbus interface";
    attr.kind = model::AttributeKind::Descriptor;
    std::size_t total = 0;
    for (auto _ : state) {
        auto matches = demo_engine().query_attribute(attr);
        total += matches.size();
        benchmark::DoNotOptimize(matches);
    }
    state.counters["matches"] = static_cast<double>(total) /
                                static_cast<double>(state.iterations());
}
BENCHMARK(BM_QueryDescriptorAttribute);

// The full Table 1: associate the whole SCADA model (sequential baseline).
void BM_AssociateScadaModel(benchmark::State& state) {
    model::SystemModel m = synth::centrifuge_model();
    for (auto _ : state) {
        search::AssociationMap assoc = bench::associate(m, demo_engine());
        benchmark::DoNotOptimize(assoc);
    }
}
BENCHMARK(BM_AssociateScadaModel);

// The same association through the parallel pipeline, cache disabled —
// isolates the thread-pool fan-out speedup over the baseline above.
void BM_AssociateScadaModelParallel(benchmark::State& state) {
    model::SystemModel m = synth::centrifuge_model();
    search::AssocOptions opts;
    opts.threads = static_cast<std::size_t>(state.range(0));
    opts.cache_enabled = false;
    search::Associator assoc(demo_engine(), opts);
    for (auto _ : state) {
        search::AssociationMap map = assoc.associate(m);
        benchmark::DoNotOptimize(map);
    }
    state.counters["threads"] = static_cast<double>(assoc.thread_count());
}
BENCHMARK(BM_AssociateScadaModelParallel)->Arg(1)->Arg(2)->Arg(4)->Arg(0);

// Warm-cache replay: the cost of re-associating an unchanged model, the
// floor the what-if loop pays when nothing (relevant) changed.
void BM_AssociateScadaModelCachedWarm(benchmark::State& state) {
    model::SystemModel m = synth::centrifuge_model();
    search::Associator assoc(demo_engine(), search::AssocOptions{});
    (void)assoc.associate(m); // prime
    for (auto _ : state) {
        search::AssociationMap map = assoc.associate(m);
        benchmark::DoNotOptimize(map);
    }
    search::AssocMetrics metrics = assoc.metrics();
    state.counters["hit_rate"] = metrics.cache_hit_rate();
}
BENCHMARK(BM_AssociateScadaModelCachedWarm);

// What the paper's pipeline pays up front: generating (stand-in for
// downloading/parsing) and indexing the corpus.
void BM_GenerateCorpus(benchmark::State& state) {
    for (auto _ : state) {
        kb::Corpus corpus = synth::generate_corpus(synth::CorpusProfile::scada_demo());
        benchmark::DoNotOptimize(corpus);
    }
}
BENCHMARK(BM_GenerateCorpus)->Unit(benchmark::kMillisecond);

void BM_BuildSearchIndex(benchmark::State& state) {
    for (auto _ : state) {
        search::SearchEngine engine(demo_corpus());
        benchmark::DoNotOptimize(&engine);
    }
}
BENCHMARK(BM_BuildSearchIndex)->Unit(benchmark::kMillisecond);

} // namespace

CYBOK_BENCH_MAIN(print_table1)
