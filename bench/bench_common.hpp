// Shared fixtures for the benchmark suite: the demo corpus, engine, and
// model are built once per process (corpus generation is itself measured
// separately where relevant).
//
// Machine-readable output: every bench binary honors Google Benchmark's
// native --benchmark_out/--benchmark_out_format flags, and additionally
// the CYBOK_BENCH_JSON_DIR environment variable — when set, each binary
// writes <dir>/BENCH_<name>.json (benchmark JSON format) without any
// extra flags, so `cmake --build build --target bench_json` tracks the
// perf trajectory as one JSON artifact per bench from this PR onward.

#pragma once

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "core/session.hpp"
#include "synth/corpus_gen.hpp"
#include "synth/model_gen.hpp"
#include "synth/scada.hpp"

namespace cybok::bench {

inline const kb::Corpus& demo_corpus() {
    static const kb::Corpus corpus =
        synth::generate_corpus(synth::CorpusProfile::scada_demo());
    return corpus;
}

inline const search::SearchEngine& demo_engine() {
    static const search::SearchEngine engine(demo_corpus());
    return engine;
}

/// One association of `m` through an inline, uncached Associator: the
/// sequential path, with no cache to warm between iterations.
inline search::AssociationMap associate(const model::SystemModel& m,
                                        const search::QueryEngine& engine) {
    search::AssocOptions options;
    options.threads = 1;
    options.cache_enabled = false;
    return search::Associator(engine, options).associate(m);
}

/// Incremental re-association through an inline, uncached Associator.
inline search::AssociationMap reassociate(const search::AssociationMap& previous,
                                          const model::ModelDiff& diff,
                                          const model::SystemModel& after,
                                          const search::QueryEngine& engine) {
    search::AssocOptions options;
    options.threads = 1;
    options.cache_enabled = false;
    return search::Associator(engine, options).reassociate(previous, diff, after);
}

/// A process-wide parallel+cached associator over the demo engine, for
/// benchmarks that measure the warm interactive path. Benchmarks that
/// need cold-cache numbers construct their own Associator instead.
inline search::Associator& demo_associator() {
    static search::Associator assoc(demo_engine(), search::AssocOptions{});
    return assoc;
}

/// Shared main body: preamble (the reproduced table), then benchmarks.
/// `binary_name` (argv[0]) names the BENCH_<name>.json sidecar when
/// CYBOK_BENCH_JSON_DIR is set.
inline int run_bench_main(int argc, char** argv, void (*preamble)()) {
    preamble();
    std::vector<char*> args(argv, argv + argc);
    std::string out_flag, fmt_flag;
    if (const char* dir = std::getenv("CYBOK_BENCH_JSON_DIR"); dir != nullptr && *dir != '\0') {
        std::string name(argv[0]);
        if (std::size_t slash = name.find_last_of('/'); slash != std::string::npos)
            name = name.substr(slash + 1);
        out_flag = "--benchmark_out=" + std::string(dir) + "/BENCH_" + name + ".json";
        fmt_flag = "--benchmark_out_format=json";
        args.push_back(out_flag.data());
        args.push_back(fmt_flag.data());
    }
    int n = static_cast<int>(args.size());
    benchmark::Initialize(&n, args.data());
    if (benchmark::ReportUnrecognizedArguments(n, args.data())) return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}

#define CYBOK_BENCH_MAIN(preamble_fn)                                   \
    int main(int argc, char** argv) {                                   \
        return cybok::bench::run_bench_main(argc, argv, preamble_fn);   \
    }

} // namespace cybok::bench
