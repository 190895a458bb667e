// Substrate scaling: index build time and query latency as the corpus
// grows, the scoring kernel (text::query_segments) over one sealed index,
// unpruned and on the Block-Max WAND top-k path over block-compressed
// postings. The kernel and build benchmarks attach deterministic counters
// (postings_scanned, blocks_decoded/skipped, resident postings bytes)
// that the CI bench-regression gate checks against
// tools/bench_thresholds.json.

#include <cstdio>
#include <map>

#include "bench_common.hpp"
#include "search/association.hpp"
#include "text/scratch.hpp"
#include "text/segments.hpp"
#include "text/tokenize.hpp"
#include "util/fault.hpp"
#include "util/rng.hpp"

using namespace cybok;

namespace {

const kb::Corpus& corpus_at_scale(int permille) {
    // Cache one corpus per scale so setup cost is paid once.
    static std::map<int, kb::Corpus> cache;
    auto it = cache.find(permille);
    if (it == cache.end()) {
        it = cache.emplace(permille, synth::generate_corpus(synth::CorpusProfile::scaled(
                                        permille / 1000.0, 31))).first;
    }
    return it->second;
}

/// CVE-description index per scale — the largest of the engine's three
/// per-class indexes, for kernel-level timings.
const text::InvertedIndex& vuln_index_at_scale(int permille) {
    static std::map<int, text::InvertedIndex> cache;
    auto it = cache.find(permille);
    if (it == cache.end()) {
        text::InvertedIndex index;
        for (const kb::Vulnerability& v : corpus_at_scale(permille).vulnerabilities()) {
            index.add_document();
            index.add_terms(text::analyze(v.description));
        }
        index.finalize();
        it = cache.emplace(permille, std::move(index)).first;
    }
    return it->second;
}

const std::vector<std::string>& scorer_query() {
    static const std::vector<std::string> tokens =
        text::analyze("scada controller modbus command injection remote code execution");
    return tokens;
}

void preamble() {
    std::printf("Search-engine scaling (corpus scale factor sweep)\n\n");
}

void BM_IndexBuild(benchmark::State& state) {
    const kb::Corpus& corpus = corpus_at_scale(static_cast<int>(state.range(0)));
    for (auto _ : state) {
        search::SearchEngine engine(corpus);
        benchmark::DoNotOptimize(&engine);
    }
    state.counters["docs"] = static_cast<double>(
        corpus.stats().patterns + corpus.stats().weaknesses + corpus.stats().vulnerabilities);
    // Resident-size accounting for the regression gate: compressed posting
    // bytes vs what the old flat Posting arrays would occupy.
    const search::SearchEngine probe(corpus);
    const text::IndexStats stats = probe.index_stats();
    state.counters["postings_bytes"] = static_cast<double>(stats.postings_bytes);
    state.counters["uncompressed_bytes"] = static_cast<double>(stats.uncompressed_postings_bytes);
}
BENCHMARK(BM_IndexBuild)->Arg(50)->Arg(200)->Arg(500)->Arg(1000)
    ->Unit(benchmark::kMillisecond);

void BM_QueryLatencyVsScale(benchmark::State& state) {
    const kb::Corpus& corpus = corpus_at_scale(static_cast<int>(state.range(0)));
    search::SearchEngine engine(corpus);
    model::Attribute attr;
    attr.name = "role";
    attr.value = "scada controller modbus command injection";
    attr.kind = model::AttributeKind::Descriptor;
    for (auto _ : state) {
        auto matches = engine.query_attribute(attr);
        benchmark::DoNotOptimize(matches);
    }
}
BENCHMARK(BM_QueryLatencyVsScale)->Arg(50)->Arg(200)->Arg(500)->Arg(1000);

// Engine path with a top-k cap: the kernel's max-score pruning arms.
void BM_QueryLatencyTopK(benchmark::State& state) {
    const kb::Corpus& corpus = corpus_at_scale(static_cast<int>(state.range(0)));
    search::EngineOptions opts;
    opts.max_lexical_hits = 25;
    search::SearchEngine engine(corpus, opts);
    model::Attribute attr;
    attr.name = "role";
    attr.value = "scada controller modbus command injection";
    attr.kind = model::AttributeKind::Descriptor;
    for (auto _ : state) {
        auto matches = engine.query_attribute(attr);
        benchmark::DoNotOptimize(matches);
    }
}
BENCHMARK(BM_QueryLatencyTopK)->Arg(50)->Arg(1000);

// The kernel over the largest per-class index (CVE descriptions) as a
// sealed one-segment view: canonical term resolution plus the unpruned
// term-at-a-time pass.
void BM_Bm25Kernel(benchmark::State& state) {
    const text::InvertedIndex& index = vuln_index_at_scale(static_cast<int>(state.range(0)));
    const text::Bm25Scorer scorer(index);
    const std::vector<text::SegmentView> view{text::sealed_view(index, scorer)};
    text::QueryScratch& scratch = text::tls_query_scratch();
    for (auto _ : state) {
        auto hits = text::query_segments(view, index.doc_count(),
                                         text::sealed_terms(index, scorer_query()), scratch, {});
        benchmark::DoNotOptimize(hits);
    }
}
BENCHMARK(BM_Bm25Kernel)->Arg(50)->Arg(200)->Arg(500)->Arg(1000);

// Top-k with pruning: this is the Block-Max WAND path — document-at-a-
// time over compressed blocks, skipping blocks whose max impact cannot
// reach the current floor. The counters are deterministic (fixed query,
// fixed corpus seed) and gate the CI bench-regression check.
void BM_Bm25KernelTopK(benchmark::State& state) {
    const text::InvertedIndex& index = vuln_index_at_scale(static_cast<int>(state.range(0)));
    const text::Bm25Scorer scorer(index);
    const std::vector<text::SegmentView> view{text::sealed_view(index, scorer)};
    text::QueryScratch& scratch = text::tls_query_scratch();
    text::KernelOptions opts;
    opts.top_k = 25;
    text::SegmentedStats stats;
    for (auto _ : state) {
        stats = {};
        auto hits = text::query_segments(view, index.doc_count(),
                                         text::sealed_terms(index, scorer_query()), scratch,
                                         opts, &stats);
        benchmark::DoNotOptimize(hits);
    }
    state.counters["postings_scanned"] = static_cast<double>(stats.kernel.postings_scanned);
    state.counters["blocks_decoded"] = static_cast<double>(stats.kernel.blocks_decoded);
    state.counters["blocks_skipped"] = static_cast<double>(stats.kernel.blocks_skipped);
}
BENCHMARK(BM_Bm25KernelTopK)->Arg(50)->Arg(1000);

// An index whose top-k query provably skips blocks: 2000 documents over
// 24 high-frequency terms (tf 1-4) plus, in 8% of documents, one of 24
// rare terms at weight 8 — the shape of the fault-matrix Block-Max WAND
// oracle. A query mixing common terms with one rare term fills its top-3
// floor from the rare term's few postings, and some of the common terms'
// block maxima then fall below that floor.
const text::InvertedIndex& skewed_index() {
    static const text::InvertedIndex index = [] {
        text::InvertedIndex idx;
        Rng rng(99);
        std::vector<std::string> common, rare;
        for (int t = 0; t < 24; ++t) common.push_back("common" + std::to_string(t));
        for (int t = 0; t < 24; ++t) rare.push_back("rare" + std::to_string(t));
        for (int d = 0; d < 2000; ++d) {
            idx.add_document();
            std::vector<std::string> tokens;
            const std::size_t n = rng.uniform(6, 10);
            for (std::size_t i = 0; i < n; ++i) {
                const std::string& term = common[rng.uniform(0, common.size() - 1)];
                const std::size_t tf = rng.uniform(1, 4);
                for (std::size_t r = 0; r < tf; ++r) tokens.push_back(term);
            }
            idx.add_terms(tokens);
            if (rng.chance(0.08)) idx.add_terms({rare[rng.uniform(0, rare.size() - 1)]}, 8.0f);
        }
        idx.finalize();
        return idx;
    }();
    return index;
}

// The pruning gate: the same top-3 query with Block-Max WAND on (timed)
// and off (once, for blocks_unpruned). CI gates the ratio
// blocks_decoded / blocks_unpruned, which reads 1.0 for a kernel that
// never prunes.
void BM_Bm25KernelPrunes(benchmark::State& state) {
    const text::InvertedIndex& index = skewed_index();
    const text::Bm25Scorer scorer(index);
    const std::vector<text::SegmentView> view{text::sealed_view(index, scorer)};
    const std::vector<std::string> query{"common0", "common1", "common2", "common3", "rare5"};
    text::QueryScratch& scratch = text::tls_query_scratch();
    text::KernelOptions opts;
    opts.top_k = 3;
    text::SegmentedStats stats;
    for (auto _ : state) {
        stats = {};
        auto hits = text::query_segments(view, index.doc_count(),
                                         text::sealed_terms(index, query), scratch, opts,
                                         &stats);
        benchmark::DoNotOptimize(hits);
    }
    text::KernelOptions unpruned = opts;
    unpruned.prune = false;
    text::SegmentedStats full;
    (void)text::query_segments(view, index.doc_count(), text::sealed_terms(index, query),
                               scratch, unpruned, &full);
    state.counters["postings_scanned"] = static_cast<double>(stats.kernel.postings_scanned);
    state.counters["blocks_decoded"] = static_cast<double>(stats.kernel.blocks_decoded);
    state.counters["blocks_skipped"] = static_cast<double>(stats.kernel.blocks_skipped);
    state.counters["blocks_unpruned"] = static_cast<double>(full.kernel.blocks_decoded);
}
BENCHMARK(BM_Bm25KernelPrunes);

// Engine-level free-text query at full demo scale.
void BM_RankerBm25(benchmark::State& state) {
    search::SearchEngine engine(cybok::bench::demo_corpus());
    for (auto _ : state) {
        auto hits = engine.query_text("linux kernel privilege escalation",
                                      search::VectorClass::Weakness);
        benchmark::DoNotOptimize(hits);
    }
}
BENCHMARK(BM_RankerBm25);

// Exact-CPE vs lexical vulnerability association (the second ablation).
void BM_VulnViaPlatformBinding(benchmark::State& state) {
    search::SearchEngine engine(cybok::bench::demo_corpus());
    kb::Platform p{kb::PlatformPart::OperatingSystem, "microsoft", "windows_7", ""};
    for (auto _ : state) {
        auto hits = engine.query_platform(p);
        benchmark::DoNotOptimize(hits);
    }
}
BENCHMARK(BM_VulnViaPlatformBinding);

void BM_VulnViaLexical(benchmark::State& state) {
    search::EngineOptions opts;
    opts.lexical_vulnerabilities = true;
    search::SearchEngine engine(cybok::bench::demo_corpus(), opts);
    for (auto _ : state) {
        auto hits = engine.query_text("Windows 7 release", search::VectorClass::Vulnerability);
        benchmark::DoNotOptimize(hits);
    }
}
BENCHMARK(BM_VulnViaLexical);

// Fault-injection overhead. Every CYBOK_FAULT_POINT is compiled in
// unconditionally, so the disabled cost — one relaxed atomic load plus a
// never-taken branch per crossing — must stay unmeasurable on hot paths.
// BM_FaultPointDisabled prices a single crossing directly (items/s =
// crossings/s); BM_AssocTaskFaultSites times the one query path that
// actually crosses sites (the cached association task: cache get, miss,
// recompute, cache put) with the injector disabled. Dividing the former
// into the latter bounds the end-to-end overhead; EXPERIMENTS.md records
// both from the JSON sidecar against the <2% acceptance bar.
void BM_FaultPointDisabled(benchmark::State& state) {
    for (auto _ : state) {
        for (int i = 0; i < 1024; ++i) {
            CYBOK_FAULT_POINT("bench.disabled.site", Error("never thrown"));
        }
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 1024);
}
BENCHMARK(BM_FaultPointDisabled);

void BM_AssocTaskFaultSites(benchmark::State& state) {
    const kb::Corpus& corpus = corpus_at_scale(static_cast<int>(state.range(0)));
    search::SearchEngine engine(corpus);
    search::AssocOptions opts;
    opts.threads = 1; // isolate per-task cost from fan-out scheduling
    search::Associator assoc(engine, opts);
    model::SystemModel one;
    const model::ComponentId id = one.add_component("bench", model::ComponentType::Controller);
    one.set_attribute(id, {"role", "scada controller modbus command injection",
                           model::AttributeKind::Descriptor, model::Fidelity::Logical, {}});
    for (auto _ : state) {
        auto map = assoc.associate(one);
        benchmark::DoNotOptimize(map);
    }
}
BENCHMARK(BM_AssocTaskFaultSites)->Arg(200)->Arg(1000);

} // namespace

CYBOK_BENCH_MAIN(preamble)
