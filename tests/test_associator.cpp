// Unit coverage for the parallel association engine's parts: the thread
// pool (every index exactly once, load imbalance, exception propagation),
// the query cache (hit/miss, component invalidation, FIFO eviction), and
// AssocMetrics accounting end to end (hit rates, stage timings, JSON).

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <vector>

#include "core/session.hpp"
#include "search/association.hpp"
#include "synth/corpus_gen.hpp"
#include "synth/scada.hpp"
#include "util/json.hpp"
#include "util/thread_pool.hpp"

using namespace cybok;

namespace {
const kb::Corpus& small_corpus() {
    static const kb::Corpus corpus =
        synth::generate_corpus(synth::CorpusProfile::scaled(0.05, 7));
    return corpus;
}
} // namespace

// ------------------------------------------------------------ ThreadPool

TEST(ThreadPool, EveryIndexRunsExactlyOnce) {
    util::ThreadPool pool(4);
    constexpr std::size_t kN = 10'000;
    std::vector<std::atomic<int>> counts(kN);
    pool.parallel_for(kN, [&](std::size_t i) { counts[i].fetch_add(1); });
    for (std::size_t i = 0; i < kN; ++i) ASSERT_EQ(counts[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, SingleThreadRunsInline) {
    util::ThreadPool pool(1);
    EXPECT_EQ(pool.thread_count(), 1u);
    std::vector<int> order;
    pool.parallel_for(5, [&](std::size_t i) { order.push_back(static_cast<int>(i)); });
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ThreadPool, UnevenWorkloadsComplete) {
    // One heavy item among many light ones — the chunked cursor must not
    // strand the tail behind the heavy chunk's owner.
    util::ThreadPool pool(4);
    std::atomic<std::size_t> sum{0};
    pool.parallel_for(257, [&](std::size_t i) {
        std::size_t spin = (i == 3) ? 20'000 : 1;
        std::size_t acc = 0;
        for (std::size_t k = 0; k < spin; ++k) acc += k;
        sum.fetch_add(1 + (acc & 0)); // count completions
    });
    EXPECT_EQ(sum.load(), 257u);
}

TEST(ThreadPool, FirstExceptionPropagates) {
    util::ThreadPool pool(4);
    std::atomic<std::size_t> ran{0};
    EXPECT_THROW(pool.parallel_for(100,
                                   [&](std::size_t i) {
                                       ran.fetch_add(1);
                                       if (i == 42) throw std::runtime_error("boom");
                                   }),
                 std::runtime_error);
    // The loop drains (remaining indices still run) before rethrowing.
    EXPECT_EQ(ran.load(), 100u);
    // The pool is reusable after an exception.
    std::atomic<std::size_t> again{0};
    pool.parallel_for(10, [&](std::size_t) { again.fetch_add(1); });
    EXPECT_EQ(again.load(), 10u);
}

TEST(ThreadPool, ZeroItemsIsANoop) {
    util::ThreadPool pool(2);
    pool.parallel_for(0, [&](std::size_t) { FAIL() << "must not run"; });
}

// ------------------------------------------------------------ QueryCache

namespace {
search::Match mk_match(std::size_t idx) {
    search::Match m;
    m.cls = search::VectorClass::Weakness;
    m.corpus_index = idx;
    m.id = "CWE-" + std::to_string(idx);
    return m;
}
} // namespace

TEST(QueryCache, HitReturnsStoredValue) {
    search::QueryCache cache;
    EXPECT_FALSE(cache.get("k1", "compA").has_value());
    cache.put("k1", {mk_match(7)}, "compA");
    auto hit = cache.get("k1", "compB");
    ASSERT_TRUE(hit.has_value());
    ASSERT_EQ(hit->size(), 1u);
    EXPECT_EQ((*hit)[0].corpus_index, 7u);
}

TEST(QueryCache, InvalidateComponentDropsOnlyItsKeys) {
    search::QueryCache cache;
    cache.put("shared", {mk_match(1)}, "compA");
    cache.put("a-only", {mk_match(2)}, "compA");
    cache.put("b-only", {mk_match(3)}, "compB");
    // compB also reads the shared key -> it is recorded against both.
    (void)cache.get("shared", "compB");

    EXPECT_EQ(cache.invalidate_component("compA"), 2u); // shared + a-only
    EXPECT_FALSE(cache.get("a-only", "x").has_value());
    EXPECT_FALSE(cache.get("shared", "x").has_value()); // shared is dropped too
    EXPECT_TRUE(cache.get("b-only", "x").has_value());  // untouched component survives
    EXPECT_EQ(cache.invalidate_component("compA"), 0u); // idempotent
}

TEST(QueryCache, FifoEvictionBoundsSize) {
    search::QueryCache cache(3);
    for (int i = 0; i < 10; ++i)
        cache.put("k" + std::to_string(i), {mk_match(static_cast<std::size_t>(i))}, "c");
    EXPECT_LE(cache.size(), 3u);
    EXPECT_TRUE(cache.get("k9", "c").has_value());  // newest survives
    EXPECT_FALSE(cache.get("k0", "c").has_value()); // oldest evicted
}

// ------------------------------------------------------------ Associator

TEST(Associator, CacheHitsOnRepeatedAttributesAndRuns) {
    search::SearchEngine engine(small_corpus());
    search::AssocOptions opts;
    opts.threads = 2;
    search::Associator assoc(engine, opts);

    model::SystemModel m = synth::centrifuge_model();
    (void)assoc.associate(m);
    search::AssocMetrics cold = assoc.metrics();
    EXPECT_GT(cold.queries_run, 0u);
    EXPECT_EQ(cold.cache_misses, cold.queries_run); // every miss ran a query

    (void)assoc.associate(m);
    search::AssocMetrics warm = assoc.metrics();
    // Second run over an unchanged model: zero new engine queries.
    EXPECT_EQ(warm.queries_run, cold.queries_run);
    EXPECT_GT(warm.cache_hits, cold.cache_hits);
    EXPECT_GT(warm.cache_hit_rate(), 0.0);
}

TEST(Associator, MetricsStageTimingsAccumulate) {
    search::SearchEngine engine(small_corpus());
    search::Associator assoc(engine, {});
    (void)assoc.associate(synth::centrifuge_model());
    search::AssocMetrics m = assoc.metrics();
    EXPECT_GT(m.timings.wall_ns, 0u);
    EXPECT_GT(m.timings.lexical_ns, 0u);
    EXPECT_GT(m.components, 0u);
    EXPECT_GT(m.attributes, 0u);
    EXPECT_GT(m.total_candidates(), 0u);
    EXPECT_FALSE(m.summary().empty());

    assoc.reset_metrics();
    EXPECT_EQ(assoc.metrics().queries_run, 0u);
}

TEST(Associator, MetricsJsonRoundTrips) {
    search::SearchEngine engine(small_corpus());
    search::Associator assoc(engine, {});
    (void)assoc.associate(synth::centrifuge_model());
    json::Value v = assoc.metrics().to_json();
    ASSERT_TRUE(v.is_object());
    EXPECT_EQ(static_cast<std::size_t>(v.at("queries_run").as_int()),
              assoc.metrics().queries_run);
    EXPECT_TRUE(v.at("timings").is_object());
    // Serialize + parse back: the bench JSON sidecar path.
    json::Value back = json::parse(json::dump(v));
    EXPECT_EQ(back.at("cache_misses").as_int(), v.at("cache_misses").as_int());
}

TEST(Associator, OptionsSignatureSeparatesEngines) {
    search::EngineOptions a;
    search::EngineOptions b;
    b.lexical_vulnerabilities = true;
    EXPECT_NE(a.signature(), b.signature());
    search::EngineOptions c;
    c.title_weight = 1.0f;
    EXPECT_NE(a.signature(), c.signature());
    EXPECT_EQ(a.signature(), search::EngineOptions{}.signature());
}

TEST(Associator, SessionSurfacesMetricsAndReportSection) {
    core::SessionOptions opts;
    opts.assoc.threads = 2;
    core::AnalysisSession session(synth::centrifuge_model(), small_corpus(), opts);
    (void)session.associations();
    search::AssocMetrics m = session.assoc_metrics();
    EXPECT_GT(m.queries_run, 0u);

    dashboard::Report report = session.report();
    const dashboard::Section* sec = report.find_section("Association engine");
    ASSERT_NE(sec, nullptr);
    EXPECT_FALSE(sec->lines.empty());
}

TEST(Associator, CommitInvalidatesOnlyRefinedComponent) {
    core::SessionOptions opts;
    core::AnalysisSession session(synth::centrifuge_model(), small_corpus(), opts);
    (void)session.associations();
    const std::size_t queries_before = session.assoc_metrics().queries_run;

    model::SystemModel candidate = session.model();
    model::ComponentId first = candidate.components().front().id;
    model::Attribute tweak;
    tweak.name = "note";
    tweak.value = "hardened supervisory role";
    candidate.set_attribute(first, tweak);
    session.commit(std::move(candidate));

    search::AssocMetrics m = session.assoc_metrics();
    // Only the touched component re-queried; the rest reused wholesale.
    EXPECT_GT(m.reused_components, 0u);
    EXPECT_GT(m.queries_run, queries_before);
    EXPECT_LT(m.queries_run - queries_before, m.attributes);
}
