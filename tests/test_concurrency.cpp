// Concurrent-read safety: the search engine and corpus are immutable
// after construction, so N threads must be able to associate different
// models simultaneously and get byte-identical results to the serial run.
// (The dashboard's interactive loop relies on this: the GUI thread
// re-queries while a background thread renders the previous result.)
//
// The parallel pipeline half of this file hammers search::Associator —
// its own fan-out threads, the shared query cache, and many client
// threads on one instance — and asserts byte-identical output against
// the sequential reference, cache on and off.
//
// For data-race coverage beyond what assertions can see, build the tsan
// preset and run this binary under it:
//   cmake --preset tsan && cmake --build --preset tsan -j
//   build/tsan/tests/cybok_tests --gtest_filter='Concurrency.*'

#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <thread>

#include "oracle/association_reference.hpp"
#include "search/association.hpp"
#include "synth/corpus_gen.hpp"
#include "synth/model_gen.hpp"
#include "synth/scada.hpp"

using namespace cybok;

namespace {
const kb::Corpus& shared_corpus() {
    static const kb::Corpus corpus =
        synth::generate_corpus(synth::CorpusProfile::scaled(0.1, 99));
    return corpus;
}

/// Deterministic full serialization of an association map — component
/// order, attribute order, match order, exact (hexfloat) scores and all
/// evidence. Two maps with equal fingerprints are byte-identical results.
std::string fingerprint(const search::AssociationMap& map) {
    std::ostringstream out;
    out << std::hexfloat;
    for (const search::ComponentAssociation& c : map.components) {
        out << "C " << c.component << '\n';
        for (const search::AttributeAssociation& a : c.attributes) {
            out << " A " << a.attribute_name << '=' << a.attribute_value << '\n';
            for (const search::Match& m : a.matches) {
                out << "  M " << static_cast<int>(m.cls) << ' ' << m.corpus_index << ' '
                    << m.id << ' ' << m.score << ' ' << static_cast<int>(m.via) << ' '
                    << m.severity;
                for (const std::string& e : m.evidence) out << ' ' << e;
                out << '\n';
            }
        }
    }
    return out.str();
}
} // namespace

TEST(Concurrency, ParallelQueriesMatchSerialResults) {
    search::SearchEngine engine(shared_corpus());

    // Serial reference results.
    model::SystemModel scada = synth::centrifuge_model();
    model::SystemModel uav = synth::uav_model();
    const std::size_t scada_total = oracle::associate(scada, engine).total();
    const std::size_t uav_total = oracle::associate(uav, engine).total();

    constexpr int kThreads = 8;
    constexpr int kRounds = 4;
    std::atomic<int> mismatches{0};
    std::vector<std::thread> workers;
    workers.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        workers.emplace_back([&, t] {
            for (int round = 0; round < kRounds; ++round) {
                const bool use_scada = (t + round) % 2 == 0;
                model::SystemModel m =
                    use_scada ? synth::centrifuge_model() : synth::uav_model();
                std::size_t total = oracle::associate(m, engine).total();
                std::size_t expected = use_scada ? scada_total : uav_total;
                if (total != expected) mismatches.fetch_add(1);
            }
        });
    }
    for (std::thread& w : workers) w.join();
    EXPECT_EQ(mismatches.load(), 0);
}

TEST(Concurrency, ParallelPipelineByteIdenticalToSequential) {
    search::SearchEngine engine(shared_corpus());
    model::SystemModel scada = synth::centrifuge_model();
    const std::string reference = fingerprint(oracle::associate(scada, engine));

    for (bool cache_on : {false, true}) {
        for (std::size_t threads : {std::size_t{1}, std::size_t{4}, std::size_t{8}}) {
            search::AssocOptions opts;
            opts.threads = threads;
            opts.cache_enabled = cache_on;
            search::Associator assoc(engine, opts);
            // Twice: the second run exercises the warm-cache replay path.
            EXPECT_EQ(fingerprint(assoc.associate(scada)), reference)
                << "threads=" << threads << " cache=" << cache_on;
            EXPECT_EQ(fingerprint(assoc.associate(scada)), reference)
                << "threads=" << threads << " cache=" << cache_on << " (warm)";
            if (cache_on) {
                search::AssocMetrics m = assoc.metrics();
                EXPECT_GT(m.cache_hits, 0u); // repeated attributes + second run
            }
        }
    }
}

TEST(Concurrency, ManyThreadsHammerOneSharedAssociator) {
    // The hard case: one Associator instance (one pool, one cache, one
    // metrics block) driven by many client threads at once, mixing two
    // models so cache keys interleave. At threads = 1 (the fleet's mode)
    // the pool has no workers and the callers run inline, concurrently; at
    // 4 they serialize on the pool. Every result must be byte-identical to
    // the sequential reference.
    search::SearchEngine engine(shared_corpus());
    model::SystemModel scada = synth::centrifuge_model();
    model::SystemModel uav = synth::uav_model();
    const std::string scada_ref = fingerprint(oracle::associate(scada, engine));
    const std::string uav_ref = fingerprint(oracle::associate(uav, engine));

    for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        search::AssocOptions opts;
        opts.threads = threads;
        search::Associator assoc(engine, opts);

        constexpr int kThreads = 8;
        constexpr int kRounds = 3;
        std::atomic<int> mismatches{0};
        std::vector<std::thread> workers;
        workers.reserve(kThreads);
        for (int t = 0; t < kThreads; ++t) {
            workers.emplace_back([&, t] {
                for (int round = 0; round < kRounds; ++round) {
                    const bool use_scada = (t + round) % 2 == 0;
                    const model::SystemModel& m = use_scada ? scada : uav;
                    const std::string& expected = use_scada ? scada_ref : uav_ref;
                    if (fingerprint(assoc.associate(m)) != expected) mismatches.fetch_add(1);
                }
            });
        }
        for (std::thread& w : workers) w.join();
        EXPECT_EQ(mismatches.load(), 0);
        search::AssocMetrics m = assoc.metrics();
        EXPECT_GT(m.cache_hits, 0u);
        // Parameter attributes skip the cache by design, so traffic is a
        // subset of attributes visited.
        EXPECT_GE(m.attributes, m.cache_hits + m.cache_misses);
    }
}

TEST(Concurrency, ParallelReassociateMatchesFullAssociate) {
    search::SearchEngine engine(shared_corpus());
    model::SystemModel before = synth::centrifuge_model();
    model::SystemModel after = synth::centrifuge_model_hardened();
    const std::string full_ref = fingerprint(oracle::associate(after, engine));

    for (bool cache_on : {false, true}) {
        search::AssocOptions opts;
        opts.threads = 4;
        opts.cache_enabled = cache_on;
        search::Associator assoc(engine, opts);
        search::AssociationMap before_map = assoc.associate(before);
        model::ModelDiff d = model::diff(before, after);
        search::AssociationMap incremental = assoc.reassociate(before_map, d, after);
        EXPECT_EQ(fingerprint(incremental), full_ref) << "cache=" << cache_on;
        if (cache_on) {
            EXPECT_GT(assoc.metrics().cache_invalidations, 0u);
        }
    }
}

TEST(Concurrency, KernelScratchArenasAreThreadLocal) {
    // The scoring kernel reuses a per-thread scratch arena
    // (text::tls_query_scratch) across queries. Hammer one engine's
    // lexical path from many raw threads — under tsan this proves the
    // arenas never alias; under any build it proves results equal the
    // single-threaded run. The Associator's pool threads take exactly
    // this path, so this is the arena half of its zero-allocation
    // steady-state contract.
    search::SearchEngine engine(shared_corpus());
    const std::vector<std::string> queries = {
        "linux kernel privilege escalation", "scada controller modbus command injection",
        "buffer overflow firmware update",   "windows registry weak permissions",
    };
    std::vector<std::vector<search::Match>> expected;
    for (const std::string& q : queries)
        expected.push_back(engine.query_text(q, search::VectorClass::Weakness));

    std::atomic<int> mismatches{0};
    std::vector<std::thread> workers;
    for (int t = 0; t < 8; ++t) {
        workers.emplace_back([&, t] {
            for (int round = 0; round < 16; ++round) {
                const std::size_t qi = static_cast<std::size_t>(t + round) % queries.size();
                auto hits = engine.query_text(queries[qi], search::VectorClass::Weakness);
                const auto& want = expected[qi];
                bool ok = hits.size() == want.size();
                for (std::size_t i = 0; ok && i < hits.size(); ++i)
                    ok = hits[i].id == want[i].id && hits[i].score == want[i].score &&
                         hits[i].evidence == want[i].evidence;
                if (!ok) mismatches.fetch_add(1);
            }
        });
    }
    for (std::thread& w : workers) w.join();
    EXPECT_EQ(mismatches.load(), 0);
}

TEST(Concurrency, ParallelEnginesOverOneCorpus) {
    // Several engines (different options) built concurrently over the same
    // corpus — construction only reads the corpus.
    std::atomic<int> failures{0};
    std::vector<std::thread> workers;
    for (int t = 0; t < 4; ++t) {
        workers.emplace_back([&, t] {
            search::EngineOptions opts;
            opts.title_weight = t % 2 == 0 ? 3.0f : 1.0f;
            try {
                search::SearchEngine engine(shared_corpus(), opts);
                auto hits = engine.query_text("linux kernel escalation",
                                              search::VectorClass::Weakness);
                if (hits.empty()) failures.fetch_add(1);
            } catch (...) {
                failures.fetch_add(1);
            }
        });
    }
    for (std::thread& w : workers) w.join();
    EXPECT_EQ(failures.load(), 0);
}
