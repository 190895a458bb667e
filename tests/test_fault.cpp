// The fault-injection subsystem: injector semantics (triggers, seeds,
// determinism, thread safety) and — the acceptance criterion — one test
// per registered fault site that forces it to fire and asserts the
// documented typed-error recovery. The recovery assertions are
// differential where it matters: a fault-armed run must produce an
// association map byte-identical to the fault-free baseline.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <set>
#include <sstream>
#include <thread>

#include "analysis/fleet.hpp"
#include "core/session.hpp"
#include "kb/serialize.hpp"
#include "kb/delta.hpp"
#include "kb/snapshot.hpp"
#include "search/association.hpp"
#include "search/engine.hpp"
#include "search/generation.hpp"
#include "serve/registry.hpp"
#include "synth/corpus_gen.hpp"
#include "synth/model_gen.hpp"
#include "util/bytes.hpp"
#include "util/fault.hpp"
#include "util/json.hpp"
#include "util/xml.hpp"

using namespace cybok;

namespace {

const kb::Corpus& small_corpus() {
    static const kb::Corpus corpus =
        synth::generate_corpus(synth::CorpusProfile::scaled(0.05, 42));
    return corpus;
}

model::SystemModel small_model() {
    synth::ModelGenConfig cfg;
    cfg.seed = 17;
    cfg.components = 20;
    return synth::generate_model(cfg);
}

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

std::string temp_path(const char* name) {
    std::string p = testing::TempDir() + name;
    std::remove(p.c_str());
    return p;
}

/// Temp files util::write_file left next to `path` (a failed write must
/// leave none).
std::size_t leftover_temp_files(const std::string& path) {
    const std::filesystem::path target(path);
    const std::string prefix = target.filename().string() + ".tmp.";
    std::size_t n = 0;
    for (const auto& entry : std::filesystem::directory_iterator(target.parent_path()))
        if (entry.path().filename().string().rfind(prefix, 0) == 0) ++n;
    return n;
}

/// The fault-free association baseline for (small_corpus, small_model).
const std::string& baseline_fingerprint() {
    static const std::string fp = [] {
        search::SearchEngine engine(small_corpus(), {});
        search::AssocOptions opts;
        opts.threads = 4;
        search::Associator assoc(engine, opts);
        return fingerprint(assoc.associate(small_model()));
    }();
    return fp;
}

std::size_t non_parameter_attributes(const model::SystemModel& m) {
    std::size_t n = 0;
    for (const model::Component& c : m.components()) {
        if (!c.id.valid()) continue;
        for (const model::Attribute& a : c.attributes)
            if (a.kind != model::AttributeKind::Parameter) ++n;
    }
    return n;
}

} // namespace

// ---------------------------------------------------------------- injector

TEST(FaultInjector, BaselineComputesWithNoFaultsArmed) {
    // Materialize the shared differential baseline while the injector is
    // provably disarmed, so later fault-armed tests compare against a
    // clean run regardless of test ordering.
    ASSERT_FALSE(util::fault_enabled());
    EXPECT_FALSE(baseline_fingerprint().empty());
}

TEST(FaultInjector, DisabledByDefaultAndAfterReset) {
    EXPECT_FALSE(util::fault_enabled());
    {
        util::FaultScope scope("kb.snapshot.open");
        EXPECT_TRUE(util::fault_enabled());
    }
    EXPECT_FALSE(util::fault_enabled());
    // Unarmed sites never fire even while another site is armed.
    util::FaultScope scope("kb.snapshot.open");
    EXPECT_FALSE(util::FaultInjector::instance().on_hit("some.other.site"));
}

TEST(FaultInjector, AlwaysTriggerFiresEveryHit) {
    util::FaultScope scope("x.site");
    auto& inj = util::FaultInjector::instance();
    for (int i = 0; i < 5; ++i) EXPECT_TRUE(inj.on_hit("x.site"));
    const std::vector<util::FaultSiteReport> report = inj.report();
    ASSERT_EQ(report.size(), 1u);
    EXPECT_EQ(report[0].site, "x.site");
    EXPECT_EQ(report[0].hits, 5u);
    EXPECT_EQ(report[0].fires, 5u);
}

TEST(FaultInjector, NthTriggerFiresExactlyOnce) {
    util::FaultScope scope("x.site=nth:3");
    auto& inj = util::FaultInjector::instance();
    EXPECT_FALSE(inj.on_hit("x.site"));
    EXPECT_FALSE(inj.on_hit("x.site"));
    EXPECT_TRUE(inj.on_hit("x.site"));
    EXPECT_FALSE(inj.on_hit("x.site"));
    EXPECT_EQ(inj.report()[0].fires, 1u);
}

TEST(FaultInjector, ProbabilityIsDeterministicUnderSeed) {
    auto fired_indices = [](std::uint64_t seed) {
        util::FaultScope scope("p.site=p:0.5");
        auto& inj = util::FaultInjector::instance();
        inj.set_seed(seed);
        std::set<int> fired;
        for (int i = 0; i < 256; ++i)
            if (inj.on_hit("p.site")) fired.insert(i);
        return fired;
    };
    const std::set<int> a = fired_indices(7);
    const std::set<int> b = fired_indices(7);
    const std::set<int> c = fired_indices(8);
    EXPECT_EQ(a, b);
    EXPECT_NE(a, c); // 256 coin flips agreeing across seeds: ~2^-256
    // p=0.5 over 256 hits: expect a plausible fraction, not all-or-nothing.
    EXPECT_GT(a.size(), 64u);
    EXPECT_LT(a.size(), 192u);
}

TEST(FaultInjector, ProbabilityExtremesAreExact) {
    util::FaultScope scope("never=p:0;always=p:1");
    auto& inj = util::FaultInjector::instance();
    for (int i = 0; i < 64; ++i) {
        EXPECT_FALSE(inj.on_hit("never"));
        EXPECT_TRUE(inj.on_hit("always"));
    }
}

TEST(FaultInjector, SpecGrammarParses) {
    util::FaultScope scope("seed=99;a.site;b.site=nth:4;c.site=p:0.25");
    auto& inj = util::FaultInjector::instance();
    EXPECT_EQ(inj.seed(), 99u);
    const std::vector<util::FaultSiteReport> report = inj.report();
    ASSERT_EQ(report.size(), 3u); // sorted by site name
    EXPECT_EQ(report[0].site, "a.site");
    EXPECT_EQ(report[0].trigger.kind, util::FaultTrigger::Kind::Always);
    EXPECT_EQ(report[1].site, "b.site");
    EXPECT_EQ(report[1].trigger.kind, util::FaultTrigger::Kind::Nth);
    EXPECT_EQ(report[1].trigger.nth, 4u);
    EXPECT_EQ(report[2].site, "c.site");
    EXPECT_EQ(report[2].trigger.kind, util::FaultTrigger::Kind::Probability);
    EXPECT_DOUBLE_EQ(report[2].trigger.probability, 0.25);
}

TEST(FaultInjector, MalformedSpecsThrowTyped) {
    auto& inj = util::FaultInjector::instance();
    EXPECT_THROW(inj.arm_spec("a.site=nth:0"), ValidationError);
    EXPECT_THROW(inj.arm_spec("a.site=p:1.5"), ValidationError);
    EXPECT_THROW(inj.arm_spec("a.site=p:x"), ValidationError);
    EXPECT_THROW(inj.arm_spec("a.site=sometimes"), ValidationError);
    EXPECT_THROW(inj.arm_spec("seed=abc"), ValidationError);
    EXPECT_THROW(inj.arm_spec("=always"), ValidationError);
    inj.reset();
}

TEST(FaultInjector, KnownSiteTableIsWellFormed) {
    const std::vector<util::FaultSiteInfo>& sites = util::known_fault_sites();
    EXPECT_EQ(sites.size(), 27u);
    std::set<std::string_view> names;
    for (const util::FaultSiteInfo& s : sites) {
        EXPECT_FALSE(s.site.empty());
        EXPECT_FALSE(s.throws_type.empty());
        EXPECT_FALSE(s.degradation.empty());
        EXPECT_TRUE(names.insert(s.site).second) << "duplicate site " << s.site;
    }
}

TEST(FaultInjectorConcurrency, NthFiresExactlyOnceAcrossThreads) {
    util::FaultScope scope("x.site=nth:50");
    auto& inj = util::FaultInjector::instance();
    std::atomic<int> fires{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < 8; ++t)
        threads.emplace_back([&] {
            for (int i = 0; i < 100; ++i)
                if (inj.on_hit("x.site")) ++fires;
        });
    for (std::thread& t : threads) t.join();
    EXPECT_EQ(fires.load(), 1);
    EXPECT_EQ(inj.report()[0].hits, 800u);
}

// ------------------------------------------------------------- IO sites

TEST(FaultSites, ReadFileOpenThrowsTypedIoError) {
    const std::string path = temp_path("fault_read.txt");
    util::write_file(path, "payload");
    {
        util::FaultScope scope("util.bytes.read_file.open");
        try {
            (void)util::read_file(path);
            FAIL() << "expected IoError";
        } catch (const IoError& e) {
            EXPECT_NE(std::string(e.what()).find("injected"), std::string::npos);
        }
    }
    EXPECT_EQ(util::read_file(path), "payload"); // recovery: disarmed read works
}

TEST(FaultSites, ReadFileReadThrowsTypedIoError) {
    const std::string path = temp_path("fault_read2.txt");
    util::write_file(path, "payload");
    util::FaultScope scope("util.bytes.read_file.read");
    EXPECT_THROW((void)util::read_file(path), IoError);
}

TEST(FaultSites, WriteFileOpenThrowsTypedIoError) {
    const std::string path = temp_path("fault_write.txt");
    util::FaultScope scope("util.bytes.write_file.open");
    EXPECT_THROW(util::write_file(path, "data"), IoError);
}

TEST(FaultSites, WriteFileShortWriteKeepsPreviousFile) {
    const std::string path = temp_path("fault_write2.txt");
    util::write_file(path, "previous");
    {
        util::FaultScope scope("util.bytes.write_file.write");
        EXPECT_THROW(util::write_file(path, "0123456789"), IoError);
    }
    // The torn bytes went to a temp file that was discarded; the path
    // still holds the previous file, whole.
    EXPECT_EQ(util::read_file(path), "previous");
    EXPECT_EQ(leftover_temp_files(path), 0u);
}

TEST(FaultSites, FailedSnapshotWriteKeepsPreviousSnapshot) {
    const std::string path = temp_path("fault_trunc.snap");
    const search::SearchEngine first(small_corpus(), {});
    search::save_engine_snapshot(first, path);
    const kb::Corpus other = synth::generate_corpus(synth::CorpusProfile::scaled(0.05, 43));
    const search::SearchEngine second(other, {});
    {
        util::FaultScope scope("util.bytes.write_file.write");
        EXPECT_THROW(search::save_engine_snapshot(second, path), IoError);
    }
    // Degradation contract: the failed write never reached the path, so
    // the first snapshot still loads, byte for byte.
    const search::EngineSnapshot loaded = search::load_engine_snapshot(path);
    EXPECT_EQ(search::freeze_engine(*loaded.engine), search::freeze_engine(first));
    EXPECT_EQ(leftover_temp_files(path), 0u);
}

// ----------------------------------------------------------- parse sites

TEST(FaultSites, JsonParseThrowsTypedParseError) {
    util::FaultScope scope("util.json.parse");
    try {
        (void)json::parse("{}");
        FAIL() << "expected ParseError";
    } catch (const ParseError& e) {
        EXPECT_NE(std::string(e.what()).find("injected"), std::string::npos);
    }
}

TEST(FaultSites, XmlParseThrowsTypedParseError) {
    util::FaultScope scope("util.xml.parse");
    EXPECT_THROW((void)xml::parse("<a/>"), ParseError);
}

TEST(FaultSites, SerializeRecordStrictModePropagates) {
    const json::Value doc = kb::to_json(small_corpus());
    util::FaultScope scope("kb.serialize.record=nth:1");
    EXPECT_THROW((void)kb::corpus_from_json(doc), ValidationError);
}

TEST(FaultSites, SerializeRecordLenientModeSkipsWithDiagnostic) {
    const json::Value doc = kb::to_json(small_corpus());
    const std::size_t total = small_corpus().patterns().size() +
                              small_corpus().weaknesses().size() +
                              small_corpus().vulnerabilities().size();
    util::FaultScope scope("kb.serialize.record=nth:3");
    std::vector<kb::RecordDiagnostic> diags;
    const kb::Corpus corpus = kb::corpus_from_json(doc, &diags);
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].section, "attack_patterns");
    EXPECT_EQ(diags[0].index, 2u);
    EXPECT_NE(diags[0].error.find("injected"), std::string::npos);
    EXPECT_EQ(corpus.patterns().size() + corpus.weaknesses().size() +
                  corpus.vulnerabilities().size(),
              total - 1);
    EXPECT_TRUE(corpus.indexed());
}

// -------------------------------------------------------- snapshot sites

TEST(FaultSites, SnapshotOpenRejectionFallsBackToFreshBuild) {
    const std::string path = temp_path("fault_open.snap");
    core::SessionOptions opts;
    opts.snapshot_path = path;
    { core::AnalysisSession warm(small_model(), small_corpus(), opts); } // writes cache
    util::FaultScope scope("kb.snapshot.open");
    core::AnalysisSession session(small_model(), small_corpus(), opts);
    EXPECT_FALSE(session.from_snapshot());
    EXPECT_EQ(session.cold_start_degrade().snapshot_fallbacks, 1u);
    EXPECT_NE(session.cold_start_degrade().last_reason.find("injected"), std::string::npos);
    // Differential oracle: the degraded session's associations match the
    // fault-free baseline bit for bit.
    EXPECT_EQ(fingerprint(session.associations()), baseline_fingerprint());
}

TEST(FaultSites, SnapshotMapFailureFallsBackToOwningThaw) {
    const std::string path = temp_path("fault_map.snap");
    core::SessionOptions opts;
    opts.snapshot_path = path;
    { core::AnalysisSession warm(small_model(), small_corpus(), opts); } // writes cache
    util::FaultScope scope("snapshot.map");
    // Direct load: mmap refused -> owning-buffer thaw, reason recorded,
    // engine fully functional.
    search::EngineSnapshot snap = search::load_engine_snapshot(path);
    EXPECT_FALSE(snap.zero_copy());
    EXPECT_FALSE(snap.slab_backing.empty());
    EXPECT_NE(snap.mmap_fallback_reason.find("injected"), std::string::npos);
    // Session path: still thaws (no rebuild), degradation surfaced once
    // as an mmap fallback, and results match the fault-free baseline.
    core::AnalysisSession session(small_model(), small_corpus(), opts);
    EXPECT_TRUE(session.from_snapshot());
    EXPECT_EQ(session.cold_start_degrade().mmap_fallbacks, 1u);
    EXPECT_EQ(session.cold_start_degrade().snapshot_fallbacks, 0u);
    EXPECT_NE(session.cold_start_degrade().last_reason.find("injected"), std::string::npos);
    EXPECT_EQ(fingerprint(session.associations()), baseline_fingerprint());
}

TEST(FaultSites, SnapshotSealFailureAbandonsSaveOnly) {
    const std::string path = temp_path("fault_seal.snap");
    core::SessionOptions opts;
    opts.snapshot_path = path;
    util::FaultScope scope("kb.snapshot.seal");
    core::AnalysisSession session(small_model(), small_corpus(), opts);
    EXPECT_EQ(session.cold_start_degrade().snapshot_save_failures, 1u);
    EXPECT_THROW((void)util::read_file(path), IoError); // nothing written
    EXPECT_EQ(fingerprint(session.associations()), baseline_fingerprint());
}

TEST(FaultSites, SnapshotErrorCarriesPathAndOffset) {
    const std::string path = temp_path("fault_offsets.snap");
    search::SearchEngine engine(small_corpus(), {});
    search::save_engine_snapshot(engine, path);
    std::string blob = util::read_file(path);
    const std::size_t at = kb::kSnapshotHeaderSize + 10; // corrupt one payload byte
    blob[at] = static_cast<char>(blob[at] ^ 0x40);
    util::write_file(path, blob);
    try {
        (void)search::load_engine_snapshot(path);
        FAIL() << "expected SnapshotError";
    } catch (const kb::SnapshotError& e) {
        EXPECT_EQ(e.path(), path);
        EXPECT_EQ(e.offset(), 8u + 4 + 8 + 8); // eager checksum field offset
        const std::string what = e.what();
        EXPECT_NE(what.find(path), std::string::npos);
        EXPECT_NE(what.find("byte"), std::string::npos);
    }
}

TEST(FaultSites, SnapshotErrorOffsetForTruncatedPayload) {
    search::SearchEngine engine(small_corpus(), {});
    const std::string blob = search::freeze_engine(engine);
    try {
        (void)search::thaw_engine(std::string_view(blob).substr(0, blob.size() - 7));
        FAIL() << "expected SnapshotError";
    } catch (const kb::SnapshotError& e) {
        EXPECT_EQ(e.offset(), blob.size() - 7); // truncation point
        EXPECT_NE(std::string(e.what()).find("<memory>"), std::string::npos);
    }
}

// ----------------------------------------------------------- build sites

TEST(FaultSites, ShardFailureFallsBackToSequentialBuildBitIdentical) {
    search::EngineOptions opts;
    opts.build_threads = 4;
    search::EngineOptions seq_opts;
    seq_opts.build_threads = 1;
    const search::SearchEngine reference(small_corpus(), seq_opts);

    util::FaultScope scope("search.build.shard=nth:1");
    const search::SearchEngine degraded(small_corpus(), opts);
    EXPECT_TRUE(degraded.build_metrics().parallel_fallback);
    // Differential oracle: the fallback engine is byte-identical to the
    // sequential reference — frozen blobs compare equal.
    EXPECT_EQ(search::freeze_engine(degraded), search::freeze_engine(reference));
}

// ----------------------------------------------------------- cache sites

TEST(FaultSites, CacheGetFailureDegradesToRecompute) {
    search::SearchEngine engine(small_corpus(), {});
    search::AssocOptions opts;
    opts.threads = 4;
    search::Associator assoc(engine, opts);
    util::FaultScope scope("search.cache.get");
    const search::AssociationMap map = assoc.associate(small_model());
    EXPECT_EQ(fingerprint(map), baseline_fingerprint());
    const search::AssocMetrics m = assoc.metrics();
    EXPECT_EQ(m.cache_hits, 0u); // every get failed -> every task a miss
    EXPECT_GT(m.degrade.cache_recoveries, 0u);
    EXPECT_NE(m.degrade.last_reason.find("injected"), std::string::npos);
}

TEST(FaultSites, CachePutFailureDegradesToUncached) {
    search::SearchEngine engine(small_corpus(), {});
    search::AssocOptions opts;
    opts.threads = 4;
    search::Associator assoc(engine, opts);
    util::FaultScope scope("search.cache.put");
    const search::AssociationMap map = assoc.associate(small_model());
    EXPECT_EQ(fingerprint(map), baseline_fingerprint());
    const search::AssocMetrics m = assoc.metrics();
    EXPECT_EQ(m.cache_hits, 0u); // nothing was ever cached
    EXPECT_EQ(m.cache_misses, non_parameter_attributes(small_model()));
    EXPECT_GT(m.degrade.cache_recoveries, 0u);
}

TEST(FaultSites, RecomputeTransientFailureRetriesOnce) {
    search::SearchEngine engine(small_corpus(), {});
    search::AssocOptions opts;
    opts.threads = 4;
    search::Associator assoc(engine, opts);
    util::FaultScope scope("search.assoc.recompute=nth:1");
    const search::AssociationMap map = assoc.associate(small_model());
    EXPECT_EQ(fingerprint(map), baseline_fingerprint());
    EXPECT_EQ(assoc.metrics().degrade.recompute_retries, 1u);
}

TEST(FaultSites, RecomputePersistentFailurePropagatesTyped) {
    search::SearchEngine engine(small_corpus(), {});
    search::Associator assoc(engine, {});
    util::FaultScope scope("search.assoc.recompute");
    EXPECT_THROW((void)assoc.associate(small_model()), Error);
}

// ------------------------------------------------------ cold-start sites

TEST(FaultSites, ColdStartLoadFaultRecordsFallbackReason) {
    const std::string path = temp_path("fault_cold_load.snap");
    core::SessionOptions opts;
    opts.snapshot_path = path;
    { core::AnalysisSession warm(small_model(), small_corpus(), opts); }
    util::FaultScope scope("session.cold_start.load");
    core::AnalysisSession session(small_model(), small_corpus(), opts);
    EXPECT_FALSE(session.from_snapshot());
    const search::AssocMetrics m = session.assoc_metrics();
    EXPECT_EQ(m.degrade.snapshot_fallbacks, 1u);
    EXPECT_NE(m.degrade.last_reason.find("injected"), std::string::npos);
    EXPECT_EQ(fingerprint(session.associations()), baseline_fingerprint());
}

TEST(FaultSites, ColdStartSaveFaultRecordsFailure) {
    const std::string path = temp_path("fault_cold_save.snap");
    core::SessionOptions opts;
    opts.snapshot_path = path;
    util::FaultScope scope("session.cold_start.save");
    core::AnalysisSession session(small_model(), small_corpus(), opts);
    EXPECT_EQ(session.assoc_metrics().degrade.snapshot_save_failures, 1u);
    EXPECT_THROW((void)util::read_file(path), IoError); // no file written
    EXPECT_EQ(fingerprint(session.associations()), baseline_fingerprint());
}

TEST(FaultSites, StaleSnapshotFallbackIsRecordedNotSilent) {
    // Satellite check without injection: a *stale* snapshot (different
    // engine signature) must surface through metrics too.
    const std::string path = temp_path("fault_stale.snap");
    core::SessionOptions opts;
    opts.snapshot_path = path;
    { core::AnalysisSession warm(small_model(), small_corpus(), opts); }
    core::SessionOptions changed = opts;
    changed.engine.title_weight += 1.0f;
    core::AnalysisSession session(small_model(), small_corpus(), changed);
    EXPECT_FALSE(session.from_snapshot());
    EXPECT_EQ(session.cold_start_degrade().snapshot_fallbacks, 1u);
    EXPECT_NE(session.cold_start_degrade().last_reason.find("stale"), std::string::npos);
}

// --------------------------------------------- delta + compaction sites

TEST(FaultSites, DeltaApplyFaultIsTransactional) {
    kb::Corpus corpus = small_corpus();
    const std::string before = json::dump(kb::to_json(corpus));
    kb::CorpusDelta delta;
    delta.weaknesses.push_back(corpus.weaknesses().front());
    delta.weaknesses.back().description += " amended";
    {
        util::FaultScope scope("kb.delta.apply");
        EXPECT_THROW(kb::apply_corpus_delta(corpus, delta), ValidationError);
        // Validate-before-mutate: the corpus is byte-identical.
        EXPECT_EQ(json::dump(kb::to_json(corpus)), before);
    }
    EXPECT_EQ(kb::apply_corpus_delta(corpus, delta).weaknesses.modified, 1u);
}

TEST(FaultSites, DeltaSegmentBuildFaultPublishesNothing) {
    const kb::Corpus& corpus = small_corpus();
    const search::SearchEngine base(corpus, {});
    kb::CorpusDelta delta;
    delta.weaknesses.push_back(corpus.weaknesses().front());
    delta.weaknesses.back().description += " amended";
    {
        util::FaultScope scope("search.delta.segment");
        EXPECT_THROW(search::SegmentedEngine(base, delta), Error);
    }
    // Apply-is-a-constructor: a failed apply leaves no partial engine, and
    // the same delta applies cleanly once the fault is disarmed.
    const search::SegmentedEngine seg(base, delta);
    EXPECT_EQ(seg.segment_count(), 1u);
    EXPECT_EQ(seg.apply_metrics().report.weaknesses.modified, 1u);
}

TEST(FaultSites, CompactionFoldFaultKeepsOldGenerationAuthoritative) {
    const std::shared_ptr<const core::SharedEngine> g0 =
        core::make_shared_engine(small_corpus(), core::SessionOptions{});
    kb::CorpusDelta delta;
    delta.weaknesses.push_back(small_corpus().weaknesses().front());
    delta.weaknesses.back().description += " amended";
    serve::SessionRegistry registry(core::apply_corpus_delta(g0, delta),
                                    small_model(), serve::RegistryOptions{});
    const std::uint64_t gen_before = registry.current()->id;
    {
        util::FaultScope scope("serve.compact.fold");
        try {
            (void)registry.compact();
            FAIL() << "expected ProtocolError";
        } catch (const serve::ProtocolError& e) {
            EXPECT_EQ(static_cast<int>(e.code()),
                      static_cast<int>(serve::ErrorCode::CompactFailed));
        }
    }
    // The segmented generation keeps serving; the failure is counted, not
    // silent.
    EXPECT_EQ(registry.current()->id, gen_before);
    EXPECT_EQ(registry.stats().compaction_failures, 1u);
    EXPECT_EQ(registry.stats().current_segments, 1u);
    EXPECT_EQ(registry.aggregate_metrics().degrade.compaction_failures, 1u);

    // Disarmed: the fold succeeds and flips to a plain base generation.
    EXPECT_GT(registry.compact(), gen_before);
    EXPECT_EQ(registry.stats().compactions, 1u);
    EXPECT_EQ(registry.stats().current_segments, 0u);
}

// ------------------------------------------------- cache + faults, racing

TEST(FaultConcurrency, EvictionUnderInjectedFailuresKeepsCountersConsistent) {
    // Tiny capacity forces constant eviction; probabilistic get/put faults
    // exercise every degradation path while 4 lanes race. The invariant:
    // every non-parameter attribute resolves to exactly one hit or miss,
    // and the result is still byte-identical to the baseline.
    search::SearchEngine engine(small_corpus(), {});
    search::AssocOptions opts;
    opts.threads = 4;
    opts.cache_capacity = 4;
    search::Associator assoc(engine, opts);
    util::FaultScope scope("seed=11;search.cache.get=p:0.3;search.cache.put=p:0.3");
    const model::SystemModel m = small_model();
    const std::size_t tasks = non_parameter_attributes(m);
    for (int run = 0; run < 3; ++run)
        EXPECT_EQ(fingerprint(assoc.associate(m)), baseline_fingerprint());
    const search::AssocMetrics metrics = assoc.metrics();
    EXPECT_EQ(metrics.cache_hits + metrics.cache_misses, 3 * tasks);
}

TEST(FaultConcurrency, QueryCacheHammerWithInjectedFaults) {
    search::QueryCache cache(8);
    util::FaultScope scope("seed=3;search.cache.get=p:0.2;search.cache.put=p:0.2");
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t)
        threads.emplace_back([&cache, t] {
            for (int i = 0; i < 200; ++i) {
                const std::string key = "k" + std::to_string(i % 32);
                const std::string component = "c" + std::to_string(t % 2);
                try {
                    cache.put(key, {}, component);
                } catch (const Error&) {
                }
                try {
                    (void)cache.get(key, component);
                } catch (const Error&) {
                }
                if (i % 64 == 0) (void)cache.invalidate_component(component);
            }
        });
    for (std::thread& t : threads) t.join();
    EXPECT_LE(cache.size(), 8u);
}

// ------------------------------------------------------ zoo / fleet sites

TEST(FaultSites, ZooGenThrowsTypedValidationError) {
    synth::ZooConfig config;
    config.domain = synth::ZooDomain::Grid;
    config.seed = 5;
    config.components = 20;
    {
        util::FaultScope scope("synth.zoo.gen");
        try {
            (void)synth::generate_zoo_system(config);
            FAIL() << "expected ValidationError";
        } catch (const ValidationError& e) {
            const std::string what = e.what();
            EXPECT_NE(what.find("injected"), std::string::npos);
            EXPECT_NE(what.find("zoo-grid-s5-n20"), std::string::npos);
        }
    }
    // Recovery: disarmed generation succeeds with the same config.
    EXPECT_EQ(synth::generate_zoo_system(config).model.component_count(), 20u);
}

TEST(FaultSites, FleetTaskFailureDegradesToRecordedSystem) {
    search::SearchEngine engine(small_corpus(), {});
    analysis::FleetOptions options;
    options.systems = 4;
    options.components = 15;
    options.threads = 2;
    {
        // nth:2 — exactly one of the four per-system tasks absorbs the fault.
        util::FaultScope scope("analysis.fleet.task=nth:2");
        const analysis::FleetResult result = analysis::analyze_fleet(engine, options);
        ASSERT_EQ(result.ranking.size(), 4u);
        EXPECT_EQ(result.failed, 1u);
        const analysis::FleetSystemReport& last = result.ranking.back();
        EXPECT_TRUE(last.failed); // failed systems rank last
        EXPECT_FALSE(last.name.empty());
        EXPECT_NE(last.error.find("injected"), std::string::npos);
        EXPECT_NE(last.error.find(last.name), std::string::npos);
    }
    // Recovery: the disarmed rerun has no failures.
    EXPECT_EQ(analysis::analyze_fleet(engine, options).failed, 0u);
}

TEST(FaultSites, FleetSharedCacheQueriesEachDistinctKeyOnce) {
    // queries_run reports distinct keys, not executed queries. Count the
    // executed ones at the recompute site, armed on a hit it never reaches:
    // on one lane each miss is a key's first sight, so a fleet whose cache
    // serves repeats runs exactly one query per distinct attribute key.
    search::SearchEngine engine(small_corpus(), {});
    std::vector<synth::ZooSystem> fleet;
    std::set<std::string> keys;
    std::size_t queried = 0; // attributes that go through the cache
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        synth::ZooConfig config;
        config.domain = synth::all_zoo_domains()[seed % 4];
        config.seed = seed;
        config.components = 15;
        fleet.push_back(synth::generate_zoo_system(config));
        for (const model::Component& c : fleet.back().model.components()) {
            if (!c.id.valid()) continue;
            for (const model::Attribute& a : c.attributes) {
                if (a.kind == model::AttributeKind::Parameter) continue;
                ++queried;
                std::string key = std::to_string(static_cast<int>(a.kind));
                for (const std::string& t : search::QueryEngine::attribute_tokens(a))
                    key += '\x1e' + t;
                if (a.kind == model::AttributeKind::PlatformRef && a.platform.has_value())
                    key += '\x1f' + a.platform->uri();
                keys.insert(std::move(key));
            }
        }
    }
    ASSERT_LT(keys.size(), queried); // the fleet repeats keys

    analysis::FleetOptions options;
    options.threads = 1;
    util::FaultScope probe("search.assoc.recompute=nth:1000000000");
    const analysis::FleetResult result = analysis::analyze_fleet(engine, fleet, options);
    const std::vector<util::FaultSiteReport> report = util::FaultInjector::instance().report();
    ASSERT_EQ(report.size(), 1u);
    EXPECT_EQ(report[0].fires, 0u);
    EXPECT_EQ(report[0].hits, keys.size());
    EXPECT_EQ(result.metrics.queries_run, keys.size());
    EXPECT_EQ(result.failed, 0u);
}
