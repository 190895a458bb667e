// Binary engine snapshots: freeze/thaw round trips, framing rejection,
// and the determinism contract of the parallel sharded build.
//
// The strongest assertions here compare frozen blobs byte for byte:
// freeze() serializes every posting, IDF entry, norm, and scorer table,
// so blob equality proves two engines are bit-identical — the same
// mechanism verifies both "thaw reproduces the frozen engine" and
// "parallel build reproduces the sequential reference".

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>

#include "core/session.hpp"
#include "kb/snapshot.hpp"
#include "oracle/association_reference.hpp"
#include "search/association.hpp"
#include "search/engine.hpp"
#include "synth/corpus_gen.hpp"
#include "synth/scada.hpp"
#include "util/bytes.hpp"

using namespace cybok;

namespace {

const kb::Corpus& shared_corpus() {
    static const kb::Corpus corpus =
        synth::generate_corpus(synth::CorpusProfile::scaled(0.1, 99));
    return corpus;
}

/// Deterministic full serialization of an association map (hexfloat
/// scores): equal fingerprints mean byte-identical results.
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

} // namespace

// ---------------------------------------------------------------- byte IO

TEST(Bytes, PrimitivesRoundTripLittleEndian) {
    util::ByteWriter w;
    w.u8(0xAB);
    w.u32(0xDEADBEEFu);
    w.u64(0x0123456789ABCDEFull);
    w.f32(3.5f);
    w.f64(-0.125);
    w.str("snapshot");
    w.str(""); // empty strings must round-trip too

    const std::string bytes = std::move(w).take();
    // Spot-check the wire form: u32 after the leading byte, little-endian.
    ASSERT_GE(bytes.size(), 5u);
    EXPECT_EQ(static_cast<unsigned char>(bytes[1]), 0xEF);
    EXPECT_EQ(static_cast<unsigned char>(bytes[4]), 0xDE);

    util::ByteReader r(bytes);
    EXPECT_EQ(r.u8(), 0xAB);
    EXPECT_EQ(r.u32(), 0xDEADBEEFu);
    EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
    EXPECT_EQ(r.f32(), 3.5f);
    EXPECT_EQ(r.f64(), -0.125);
    EXPECT_EQ(r.str(), "snapshot");
    EXPECT_EQ(r.str(), "");
    EXPECT_TRUE(r.done());
}

TEST(Bytes, ReaderRejectsExhaustedInput) {
    util::ByteWriter w;
    w.u32(7);
    const std::string bytes = std::move(w).take();
    util::ByteReader r(bytes);
    (void)r.u32();
    EXPECT_THROW((void)r.u8(), ParseError);
    // A length prefix pointing past the end must throw, not over-read.
    util::ByteWriter lying;
    lying.u32(1000); // claims 1000 string bytes, provides none
    const std::string lie = std::move(lying).take();
    util::ByteReader r2(lie);
    EXPECT_THROW((void)r2.str(), ParseError);
}

TEST(Bytes, Fnv1a64MatchesReferenceVectors) {
    // Published FNV-1a test vectors.
    EXPECT_EQ(util::fnv1a64(""), 0xcbf29ce484222325ull);
    EXPECT_EQ(util::fnv1a64("a"), 0xaf63dc4c8601ec8cull);
    EXPECT_EQ(util::fnv1a64("foobar"), 0x85944171f73967e8ull);
}

// ---------------------------------------------------------------- framing

TEST(SnapshotFraming, SealOpenRoundTrip) {
    const std::string eager = "the eager payload bytes";
    const std::string slabs(130, '\x5a');
    const std::string blob = kb::seal_snapshot(eager, slabs);
    const kb::SnapshotSections sections = kb::open_snapshot(blob);
    EXPECT_EQ(sections.eager, eager);
    EXPECT_EQ(sections.slabs, slabs);
    // The slab section sits at a 64-byte-aligned file offset so an mmap'd
    // blob (page-aligned base) can be viewed in place by the slab tables.
    const auto slab_off = static_cast<std::size_t>(sections.slabs.data() - blob.data());
    EXPECT_EQ(slab_off, kb::snapshot_slab_offset(eager.size()));
    EXPECT_EQ(slab_off % 64, 0u);

    // Empty sections round-trip too.
    const std::string tiny = kb::seal_snapshot("", "");
    const kb::SnapshotSections none = kb::open_snapshot(tiny);
    EXPECT_TRUE(none.eager.empty());
    EXPECT_TRUE(none.slabs.empty());
    EXPECT_EQ(tiny.size(), kb::kSnapshotHeaderSize);
}

TEST(SnapshotFraming, RejectsBadMagic) {
    std::string blob = kb::seal_snapshot("payload", "slabs");
    blob[0] = 'X';
    EXPECT_THROW((void)kb::open_snapshot(blob), kb::SnapshotError);
    // Arbitrary non-snapshot files must be rejected up front, too.
    EXPECT_THROW((void)kb::open_snapshot("{\"json\": true}"), kb::SnapshotError);
    EXPECT_THROW((void)kb::open_snapshot(""), kb::SnapshotError);
}

TEST(SnapshotFraming, RejectsVersionMismatch) {
    std::string blob = kb::seal_snapshot("payload", "slabs");
    blob[8] = static_cast<char>(kb::kSnapshotVersion + 1); // version u32 LSB
    try {
        (void)kb::open_snapshot(blob);
        FAIL() << "expected SnapshotError";
    } catch (const kb::SnapshotError& e) {
        EXPECT_NE(std::string(e.what()).find("version mismatch"), std::string::npos);
    }
}

TEST(SnapshotFraming, RejectsTruncationAtEveryBoundary) {
    const std::string blob =
        kb::seal_snapshot("a longer payload for truncation", "slab bytes here");
    // Every proper prefix must be rejected (header cuts read as bad magic
    // or truncation; section cuts as truncation — never accepted).
    for (std::size_t len :
         {std::size_t{0}, std::size_t{4}, std::size_t{8}, std::size_t{12}, std::size_t{27},
          std::size_t{63}, std::size_t{70}, blob.size() - 1}) {
        EXPECT_THROW((void)kb::open_snapshot(blob.substr(0, len)), kb::SnapshotError)
            << "prefix length " << len;
    }
}

TEST(SnapshotFraming, RejectsTrailingBytes) {
    std::string blob = kb::seal_snapshot("payload", "slabs");
    blob += "junk";
    try {
        (void)kb::open_snapshot(blob);
        FAIL() << "expected SnapshotError";
    } catch (const kb::SnapshotError& e) {
        EXPECT_NE(std::string(e.what()).find("trailing"), std::string::npos);
    }
}

TEST(SnapshotFraming, RejectsChecksumMismatch) {
    std::string blob = kb::seal_snapshot("payload to corrupt", "slab section");
    blob[kb::kSnapshotHeaderSize + 2] ^= 0x40; // flip one eager-section bit
    try {
        (void)kb::open_snapshot(blob);
        FAIL() << "expected SnapshotError";
    } catch (const kb::SnapshotError& e) {
        EXPECT_NE(std::string(e.what()).find("checksum"), std::string::npos);
    }
}

TEST(SnapshotFraming, SlabChecksumIsOptionalForMappedOpens) {
    const std::string good = kb::seal_snapshot("eager bytes", "slab section");
    std::string slab_corrupt = good;
    slab_corrupt[slab_corrupt.size() - 1] ^= 0x01; // flip one slab-section bit
    // The verifying open (owning path) catches it...
    try {
        (void)kb::open_snapshot(slab_corrupt);
        FAIL() << "expected SnapshotError";
    } catch (const kb::SnapshotError& e) {
        EXPECT_NE(std::string(e.what()).find("slab checksum"), std::string::npos);
    }
    // ...while the mmap path skips the slab hash (it would fault in the
    // whole file) and relies on structural + per-block validation instead.
    const kb::SnapshotSections lax = kb::open_snapshot(slab_corrupt, {}, false);
    EXPECT_EQ(lax.eager, "eager bytes");
    // Eager corruption is always fatal, verified or not.
    std::string eager_corrupt = good;
    eager_corrupt[kb::kSnapshotHeaderSize] ^= 0x01;
    EXPECT_THROW((void)kb::open_snapshot(eager_corrupt, {}, false), kb::SnapshotError);
}

// ----------------------------------------------------------------- corpus

TEST(SnapshotCorpus, RoundTripPreservesRecordsAndDerivedIndexes) {
    const kb::Corpus& original = shared_corpus();
    util::ByteWriter w;
    kb::freeze_corpus(w, original);
    const std::string payload = std::move(w).take(); // reader borrows, so keep it alive
    util::ByteReader r(payload);
    const kb::Corpus thawed = kb::thaw_corpus(r);
    EXPECT_TRUE(r.done());
    EXPECT_TRUE(thawed.indexed());

    const kb::Corpus::Stats a = original.stats();
    const kb::Corpus::Stats b = thawed.stats();
    EXPECT_EQ(a.patterns, b.patterns);
    EXPECT_EQ(a.weaknesses, b.weaknesses);
    EXPECT_EQ(a.vulnerabilities, b.vulnerabilities);
    EXPECT_EQ(a.platform_bindings, b.platform_bindings);
    EXPECT_EQ(a.pattern_weakness_links, b.pattern_weakness_links);
    EXPECT_EQ(a.vulnerability_weakness_links, b.vulnerability_weakness_links);

    // Field-level spot checks across all three classes.
    ASSERT_FALSE(original.patterns().empty());
    const kb::AttackPattern& p = original.patterns().front();
    const kb::AttackPattern& tp = thawed.patterns().front();
    EXPECT_EQ(p.id.value, tp.id.value);
    EXPECT_EQ(p.name, tp.name);
    EXPECT_EQ(p.summary, tp.summary);
    EXPECT_EQ(p.prerequisites, tp.prerequisites);
    EXPECT_EQ(p.likelihood, tp.likelihood);

    ASSERT_FALSE(original.weaknesses().empty());
    const kb::Weakness& wk = original.weaknesses().front();
    const kb::Weakness& twk = thawed.weaknesses().front();
    EXPECT_EQ(wk.id.value, twk.id.value);
    EXPECT_EQ(wk.description, twk.description);
    EXPECT_EQ(wk.applicable_platforms, twk.applicable_platforms);

    ASSERT_FALSE(original.vulnerabilities().empty());
    const kb::Vulnerability& v = original.vulnerabilities().front();
    const kb::Vulnerability& tv = thawed.vulnerabilities().front();
    EXPECT_EQ(v.id.year, tv.id.year);
    EXPECT_EQ(v.id.number, tv.id.number);
    EXPECT_EQ(v.cvss_vector, tv.cvss_vector);
    ASSERT_EQ(v.platforms.size(), tv.platforms.size());
    for (std::size_t i = 0; i < v.platforms.size(); ++i)
        EXPECT_EQ(v.platforms[i].uri(), tv.platforms[i].uri());

    // Derived platform index (rebuilt by reindex inside thaw_corpus).
    for (const kb::Platform& plat : original.known_platforms()) {
        const auto want = original.vulnerabilities_for(plat);
        const auto got = thawed.vulnerabilities_for(plat);
        ASSERT_EQ(want.size(), got.size()) << plat.uri();
        for (std::size_t i = 0; i < want.size(); ++i)
            EXPECT_EQ(want[i].to_string(), got[i].to_string());
    }
}

// ----------------------------------------------------------------- engine

TEST(SnapshotEngine, ThawedEngineIsBitIdentical) {
    search::SearchEngine fresh(shared_corpus());
    const std::string blob = freeze_engine(fresh);

    search::EngineSnapshot snap = search::thaw_engine(blob);
    ASSERT_NE(snap.corpus, nullptr);
    ASSERT_NE(snap.engine, nullptr);
    EXPECT_TRUE(snap.engine->build_metrics().from_snapshot);
    EXPECT_EQ(snap.engine->options().signature(), fresh.options().signature());

    // Re-freezing the thawed engine must reproduce the blob byte for byte
    // — postings, IDF tables, norms, vocabulary, scorer tables, all of it.
    EXPECT_EQ(freeze_engine(*snap.engine), blob);
}

TEST(SnapshotEngine, ThawedEngineAnswersQueriesIdentically) {
    search::EngineOptions opts;
    opts.lexical_vulnerabilities = true; // exercise the third lexical index
    search::SearchEngine fresh(shared_corpus(), opts);
    search::EngineSnapshot snap = search::thaw_engine(freeze_engine(fresh));

    const char* queries[] = {"linux kernel privilege escalation",
                             "scada controller modbus command injection",
                             "buffer overflow firmware update"};
    for (const char* q : queries) {
        for (search::VectorClass cls :
             {search::VectorClass::AttackPattern, search::VectorClass::Weakness,
              search::VectorClass::Vulnerability}) {
            const auto want = fresh.query_text(q, cls);
            const auto got = snap.engine->query_text(q, cls);
            ASSERT_EQ(want.size(), got.size()) << q;
            for (std::size_t i = 0; i < want.size(); ++i) {
                EXPECT_EQ(want[i].id, got[i].id);
                EXPECT_EQ(want[i].score, got[i].score); // exact, not approximate
                EXPECT_EQ(want[i].evidence, got[i].evidence);
                EXPECT_EQ(want[i].severity, got[i].severity);
            }
        }
    }

    // Platform-binding path over the thawed corpus's rebuilt indexes.
    for (const kb::Platform& plat : shared_corpus().known_platforms()) {
        const auto want = fresh.query_platform(plat);
        const auto got = snap.engine->query_platform(plat);
        ASSERT_EQ(want.size(), got.size()) << plat.uri();
        for (std::size_t i = 0; i < want.size(); ++i) EXPECT_EQ(want[i].id, got[i].id);
    }

    // Whole-model association equality (all three record classes at once).
    model::SystemModel scada = synth::centrifuge_model();
    EXPECT_EQ(fingerprint(oracle::associate(scada, *snap.engine)),
              fingerprint(oracle::associate(scada, fresh)));
}

TEST(SnapshotEngine, RejectsCorruptEngineBlobs) {
    search::SearchEngine fresh(shared_corpus());
    const std::string blob = freeze_engine(fresh);

    // Truncations inside the payload die in the frame check (size field).
    EXPECT_THROW((void)search::thaw_engine(std::string_view(blob).substr(0, blob.size() / 2)),
                 kb::SnapshotError);
    // Payload bit flips die on the checksum, never in the record codec.
    std::string corrupt = blob;
    corrupt[corrupt.size() / 2] ^= 0x01;
    EXPECT_THROW((void)search::thaw_engine(corrupt), kb::SnapshotError);
}

// ------------------------------------------------------------- mmap thaw

TEST(SnapshotMmap, LoadServesSlabsStraightFromTheMapping) {
    const std::string path = temp_path("mmap_snapshot.bin");
    search::SearchEngine fresh(shared_corpus());
    search::save_engine_snapshot(fresh, path);

    search::EngineSnapshot snap = search::load_engine_snapshot(path);
    ASSERT_TRUE(snap.zero_copy());
    EXPECT_TRUE(snap.mmap_fallback_reason.empty());
    EXPECT_TRUE(snap.slab_backing.empty()); // no owned slab copy was made

    // Every big table — postings and scorer slabs of every class index —
    // must point into the file mapping, not into private memory.
    for (search::VectorClass cls :
         {search::VectorClass::AttackPattern, search::VectorClass::Weakness,
          search::VectorClass::Vulnerability}) {
        const text::InvertedIndex& idx = snap.engine->class_index(cls);
        EXPECT_FALSE(idx.store().owning());
        EXPECT_TRUE(snap.mapping->contains(idx.store().term_bytes().data()));
        EXPECT_TRUE(snap.mapping->contains(idx.store().block_bytes().data()));
        EXPECT_TRUE(snap.mapping->contains(idx.store().data_bytes().data()));
    }
    EXPECT_TRUE(snap.engine->index_stats().mapped);

    // And the mapped engine answers bit-identically to the fresh build.
    const auto want = fresh.query_text("modbus command injection",
                                       search::VectorClass::Weakness);
    const auto got =
        snap.engine->query_text("modbus command injection", search::VectorClass::Weakness);
    ASSERT_EQ(want.size(), got.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(want[i].id, got[i].id);
        EXPECT_EQ(want[i].score, got[i].score);
    }
    // Re-freezing the mapped engine reproduces the file byte for byte.
    EXPECT_EQ(search::freeze_engine(*snap.engine), util::read_file(path));

    std::remove(path.c_str());
}

TEST(SnapshotMmap, SessionsShareOneMappingAndHotSwapKeepsItAlive) {
    const std::string path = temp_path("mmap_shared.bin");
    search::SearchEngine fresh(shared_corpus());
    search::save_engine_snapshot(fresh, path);

    core::SessionOptions opts;
    opts.snapshot_path = path;
    std::shared_ptr<const core::SharedEngine> handle =
        core::make_shared_engine(shared_corpus(), opts);
    ASSERT_NE(handle->mapping, nullptr);
    EXPECT_EQ(handle->cold_start.mmap_fallbacks, 0u);

    // N sessions over the handle: same engine object, same mapping, zero
    // per-session copies of the index.
    core::AnalysisSession a(synth::centrifuge_model(), handle);
    core::AnalysisSession b(synth::centrifuge_model(), handle);
    EXPECT_EQ(&a.engine(), &b.engine());
    EXPECT_TRUE(handle->mapping->contains(a.engine_handle()
                                              ->engine->class_index(search::VectorClass::Weakness)
                                              .store()
                                              .data_bytes()
                                              .data()));
    EXPECT_GT(a.associations().total(), 0u);

    // Hot swap: delete the file, drop our handle reference — the pinned
    // sessions' shared_ptr keeps the mapping (and the deleted file's
    // pages) alive, so in-flight analysis is undisturbed.
    std::remove(path.c_str());
    const std::weak_ptr<const core::SharedEngine> watch = handle;
    handle.reset();
    EXPECT_FALSE(watch.expired()); // sessions still hold it
    EXPECT_GT(b.associations().total(), 0u);
}

TEST(SnapshotMmap, RewritingTheMappedPathLeavesTheMappingIntact) {
    // A server maps its snapshot; then another run over a corpus of another
    // shape finds the file stale and rewrites it. The rewrite must not
    // reach the live mapping: truncating the mapped file in place would
    // make the next query die of SIGBUS.
    const std::string path = temp_path("mmap_rewrite.bin");
    core::SessionOptions opts;
    opts.snapshot_path = path;
    (void)core::make_shared_engine(shared_corpus(), opts); // cold build writes the file
    const std::shared_ptr<const core::SharedEngine> mapped =
        core::make_shared_engine(shared_corpus(), opts);
    ASSERT_NE(mapped->mapping, nullptr);
    const std::size_t mapped_size = util::read_file(path).size();

    const kb::Corpus other = synth::generate_corpus(synth::CorpusProfile::scaled(0.05, 3));
    const std::shared_ptr<const core::SharedEngine> rewriter =
        core::make_shared_engine(other, opts);
    EXPECT_EQ(rewriter->cold_start.snapshot_fallbacks, 1u); // stale: rebuilt and rewrote
    const std::string rewritten = util::read_file(path);
    ASSERT_EQ(rewritten, search::freeze_engine(*rewriter->engine));
    EXPECT_LT(rewritten.size(), mapped_size);

    const search::SearchEngine fresh(shared_corpus());
    model::SystemModel scada = synth::centrifuge_model();
    EXPECT_EQ(fingerprint(oracle::associate(scada, *mapped->engine)),
              fingerprint(oracle::associate(scada, fresh)));

    std::remove(path.c_str());
}

TEST(SnapshotMmap, MappedAndOwningThawsAgreeExactly) {
    const std::string path = temp_path("mmap_vs_owning.bin");
    search::SearchEngine fresh(shared_corpus());
    search::save_engine_snapshot(fresh, path);

    search::EngineSnapshot mapped = search::load_engine_snapshot(path);
    ASSERT_TRUE(mapped.zero_copy());
    search::EngineSnapshot owning = search::thaw_engine(util::read_file(path), path);
    EXPECT_FALSE(owning.zero_copy());
    EXPECT_FALSE(owning.slab_backing.empty());

    EXPECT_EQ(search::freeze_engine(*mapped.engine), search::freeze_engine(*owning.engine));
    model::SystemModel scada = synth::centrifuge_model();
    EXPECT_EQ(fingerprint(oracle::associate(scada, *mapped.engine)),
              fingerprint(oracle::associate(scada, *owning.engine)));

    std::remove(path.c_str());
}

// ---------------------------------------------------- parallel determinism

TEST(SnapshotDeterminism, ParallelBuildBitIdenticalToSequential) {
    // The tentpole contract: shard-parallel construction must produce the
    // same engine as the fused sequential loop, bit for bit. Frozen blobs
    // cover postings order, interning order, IDF/norm tables, and scorer
    // tables, so blob equality is the whole claim. Explicit thread counts
    // force real worker threads even on single-core CI runners.
    search::EngineOptions seq_opts;
    seq_opts.build_threads = 1;
    search::SearchEngine sequential(shared_corpus(), seq_opts);
    const std::string reference = freeze_engine(sequential);

    for (std::size_t threads : {std::size_t{0}, std::size_t{2}, std::size_t{5}}) {
        search::EngineOptions par_opts;
        par_opts.build_threads = threads;
        search::SearchEngine parallel(shared_corpus(), par_opts);
        EXPECT_EQ(freeze_engine(parallel), reference) << "build_threads=" << threads;
    }

    // Same contract when the build shares an external pool.
    util::ThreadPool pool(4);
    search::SearchEngine pooled(shared_corpus(), search::EngineOptions{}, &pool);
    EXPECT_EQ(freeze_engine(pooled), reference);
}

TEST(SnapshotDeterminism, BuildMetricsRecordTheShape) {
    search::EngineOptions opts;
    opts.build_threads = 3;
    search::SearchEngine engine(shared_corpus(), opts);
    const search::BuildMetrics& m = engine.build_metrics();
    EXPECT_FALSE(m.from_snapshot);
    EXPECT_EQ(m.threads, 3u);
    EXPECT_EQ(m.docs, shared_corpus().patterns().size() +
                          shared_corpus().weaknesses().size() +
                          shared_corpus().vulnerabilities().size());
    EXPECT_GT(m.wall_ns, 0u);
    EXPECT_GT(m.tokenize_ns, 0u); // two-phase build separates the costs
    EXPECT_GT(m.index_ns, 0u);

    // The associator surfaces the engine's build in its metrics.
    search::Associator assoc(engine, search::AssocOptions{});
    EXPECT_EQ(assoc.metrics().build.threads, 3u);
    EXPECT_GT(assoc.metrics().build.wall_ns, 0u);
}

// ---------------------------------------------------------------- session

TEST(SnapshotSession, ColdStartWritesThenThaws) {
    const std::string path = temp_path("session_snapshot.bin");
    model::SystemModel scada = synth::centrifuge_model();

    core::SessionOptions opts;
    opts.snapshot_path = path;

    // First start: no file yet — build fresh, write the snapshot.
    core::AnalysisSession first(scada, shared_corpus(), opts);
    EXPECT_FALSE(first.from_snapshot());
    const std::string ref = fingerprint(first.associations());
    EXPECT_FALSE(util::read_file(path).empty()); // snapshot was written

    // Second start: thaw — and produce byte-identical associations.
    core::AnalysisSession second(synth::centrifuge_model(), shared_corpus(), opts);
    EXPECT_TRUE(second.from_snapshot());
    EXPECT_TRUE(second.corpus().indexed());
    EXPECT_EQ(fingerprint(second.associations()), ref);
    EXPECT_TRUE(second.assoc_metrics().build.from_snapshot);

    std::remove(path.c_str());
}

TEST(SnapshotSession, StaleSnapshotTriggersRebuild) {
    const std::string path = temp_path("session_snapshot_stale.bin");
    core::SessionOptions default_opts;
    default_opts.snapshot_path = path;
    core::AnalysisSession writer(synth::centrifuge_model(), shared_corpus(), default_opts);
    EXPECT_FALSE(writer.from_snapshot());

    // Different engine options: the signature guard must reject the file
    // and rebuild (then rewrite it under the new options).
    core::SessionOptions other_opts;
    other_opts.snapshot_path = path;
    other_opts.engine.title_weight = 1.0f;
    core::AnalysisSession rebuilt(synth::centrifuge_model(), shared_corpus(), other_opts);
    EXPECT_FALSE(rebuilt.from_snapshot());

    // The rewrite is effective: a third session under the new options thaws.
    core::AnalysisSession thawed(synth::centrifuge_model(), shared_corpus(), other_opts);
    EXPECT_TRUE(thawed.from_snapshot());

    std::remove(path.c_str());
}

TEST(SnapshotSession, CorruptSnapshotFallsBackToFreshBuild) {
    const std::string path = temp_path("session_snapshot_corrupt.bin");
    util::write_file(path, "CYBOKSNP this is not a valid snapshot body");

    core::SessionOptions opts;
    opts.snapshot_path = path;
    core::AnalysisSession session(synth::centrifuge_model(), shared_corpus(), opts);
    EXPECT_FALSE(session.from_snapshot()); // fell back, no throw
    EXPECT_GT(session.associations().total(), 0u);

    // And the corrupt file was replaced by a valid one.
    core::AnalysisSession next(synth::centrifuge_model(), shared_corpus(), opts);
    EXPECT_TRUE(next.from_snapshot());

    std::remove(path.c_str());
}

TEST(SnapshotSession, PreviousFormatVersionIsRebuilt) {
    // A v2 file (ranker tag + TF-IDF tables) left by an older build: the
    // version check rejects it at cold start, the session rebuilds and
    // records the fallback, and the rewritten file thaws next time.
    const std::string path = temp_path("session_snapshot_v2.bin");
    std::string blob = search::freeze_engine(search::SearchEngine(shared_corpus()));
    ASSERT_EQ(kb::kSnapshotVersion, 3u);
    blob[8] = 2; // version u32 LSB
    util::write_file(path, blob);

    core::SessionOptions opts;
    opts.snapshot_path = path;
    core::AnalysisSession session(synth::centrifuge_model(), shared_corpus(), opts);
    EXPECT_FALSE(session.from_snapshot());
    EXPECT_EQ(session.cold_start_degrade().snapshot_fallbacks, 1u);
    EXPECT_NE(session.cold_start_degrade().last_reason.find("version"), std::string::npos)
        << session.cold_start_degrade().last_reason;

    core::AnalysisSession next(synth::centrifuge_model(), shared_corpus(), opts);
    EXPECT_TRUE(next.from_snapshot());

    std::remove(path.c_str());
}

TEST(SnapshotSession, CorpusShapeGuardRejectsMismatchedCorpus) {
    const std::string path = temp_path("session_snapshot_shape.bin");
    core::SessionOptions opts;
    opts.snapshot_path = path;
    core::AnalysisSession writer(synth::centrifuge_model(), shared_corpus(), opts);
    EXPECT_FALSE(writer.from_snapshot());

    // A different corpus (different scale) must not adopt the snapshot.
    const kb::Corpus other = synth::generate_corpus(synth::CorpusProfile::scaled(0.05, 3));
    core::AnalysisSession mismatched(synth::centrifuge_model(), other, opts);
    EXPECT_FALSE(mismatched.from_snapshot());

    std::remove(path.c_str());
}
