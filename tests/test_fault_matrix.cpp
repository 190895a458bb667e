// The differential oracle harness, swept across seeds and fault matrices
// (ctest label: soak). Three oracles from the fault-injection design:
//
//   (a) kernel vs reference scorer — text::query_segments over a sealed
//       index must reproduce the reference scorer in tests/oracle hit for
//       hit under every gate configuration,
//   (b) parallel vs sequential build — the frozen engine blob must be
//       byte-identical whether the sharded build succeeded or a fault
//       forced the sequential fallback, and the blob must survive a
//       freeze -> thaw -> freeze round trip unchanged,
//   (c) fault-armed session vs fault-free baseline — with an aggressive
//       probabilistic fault matrix armed over snapshot IO, cache access,
//       and recompute, the association map must stay byte-identical to
//       the clean run (degradation is transparent, never lossy),
//   (d) serve request conservation — with probabilistic faults armed over
//       the server's decode/open/swap sites, every pipelined request gets
//       exactly one response (ok or typed error, each id exactly once);
//       with the connection-killing sites armed, every request resolves
//       as a response or a connection teardown, never silence — and the
//       server survives to answer a clean probe after disarm.
//
// Each seed replays a *different* reproducible fault surface (the
// probability trigger is a pure function of seed, site, and hit index),
// so the sweep explores many distinct failure interleavings.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/session.hpp"
#include "flow/flow.hpp"
#include "kb/delta.hpp"
#include "safety/hazards.hpp"
#include "kb/serialize.hpp"
#include "oracle/bm25_reference.hpp"
#include "search/association.hpp"
#include "search/engine.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "synth/corpus_gen.hpp"
#include "synth/model_gen.hpp"
#include "text/index.hpp"
#include "text/scratch.hpp"
#include "text/tokenize.hpp"
#include "util/bytes.hpp"
#include "util/fault.hpp"
#include "util/rng.hpp"

using namespace cybok;

namespace {

const kb::Corpus& soak_corpus() {
    static const kb::Corpus corpus =
        synth::generate_corpus(synth::CorpusProfile::scaled(0.05, 42));
    return corpus;
}

model::SystemModel soak_model() {
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

std::string temp_path(const std::string& name) {
    std::string p = testing::TempDir() + name;
    std::remove(p.c_str());
    return p;
}

const std::string& baseline_fingerprint() {
    static const std::string fp = [] {
        search::SearchEngine engine(soak_corpus(), {});
        search::AssocOptions opts;
        opts.threads = 4;
        search::Associator assoc(engine, opts);
        return fingerprint(assoc.associate(soak_model()));
    }();
    return fp;
}

/// The sequential-reference frozen blob every build variant must equal.
const std::string& reference_blob() {
    static const std::string blob = [] {
        search::EngineOptions opts;
        opts.build_threads = 1;
        const search::SearchEngine engine(soak_corpus(), opts);
        return search::freeze_engine(engine);
    }();
    return blob;
}

// --- oracle (a) helpers --------------------------------------------------

text::InvertedIndex weakness_index(const kb::Corpus& corpus) {
    text::InvertedIndex index;
    for (const kb::Weakness& w : corpus.weaknesses()) {
        index.add_document();
        index.add_terms(text::analyze(w.name), 3.0f);
        index.add_terms(text::analyze(w.description));
        for (const std::string& c : w.consequences) index.add_terms(text::analyze(c));
        for (const std::string& ap : w.applicable_platforms)
            index.add_terms(text::analyze(ap));
    }
    index.finalize();
    return index;
}

} // namespace

/// One instantiation per fault seed; 16 seeds in the sweep.
class FaultMatrixSoak : public ::testing::TestWithParam<int> {};

// --------------------------------------------------- (a) kernel oracle

TEST_P(FaultMatrixSoak, KernelMatchesReferenceScorer) {
    static const text::InvertedIndex index = weakness_index(soak_corpus());
    const text::Bm25Scorer scorer(index);
    text::QueryScratch scratch;

    Rng rng(static_cast<std::uint64_t>(1000 + GetParam()));
    const text::KernelOptions configs[] = {
        {0, 0.0, true}, {0, 2.0, true}, {5, 2.0, true}, {1, 0.0, false},
    };
    for (int q = 0; q < 20; ++q) {
        std::vector<std::string> tokens;
        const std::size_t len = rng.uniform(1, 9);
        for (std::size_t i = 0; i < len; ++i) {
            const auto t = static_cast<text::TermId>(rng.uniform(0, index.term_count() - 1));
            tokens.push_back(index.vocabulary().term(t));
        }
        const std::vector<text::Hit> raw = oracle::bm25_query(index, scorer, tokens);
        for (const text::KernelOptions& opts : configs) {
            const std::vector<text::Hit> kernel =
                oracle::sealed_kernel(index, scorer, tokens, scratch, opts);
            const std::vector<text::Hit> ref = oracle::reference_hits(raw, index, opts);
            ASSERT_EQ(kernel.size(), ref.size());
            for (std::size_t i = 0; i < kernel.size(); ++i) {
                EXPECT_EQ(kernel[i].doc, ref[i].doc);
                EXPECT_NEAR(kernel[i].score, ref[i].score, 1e-9);
                EXPECT_EQ(kernel[i].matched_terms, ref[i].matched_terms);
            }
        }
    }
}

// ------------------------------------------- (a') Block-Max WAND oracle

namespace {

/// Oracle (a') needs posting lists long enough to span many 128-doc
/// blocks — the soak corpus weakness index tops out at ~45 docs, where
/// every list is one block and Block-Max WAND has nothing to skip. Build
/// a dedicated synthetic index instead: 2000 docs over 24 mid-frequency
/// terms (multi-block lists the pruner walks) plus 24 rare high-weight
/// terms (one strong hit pushes the top-k floor above what the mid lists
/// can reach, so the kernel abandons their tails), which exercises
/// pivots, shallow seeks, deep skips, and early termination.
const text::InvertedIndex& bmw_oracle_index() {
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

} // namespace

TEST_P(FaultMatrixSoak, BlockMaxWandMatchesUnprunedBitExactly) {
    // The pruning exactness claim: with pruning on, the BM25 kernel runs
    // document-at-a-time over compressed blocks, skipping every block the
    // block-max bound proves irrelevant — and must still return the same
    // hits with BIT-IDENTICAL scores as the unpruned term-at-a-time pass
    // (EXPECT_EQ on doubles, not NEAR: both paths sum the same positive
    // contributions in the same ascending-term order).
    const text::InvertedIndex& index = bmw_oracle_index();
    const text::Bm25Scorer scorer(index);
    text::QueryScratch pruned_scratch, ref_scratch;

    Rng rng(static_cast<std::uint64_t>(5000 + GetParam()));
    std::uint64_t skipped_total = 0;
    for (int q = 0; q < 25; ++q) {
        std::vector<std::string> tokens;
        const std::size_t len = rng.uniform(1, 9);
        for (std::size_t i = 0; i < len; ++i) {
            const auto t = static_cast<text::TermId>(rng.uniform(0, index.term_count() - 1));
            tokens.push_back(index.vocabulary().term(t));
        }
        for (std::size_t k : {std::size_t{1}, std::size_t{3}, std::size_t{10}}) {
            for (double gate : {0.0, 2.0}) {
                text::KernelOptions pruned{k, gate, true};
                text::KernelOptions unpruned{k, gate, false};
                text::KernelStats ps{}, us{};
                const std::vector<text::Hit> got =
                    oracle::sealed_kernel(index, scorer, tokens, pruned_scratch, pruned, &ps);
                const std::vector<text::Hit> want =
                    oracle::sealed_kernel(index, scorer, tokens, ref_scratch, unpruned, &us);
                ASSERT_EQ(got.size(), want.size());
                for (std::size_t i = 0; i < got.size(); ++i) {
                    EXPECT_EQ(got[i].doc, want[i].doc);
                    EXPECT_EQ(got[i].score, want[i].score); // bit-identical
                    EXPECT_EQ(got[i].matched_terms, want[i].matched_terms);
                }
                // postings_scanned counts only decoded postings, so the
                // pruned pass can never scan more than decode-everything.
                EXPECT_LE(ps.postings_scanned, us.postings_scanned);
                EXPECT_LE(ps.blocks_decoded, us.blocks_decoded);
                skipped_total += ps.blocks_skipped;
            }
        }
    }
    // Across 150 query/option pairs the pruner must actually prune.
    EXPECT_GT(skipped_total, 0u);
}

// ---------------------------------------------------- (b) build oracle

TEST_P(FaultMatrixSoak, BuildIdentityUnderShardFaults) {
    // p:0.5 per shard hit: depending on the seed the parallel build either
    // survives or takes the sequential fallback — both must freeze to the
    // reference blob, and the blob must round-trip through thaw unchanged.
    util::FaultScope scope("seed=" + std::to_string(GetParam()) +
                           ";search.build.shard=p:0.5");
    search::EngineOptions opts;
    opts.build_threads = 4;
    const search::SearchEngine engine(soak_corpus(), opts);
    const std::string blob = search::freeze_engine(engine);
    EXPECT_EQ(blob, reference_blob());

    const search::EngineSnapshot thawed = search::thaw_engine(blob);
    EXPECT_EQ(search::freeze_engine(*thawed.engine), blob);
}

// ------------------------------------------------ (b') serialize oracle

TEST_P(FaultMatrixSoak, LenientDecodeSkipsExactlyTheFiredRecords) {
    static const json::Value doc = kb::to_json(soak_corpus());
    const std::size_t total = soak_corpus().patterns().size() +
                              soak_corpus().weaknesses().size() +
                              soak_corpus().vulnerabilities().size();
    util::FaultScope scope("seed=" + std::to_string(GetParam()) +
                           ";kb.serialize.record=p:0.1");
    std::vector<kb::RecordDiagnostic> diags;
    const kb::Corpus decoded = kb::corpus_from_json(doc, &diags);
    const std::size_t kept = decoded.patterns().size() + decoded.weaknesses().size() +
                             decoded.vulnerabilities().size();
    // Conservation: every record either decoded or produced a diagnostic.
    EXPECT_EQ(kept + diags.size(), total);
    EXPECT_TRUE(decoded.indexed());
    for (const kb::RecordDiagnostic& d : diags)
        EXPECT_NE(d.error.find("injected"), std::string::npos);
}

// -------------------------------------------------- (c) session oracle

TEST_P(FaultMatrixSoak, SessionMatchesBaselineUnderFaultMatrix) {
    const int seed = GetParam();
    const std::string path =
        temp_path("fault_matrix_" + std::to_string(seed) + ".snap");
    core::SessionOptions opts;
    opts.snapshot_path = path;
    { core::AnalysisSession warm(soak_model(), soak_corpus(), opts); } // seed the cache

    // The matrix: every degradable site a session crosses, armed at once.
    // Recompute uses nth (fires exactly once) because its contract is
    // retry-once — a second probabilistic failure would rightly propagate.
    const std::string spec =
        "seed=" + std::to_string(seed) +
        ";kb.snapshot.open=p:0.5"
        ";session.cold_start.load=p:0.3"
        ";session.cold_start.save=p:0.3"
        ";util.bytes.read_file.open=p:0.2"
        ";util.bytes.write_file.write=p:0.2"
        ";search.cache.get=p:0.3"
        ";search.cache.put=p:0.3"
        ";search.assoc.recompute=nth:" + std::to_string(seed % 5 + 1);
    util::FaultScope scope(spec);

    core::AnalysisSession session(soak_model(), soak_corpus(), opts);
    EXPECT_EQ(fingerprint(session.associations()), baseline_fingerprint());

    // Counter consistency: every task resolved as exactly one hit or miss.
    const search::AssocMetrics m = session.assoc_metrics();
    std::size_t tasks = 0;
    const model::SystemModel counted = soak_model();
    for (const model::Component& c : counted.components()) {
        if (!c.id.valid()) continue;
        for (const model::Attribute& a : c.attributes)
            if (a.kind != model::AttributeKind::Parameter) ++tasks;
    }
    EXPECT_EQ(m.cache_hits + m.cache_misses, tasks);
}

// ----------------------------------------------- (c') flow incremental oracle

namespace {

/// A seed-directed structural edit: add, remove, rewire, or flip an entry
/// point. Each class stresses a different region of reanalyze()'s
/// affected-set computation.
void mutate_for_flow(model::SystemModel& m, int k) {
    std::vector<model::ComponentId> live;
    for (const model::Component& c : m.components())
        if (c.id.valid()) live.push_back(c.id);
    ASSERT_FALSE(live.empty());
    const std::size_t a = static_cast<std::size_t>(k) % live.size();
    const std::size_t b = (static_cast<std::size_t>(k) * 7 + 3) % live.size();
    switch (k % 4) {
    case 0: {
        const model::ComponentId fresh = m.add_component(
            "Flow mutant " + std::to_string(k), model::ComponentType::Compute);
        m.connect(live[a], fresh, "mutant-feed-" + std::to_string(k));
        break;
    }
    case 1:
        m.remove_component(live[a]);
        break;
    case 2:
        m.connect(live[a], live[b], "mutant-link-" + std::to_string(k));
        break;
    default:
        m.component(live[a]).external_facing = !m.component(live[a]).external_facing;
        break;
    }
}

safety::HazardModel soak_hazards(const model::SystemModel& m) {
    safety::HazardModel hz;
    hz.add(safety::Loss{"L-1", "loss of process control"});
    hz.add(safety::Hazard{"H-1", "unsafe command reaches the plant", {"L-1"}});
    hz.add(safety::Hazard{"H-2", "protection function suppressed", {"L-1"}});
    int n = 0;
    for (const model::Component& c : m.components()) {
        if (!c.id.valid()) continue;
        safety::UnsafeControlAction uca;
        uca.id = "UCA-" + std::to_string(n + 1);
        uca.controller = c.name;
        uca.action = "issue command";
        uca.hazards = {n % 2 == 0 ? "H-1" : "H-2"};
        hz.add(uca);
        if (++n == 3) break; // three controllers is plenty of seed surface
    }
    return hz;
}

} // namespace

TEST_P(FaultMatrixSoak, FlowIncrementalMatchesFullUnderFaultMatrix) {
    // Drive a session through a seed-directed chain of structural edits
    // with the degradable session sites armed: after every commit the
    // incremental flow() must be fingerprint-identical to a from-scratch
    // analyze() over the same model and (transparently degraded)
    // associations. Faults may slow the association layer down; they must
    // never make the incremental dataflow result drift from the full one.
    const int seed = GetParam();
    const std::string path =
        temp_path("fault_matrix_flow_" + std::to_string(seed) + ".snap");
    core::SessionOptions opts;
    opts.snapshot_path = path;

    const safety::HazardModel hz = soak_hazards(soak_model());
    const std::string spec =
        "seed=" + std::to_string(seed) +
        ";kb.snapshot.open=p:0.5"
        ";session.cold_start.load=p:0.3"
        ";session.cold_start.save=p:0.3"
        ";util.bytes.read_file.open=p:0.2"
        ";util.bytes.write_file.write=p:0.2"
        ";search.cache.get=p:0.3"
        ";search.cache.put=p:0.3";
    util::FaultScope scope(spec);

    core::AnalysisSession session(soak_model(), soak_corpus(), opts);
    session.set_hazards(hz);
    ASSERT_TRUE(session.flow().converged);

    for (int step = 0; step < 3; ++step) {
        model::SystemModel candidate = session.model();
        mutate_for_flow(candidate, seed * 3 + step);
        (void)session.commit(std::move(candidate));
        const flow::FlowResult& incremental = session.flow();
        const flow::FlowResult full =
            flow::analyze(session.model(), session.associations(), &hz);
        ASSERT_EQ(incremental.fingerprint(), full.fingerprint())
            << "seed " << seed << " step " << step;
        ASSERT_TRUE(incremental.converged);
    }
    EXPECT_GE(session.assoc_metrics().flow.incremental_analyses, 3u);
}

// --------------------------------------------------- (d) serve oracle

namespace {

/// One shared engine for every serve soak seed, built fault-free.
std::shared_ptr<const core::SharedEngine> soak_shared_engine() {
    static const std::shared_ptr<const core::SharedEngine> engine =
        core::make_shared_engine(soak_corpus(), core::SessionOptions{});
    return engine;
}

/// A thawable snapshot for the swap requests, written before faults arm.
const std::string& soak_snapshot_path() {
    static const std::string path = [] {
        const std::string p = temp_path("fault_matrix_serve.snap");
        search::save_engine_snapshot(*soak_shared_engine()->engine, p);
        return p;
    }();
    return path;
}

/// A one-record feed tick for the delta.apply requests, written before
/// faults arm. Re-applying it upserts the same record.
const std::string& soak_delta_path() {
    static const std::string path = [] {
        kb::CorpusDelta delta;
        kb::Weakness probe;
        probe.id = kb::WeaknessId{900002};
        probe.name = "Soak feed probe";
        probe.description = "Relay accepts quillstone frames without verifying origin.";
        delta.weaknesses.push_back(std::move(probe));
        const std::string p = temp_path("fault_matrix_serve.delta");
        util::write_file(p, kb::freeze_corpus_delta(delta));
        return p;
    }();
    return path;
}

/// Every error response carries a code from the protocol's table.
void expect_typed(const serve::Response& resp) {
    if (resp.ok) return;
    const auto& codes = serve::known_error_codes();
    const bool known =
        std::any_of(codes.begin(), codes.end(),
                    [&](const serve::ErrorCodeInfo& c) { return c.wire == resp.error_code; });
    EXPECT_TRUE(known) << "untyped error code: " << resp.error_code;
}

} // namespace

TEST_P(FaultMatrixSoak, ServeOneResponsePerRequestUnderFaultMatrix) {
    const int seed = GetParam();
    serve::Server server(soak_shared_engine(), soak_model(), serve::ServerOptions{});
    server.start();

    // Phase 1 — recoverable sites. These degrade to typed error responses
    // on a connection that stays usable, so the conservation law is exact:
    // 48 pipelined requests in, 48 responses out, each id at most once,
    // id-0 responses (a decode fault fires before the id is parsed, so
    // the server cannot echo it) covering exactly the remainder. The three
    // generation-changing requests run on the admin thread, the rest on
    // the lanes.
    constexpr int kRequests = 48;
    {
        util::FaultScope scope("seed=" + std::to_string(seed) +
                               ";serve.request.decode=p:0.25"
                               ";serve.session.open=p:0.3"
                               ";serve.swap.load=p:0.5"
                               ";kb.delta.apply=p:0.3"
                               ";serve.compact.fold=p:0.3");
        serve::BlockingClient client("127.0.0.1", server.port());
        for (int i = 0; i < kRequests; ++i) {
            serve::Request req;
            switch (i % 8) {
            case 0: req.type = serve::MsgType::Ping; req.text = "probe"; break;
            case 1: req.type = serve::MsgType::SessionOpen; break;
            case 2:
                req.type = serve::MsgType::Query;
                req.text = "buffer overflow";
                req.limit = 3;
                break;
            case 3:
                // May race an open that failed or has not executed yet —
                // unknown_session is then the correct typed answer.
                req.type = serve::MsgType::Associate;
                req.session = "s-" + std::to_string(i / 8 + 1);
                break;
            case 4: req.type = serve::MsgType::SessionList; break;
            case 5:
                req.type = serve::MsgType::SnapshotSwap;
                req.snapshot = soak_snapshot_path();
                break;
            case 6:
                req.type = serve::MsgType::DeltaApply;
                req.delta = soak_delta_path();
                break;
            case 7: req.type = serve::MsgType::Compact; break;
            }
            client.send(req);
        }
        std::vector<bool> answered(kRequests + 1, false);
        int anonymous = 0; // id-0 responses: request.decode fired pre-parse
        for (int i = 0; i < kRequests; ++i) {
            const serve::Response resp = client.receive();
            ASSERT_GE(resp.id, 0);
            ASSERT_LE(resp.id, kRequests);
            if (resp.id == 0) {
                EXPECT_FALSE(resp.ok) << "ok response without an id";
                ++anonymous;
            } else {
                const auto idx = static_cast<std::size_t>(resp.id);
                EXPECT_FALSE(answered[idx]) << "duplicate response for id " << resp.id;
                answered[idx] = true;
            }
            expect_typed(resp);
        }
        const auto echoed = std::count(answered.begin() + 1, answered.end(), true);
        EXPECT_EQ(echoed + anonymous, kRequests);
    }

    // Phase 2 — connection-killing sites. Here the weaker law holds: every
    // request resolves as a response or a connection teardown (IoError on
    // this side), never silence.
    {
        util::FaultScope scope("seed=" + std::to_string(seed + 64) +
                               ";serve.frame.decode=p:0.2"
                               ";serve.response.write=p:0.2");
        int responses = 0, teardowns = 0;
        constexpr int kAttempts = 24;
        std::unique_ptr<serve::BlockingClient> client;
        for (int i = 0; i < kAttempts; ++i) {
            try {
                if (!client)
                    client = std::make_unique<serve::BlockingClient>("127.0.0.1",
                                                                     server.port());
                serve::Request req;
                req.type = serve::MsgType::Ping;
                req.text = "p2";
                client->send(req);
                (void)client->receive();
                ++responses;
            } catch (const Error&) {
                ++teardowns; // typed teardown: reconnect and continue
                client.reset();
            }
        }
        EXPECT_EQ(responses + teardowns, kAttempts);
    }

    // Disarmed, the server must still be healthy: a clean probe answers.
    {
        serve::BlockingClient probe("127.0.0.1", server.port());
        serve::Request req;
        req.type = serve::MsgType::Ping;
        req.text = "healthy";
        const serve::Response resp = probe.call(req);
        EXPECT_TRUE(resp.ok);
        EXPECT_EQ(resp.body.get_string("echo"), "healthy");
    }

    // Phase 3 — stop() with admin requests still queued. A ping pipelined
    // behind a burst of delta.apply/compact proves the IO thread admitted
    // the burst; stop() then lands while the admin thread is still working
    // through it, and must answer every admitted request exactly once
    // before wait() returns.
    {
        util::FaultScope scope("seed=" + std::to_string(seed + 128) +
                               ";kb.delta.apply=p:0.3;serve.compact.fold=p:0.3");
        serve::BlockingClient client("127.0.0.1", server.port());
        constexpr int kAdmin = 12;
        for (int i = 0; i < kAdmin; ++i) {
            serve::Request req;
            req.type = i % 2 == 0 ? serve::MsgType::DeltaApply : serve::MsgType::Compact;
            req.delta = soak_delta_path();
            client.send(req);
        }
        serve::Request ping;
        ping.type = serve::MsgType::Ping;
        client.send(ping);
        const std::int64_t ping_id = client.last_id();
        std::vector<bool> answered(kAdmin + 1, false);
        auto record = [&](const serve::Response& resp) {
            ASSERT_GE(resp.id, 1);
            ASSERT_LE(resp.id, kAdmin);
            EXPECT_FALSE(answered[static_cast<std::size_t>(resp.id)])
                << "duplicate response for id " << resp.id;
            answered[static_cast<std::size_t>(resp.id)] = true;
            expect_typed(resp);
        };
        int admin_responses = 0;
        for (;;) {
            const serve::Response resp = client.receive();
            if (resp.id == ping_id) break;
            record(resp);
            ++admin_responses;
        }
        server.stop();
        for (; admin_responses < kAdmin; ++admin_responses) record(client.receive());
        server.wait();
        EXPECT_EQ(std::count(answered.begin() + 1, answered.end(), true), kAdmin);
    }
}

// ------------------------------ (e) delta + compaction soak oracle

namespace {

/// A deterministic mixed delta (modify / withdraw / add per class) over
/// `corpus`, tag-unique vocabulary in the additions.
kb::CorpusDelta soak_delta(const kb::Corpus& corpus, Rng& rng, std::uint32_t tag) {
    kb::CorpusDelta d;
    const auto& ps = corpus.patterns();
    const auto& ws = corpus.weaknesses();
    const auto& vs = corpus.vulnerabilities();

    const std::vector<std::size_t> pi = rng.sample_indices(ps.size(), 3);
    d.patterns.push_back(ps[pi[0]]);
    d.patterns.back().summary += " revised exploitation chain note rev" + std::to_string(tag);
    d.withdraw_patterns.push_back(ps[pi[1]].id);

    const std::vector<std::size_t> wi = rng.sample_indices(ws.size(), 3);
    d.weaknesses.push_back(ws[wi[0]]);
    d.weaknesses.back().description += " amended mitigations discussion";
    d.withdraw_weaknesses.push_back(ws[wi[1]].id);

    if (!vs.empty()) {
        const std::vector<std::size_t> vi = rng.sample_indices(vs.size(), 2);
        d.vulnerabilities.push_back(vs[vi[0]]);
        d.vulnerabilities.back().description += " patched firmware reissued";
        d.withdraw_vulnerabilities.push_back(vs[vi[1]].id);
    }

    kb::Weakness wk;
    wk.id = kb::WeaknessId{800000 + tag};
    wk.name = "Unverified maintenance frame origin";
    wk.description = "Relay accepts maintenance frames without verifying origin; "
                     "any bus participant can retime protection. rev" + std::to_string(tag);
    d.weaknesses.push_back(std::move(wk));
    return d;
}

} // namespace

TEST(FaultMatrix, KnownSiteTableCoversDeltaAndCompactionSites) {
    const std::vector<util::FaultSiteInfo>& sites = util::known_fault_sites();
    EXPECT_GE(sites.size(), 25u);
    auto has = [&sites](std::string_view name) {
        return std::any_of(sites.begin(), sites.end(),
                           [name](const util::FaultSiteInfo& s) { return s.site == name; });
    };
    EXPECT_TRUE(has("kb.delta.apply"));
    EXPECT_TRUE(has("search.delta.segment"));
    EXPECT_TRUE(has("serve.compact.fold"));
}

TEST_P(FaultMatrixSoak, DeltaCompactionUnderFaultsMatchesCleanRebuild) {
    // The tentpole soak oracle: drive a registry through a delta chain and
    // compactions with every delta/compaction fault site armed
    // probabilistically. Failed applies publish nothing (retrying the
    // identical delta is always safe), failed folds leave the segmented
    // generation authoritative — and whatever interleaving the seed
    // produces, the surviving generation must answer byte-identically to a
    // clean from-scratch build of the merged corpus.
    const int seed = GetParam();

    // The delta chain and its clean merged endpoint, computed fault-free.
    kb::Corpus merged = soak_corpus();
    std::vector<kb::CorpusDelta> deltas;
    Rng rng(static_cast<std::uint64_t>(9000 + seed));
    for (std::uint32_t t = 0; t < 3; ++t) {
        deltas.push_back(soak_delta(merged, rng, static_cast<std::uint32_t>(seed) * 10 + t));
        kb::apply_corpus_delta(merged, deltas.back());
    }

    serve::SessionRegistry registry(soak_shared_engine(), soak_model(),
                                    serve::RegistryOptions{});
    {
        util::FaultScope scope("seed=" + std::to_string(seed) +
                               ";kb.delta.apply=p:0.25"
                               ";search.delta.segment=p:0.25"
                               ";serve.compact.fold=p:0.5");
        for (std::size_t t = 0; t < deltas.size(); ++t) {
            const std::string path =
                temp_path("fault_matrix_delta_" + std::to_string(seed) + "_" +
                          std::to_string(t) + ".delta");
            util::write_file(path, kb::freeze_corpus_delta(deltas[t]));
            bool applied = false;
            for (int attempt = 0; attempt < 64 && !applied; ++attempt) {
                try {
                    (void)registry.apply_delta(path);
                    applied = true;
                } catch (const serve::ProtocolError&) {
                    // delta_failed: the old generation is still current.
                }
            }
            ASSERT_TRUE(applied) << "delta " << t << " never applied under seed " << seed;
            if (t == 1) {
                // Mid-chain fold attempt: success or typed failure, the
                // final bits must not depend on which one the seed drew.
                try {
                    (void)registry.compact();
                } catch (const serve::ProtocolError&) {
                }
            }
        }
        bool folded = false;
        for (int attempt = 0; attempt < 64 && !folded; ++attempt) {
            try {
                (void)registry.compact();
                folded = true;
            } catch (const serve::ProtocolError&) {
            }
        }
        ASSERT_TRUE(folded) << "compaction never succeeded under seed " << seed;
    }
    EXPECT_EQ(registry.stats().current_segments, 0u);
    EXPECT_EQ(registry.stats().deltas_applied, 3u);

    // Byte-identical to the clean rebuild, via the association fingerprint.
    search::AssocOptions aopts;
    aopts.threads = 4;
    search::Associator got(registry.current()->engine->query(), aopts);
    const search::SearchEngine clean(merged, {});
    search::Associator want(clean, aopts);
    EXPECT_EQ(fingerprint(got.associate(soak_model())),
              fingerprint(want.associate(soak_model())));
}

INSTANTIATE_TEST_SUITE_P(SeedSweep, FaultMatrixSoak, ::testing::Range(0, 16));
