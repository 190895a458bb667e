// Segmented incremental indexing — the delta path's unit tests and the
// differential oracle (fast half; the 16-seed fault-armed sweep lives in
// test_fault_matrix.cpp under the soak label).
//
// The contract under test: a SegmentedEngine over base + N deltas answers
// every query *bitwise identically* to a from-scratch SearchEngine over
// the merged corpus — scores compared with EXPECT_EQ on doubles, never
// NEAR — pre- and post-compaction, across tombstone edge cases (withdraw
// then re-add, withdraw of a delta-only record, the empty delta).

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/session.hpp"
#include "kb/delta.hpp"
#include "kb/serialize.hpp"
#include "kb/snapshot.hpp"
#include "search/engine.hpp"
#include "search/generation.hpp"
#include "synth/corpus_gen.hpp"
#include "synth/model_gen.hpp"
#include "util/fault.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

using namespace cybok;

namespace {

kb::Corpus small_corpus(std::uint64_t seed = 7) {
    return synth::generate_corpus(synth::CorpusProfile::scaled(0.02, seed));
}

/// Canonical byte form of a corpus (ordered-key JSON), for "unchanged"
/// and "same merged content" assertions.
std::string corpus_bytes(const kb::Corpus& corpus) {
    return json::dump(kb::to_json(corpus));
}

/// A mixed delta over `corpus`: a few modified records per class, a few
/// withdrawals (disjoint from the modifications), and fresh additions
/// carrying `tag`-unique vocabulary. Pure function of (corpus, rng, tag).
kb::CorpusDelta make_delta(const kb::Corpus& corpus, Rng& rng, std::uint32_t tag) {
    kb::CorpusDelta d;
    const auto& ps = corpus.patterns();
    const auto& ws = corpus.weaknesses();
    const auto& vs = corpus.vulnerabilities();

    const std::vector<std::size_t> pi = rng.sample_indices(ps.size(), 4);
    d.patterns.push_back(ps[pi[0]]);
    d.patterns.back().summary += " revised actuator spoofing note rev" + std::to_string(tag);
    d.patterns.push_back(ps[pi[1]]);
    d.patterns.back().name += " (revised)";
    d.withdraw_patterns.push_back(ps[pi[2]].id);
    d.withdraw_patterns.push_back(ps[pi[3]].id);

    const std::vector<std::size_t> wi = rng.sample_indices(ws.size(), 4);
    d.weaknesses.push_back(ws[wi[0]]);
    d.weaknesses.back().description += " amended sensor calibration drift discussion";
    d.withdraw_weaknesses.push_back(ws[wi[1]].id);

    if (!vs.empty()) {
        const std::vector<std::size_t> vi = rng.sample_indices(vs.size(), 2);
        d.vulnerabilities.push_back(vs[vi[0]]);
        d.vulnerabilities.back().description += " patched firmware image reissued";
        d.withdraw_vulnerabilities.push_back(vs[vi[1]].id);
    }

    // Fresh records with tag-unique vocabulary, so oracle queries can
    // prove delta-only content is findable.
    kb::AttackPattern ap;
    ap.id = kb::AttackPatternId{900000 + tag};
    ap.name = "Quillphase relay injection rev" + std::to_string(tag);
    ap.summary = "Adversary injects forged quillphase frames into the relay "
                 "maintenance channel to desynchronize breaker timing.";
    ap.prerequisites = {"maintenance channel reachable", "no frame authentication"};
    d.patterns.push_back(std::move(ap));

    kb::Weakness wk;
    wk.id = kb::WeaknessId{800000 + tag};
    wk.name = "Unverified quillphase frame origin";
    wk.description = "The relay accepts quillphase maintenance frames without "
                     "verifying their origin, so any bus participant can "
                     "retime protective elements. rev" + std::to_string(tag);
    wk.consequences = {"integrity: protection settings modified"};
    d.weaknesses.push_back(std::move(wk));

    kb::Vulnerability vu;
    vu.id = kb::VulnerabilityId{2099, 10000 + tag};
    vu.description = "Quillphase relay firmware accepts unsigned maintenance "
                     "frames allowing remote retiming. rev" + std::to_string(tag);
    d.vulnerabilities.push_back(std::move(vu));
    return d;
}

/// Field-wise exact Match comparison — scores with EXPECT_EQ (the
/// bit-identity claim), not EXPECT_NEAR.
void expect_matches_eq(const std::vector<search::Match>& got,
                       const std::vector<search::Match>& want, const std::string& what) {
    ASSERT_EQ(got.size(), want.size()) << what;
    for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(static_cast<int>(got[i].cls), static_cast<int>(want[i].cls)) << what;
        EXPECT_EQ(got[i].corpus_index, want[i].corpus_index) << what;
        EXPECT_EQ(got[i].id, want[i].id) << what;
        EXPECT_EQ(got[i].title, want[i].title) << what;
        EXPECT_EQ(got[i].score, want[i].score) << what << " [" << got[i].id << "]";
        EXPECT_EQ(static_cast<int>(got[i].via), static_cast<int>(want[i].via)) << what;
        EXPECT_EQ(got[i].evidence, want[i].evidence) << what;
        EXPECT_EQ(got[i].severity, want[i].severity) << what;
    }
}

/// The differential oracle: `got` (segmented or compacted) must answer a
/// query battery bitwise identically to `want` (a from-scratch rebuild
/// over the merged corpus) — free-text per class, full attribute fan-out
/// over a synthetic model (lexical + platform binding), weakness
/// expansion, and explain() audit strings.
void expect_bit_identical(const search::QueryEngine& got, const search::QueryEngine& want,
                          std::uint64_t qseed) {
    ASSERT_EQ(corpus_bytes(got.corpus()), corpus_bytes(want.corpus()));

    Rng rng(qseed);
    std::vector<std::string> queries = {
        "", "nonexistent-zzz-token", "quillphase relay maintenance frames",
    };
    const auto& ps = want.corpus().patterns();
    const auto& ws = want.corpus().weaknesses();
    for (int i = 0; i < 8; ++i) {
        queries.push_back(ps[rng.uniform(0, ps.size() - 1)].name);
        const kb::Weakness& w = ws[rng.uniform(0, ws.size() - 1)];
        queries.push_back(w.name + " " + w.description.substr(0, 48));
    }
    for (const std::string& q : queries) {
        for (search::VectorClass cls :
             {search::VectorClass::AttackPattern, search::VectorClass::Weakness,
              search::VectorClass::Vulnerability}) {
            expect_matches_eq(got.query_text(q, cls), want.query_text(q, cls),
                              "query_text(\"" + q + "\")");
        }
    }

    synth::ModelGenConfig cfg;
    cfg.seed = 17 + qseed;
    cfg.components = 12;
    const model::SystemModel m = synth::generate_model(cfg);
    for (const model::Component& c : m.components()) {
        for (const model::Attribute& attr : c.attributes) {
            const std::vector<search::Match> g = got.query_attribute(attr);
            const std::vector<search::Match> w = want.query_attribute(attr);
            expect_matches_eq(g, w, "attribute " + attr.name + "=" + attr.value);
            for (std::size_t i = 0; i < g.size() && i < 2; ++i) {
                EXPECT_EQ(got.explain(attr, g[i]), want.explain(attr, w[i]));
                if (g[i].cls == search::VectorClass::Weakness)
                    expect_matches_eq(got.expand_weakness(g[i]), want.expand_weakness(w[i]),
                                      "expand " + g[i].id);
            }
        }
    }
}

} // namespace

// ------------------------------------------------- kb::apply_corpus_delta

TEST(CorpusDelta, ApplyCountsAddModifyWithdraw) {
    kb::Corpus corpus = small_corpus();
    Rng rng(1);
    const kb::CorpusDelta d = make_delta(corpus, rng, 1);
    const std::size_t patterns_before = corpus.patterns().size();
    const std::size_t weaknesses_before = corpus.weaknesses().size();

    const kb::DeltaApplyReport r = kb::apply_corpus_delta(corpus, d);
    EXPECT_EQ(r.patterns.added, 1u);
    EXPECT_EQ(r.patterns.modified, 2u);
    EXPECT_EQ(r.patterns.withdrawn, 2u);
    EXPECT_EQ(r.weaknesses.added, 1u);
    EXPECT_EQ(r.weaknesses.modified, 1u);
    EXPECT_EQ(r.weaknesses.withdrawn, 1u);
    EXPECT_EQ(r.vulnerabilities.added, 1u);
    EXPECT_EQ(r.vulnerabilities.modified, 1u);
    EXPECT_EQ(r.vulnerabilities.withdrawn, 1u);
    EXPECT_EQ(r.total(), 11u);

    // adds - withdrawals net out; the corpus is reindexed and ready.
    EXPECT_EQ(corpus.patterns().size(), patterns_before - 1);
    EXPECT_EQ(corpus.weaknesses().size(), weaknesses_before);
    EXPECT_TRUE(corpus.indexed());
    // Appends land at the tail in upsert order.
    EXPECT_EQ(corpus.patterns().back().id.value, 900001u);
}

TEST(CorpusDelta, RejectsBadDeltasAndLeavesCorpusUntouched) {
    kb::Corpus corpus = small_corpus();
    const std::string before = corpus_bytes(corpus);

    kb::CorpusDelta unknown_withdraw;
    unknown_withdraw.withdraw_patterns.push_back(kb::AttackPatternId{999999});
    EXPECT_THROW(kb::apply_corpus_delta(corpus, unknown_withdraw), ValidationError);

    kb::CorpusDelta dup_upsert;
    dup_upsert.weaknesses.push_back(corpus.weaknesses().front());
    dup_upsert.weaknesses.push_back(corpus.weaknesses().front());
    EXPECT_THROW(kb::apply_corpus_delta(corpus, dup_upsert), ValidationError);

    kb::CorpusDelta dup_withdraw;
    dup_withdraw.withdraw_weaknesses.push_back(corpus.weaknesses().front().id);
    dup_withdraw.withdraw_weaknesses.push_back(corpus.weaknesses().front().id);
    EXPECT_THROW(kb::apply_corpus_delta(corpus, dup_withdraw), ValidationError);

    EXPECT_EQ(corpus_bytes(corpus), before);
}

TEST(CorpusDelta, InjectedApplyFaultIsTransactional) {
    kb::Corpus corpus = small_corpus();
    const std::string before = corpus_bytes(corpus);
    Rng rng(2);
    const kb::CorpusDelta d = make_delta(corpus, rng, 2);

    {
        util::FaultScope scope("kb.delta.apply");
        EXPECT_THROW(kb::apply_corpus_delta(corpus, d), ValidationError);
        EXPECT_EQ(corpus_bytes(corpus), before);
    }
    // Disarmed: the identical delta applies cleanly.
    EXPECT_EQ(kb::apply_corpus_delta(corpus, d).total(), 11u);
}

TEST(CorpusDelta, FreezeThawRoundTrip) {
    kb::Corpus corpus = small_corpus();
    Rng rng(3);
    const kb::CorpusDelta d = make_delta(corpus, rng, 3);
    const std::string blob = kb::freeze_corpus_delta(d);
    const kb::CorpusDelta thawed = kb::thaw_corpus_delta(blob);

    kb::Corpus a = corpus;
    kb::Corpus b = std::move(corpus);
    kb::apply_corpus_delta(a, d);
    kb::apply_corpus_delta(b, thawed);
    EXPECT_EQ(corpus_bytes(a), corpus_bytes(b));

    EXPECT_THROW((void)kb::thaw_corpus_delta("not a delta frame"), kb::SnapshotError);
}

// --------------------------------------------------- differential oracle

/// One instantiation per corpus seed (fast subset; the full 16-seed sweep
/// with faults armed runs in the soak suite).
class DeltaOracle : public ::testing::TestWithParam<int> {};

TEST_P(DeltaOracle, SegmentedChainMatchesRebuildBitwise) {
    const auto seed = static_cast<std::uint64_t>(GetParam());
    const kb::Corpus base = small_corpus(seed);
    search::EngineOptions opts;
    opts.max_lexical_hits = 8; // arms kernel pruning on both sides

    const search::SearchEngine base_engine(base, opts);
    Rng rng(100 + seed);
    const kb::CorpusDelta d1 = make_delta(base, rng, 10);

    kb::Corpus merged = base;
    kb::apply_corpus_delta(merged, d1);
    const kb::CorpusDelta d2 = make_delta(merged, rng, 20);
    kb::apply_corpus_delta(merged, d2);
    const kb::CorpusDelta d3 = make_delta(merged, rng, 30);
    kb::apply_corpus_delta(merged, d3);

    const search::SegmentedEngine g1(base_engine, d1);
    const search::SegmentedEngine g2(g1, d2);
    const search::SegmentedEngine g3(g2, d3);
    EXPECT_EQ(g3.segment_count(), 3u);

    const search::SearchEngine rebuilt(merged, opts);
    expect_bit_identical(g3, rebuilt, 500 + seed);

    // Apply metrics describe the last delta, not the chain.
    EXPECT_EQ(g3.apply_metrics().segments, 3u);
    EXPECT_EQ(g3.apply_metrics().report.total(), d3.size());
    EXPECT_GT(g3.apply_metrics().segment_docs, 0u);
}

TEST_P(DeltaOracle, CompactionPreservesBitIdentity) {
    const auto seed = static_cast<std::uint64_t>(GetParam());
    const kb::Corpus base = small_corpus(seed);
    core::SessionOptions sopts;
    sopts.engine.max_lexical_hits = 8;

    const std::shared_ptr<const core::SharedEngine> g0 = core::make_shared_engine(base, sopts);
    Rng rng(200 + seed);
    const kb::CorpusDelta d1 = make_delta(base, rng, 40);
    const std::shared_ptr<const core::SharedEngine> g1 = core::apply_corpus_delta(g0, d1);
    const kb::CorpusDelta d2 = make_delta(g1->corpus(), rng, 50);
    const std::shared_ptr<const core::SharedEngine> g2 = core::apply_corpus_delta(g1, d2);

    kb::Corpus merged = base;
    kb::apply_corpus_delta(merged, d1);
    kb::apply_corpus_delta(merged, d2);
    const search::SearchEngine rebuilt(merged, sopts.engine);

    expect_bit_identical(g2->query(), rebuilt, 700 + seed);

    const std::shared_ptr<const core::SharedEngine> folded = core::compact(g2);
    ASSERT_NE(folded, g2);
    EXPECT_EQ(folded->segmented, nullptr);
    ASSERT_NE(folded->engine, nullptr);
    expect_bit_identical(folded->query(), rebuilt, 700 + seed);

    // Nothing to fold on a plain base generation: compact is the identity.
    EXPECT_EQ(core::compact(folded), folded);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeltaOracle, ::testing::Values(1, 2, 3));

// ------------------------------------------------------- tombstone edges

TEST(DeltaEdges, WithdrawThenReaddAcrossDeltas) {
    const kb::Corpus base = small_corpus();
    const search::SearchEngine base_engine(base, {});

    const kb::Weakness victim = base.weaknesses().front();
    kb::CorpusDelta d1;
    d1.withdraw_weaknesses.push_back(victim.id);

    kb::CorpusDelta d2;
    kb::Weakness reborn = victim;
    reborn.description = "Re-added with fresh vermilion flux telemetry wording.";
    d2.weaknesses.push_back(reborn);

    const search::SegmentedEngine g1(base_engine, d1);
    EXPECT_EQ(g1.live_docs(search::VectorClass::Weakness), base.weaknesses().size() - 1);
    EXPECT_TRUE(g1.query_text(victim.id.to_string() + " " + victim.name,
                              search::VectorClass::Weakness)
                    .empty() ||
                g1.corpus().find(victim.id) == nullptr);

    const search::SegmentedEngine g2(g1, d2);
    EXPECT_EQ(g2.live_docs(search::VectorClass::Weakness), base.weaknesses().size());
    // Re-add takes a fresh ordinal: the record now lives at the tail.
    EXPECT_EQ(g2.corpus().weaknesses().back().id, victim.id);

    kb::Corpus merged = base;
    kb::apply_corpus_delta(merged, d1);
    kb::apply_corpus_delta(merged, d2);
    const search::SearchEngine rebuilt(merged, {});
    expect_bit_identical(g2, rebuilt, 901);

    const std::vector<search::Match> hits =
        g2.query_text("vermilion flux telemetry", search::VectorClass::Weakness);
    ASSERT_FALSE(hits.empty());
    EXPECT_EQ(hits.front().id, victim.id.to_string());
}

TEST(DeltaEdges, WithdrawDeltaOnlyRecord) {
    const kb::Corpus base = small_corpus();
    const search::SearchEngine base_engine(base, {});

    kb::CorpusDelta d1;
    kb::AttackPattern ap;
    ap.id = kb::AttackPatternId{910000};
    ap.name = "Ephemeral cobaltine bus flooding";
    ap.summary = "Flood the cobaltine arbitration bus until the scheduler starves.";
    d1.patterns.push_back(ap);

    const search::SegmentedEngine g1(base_engine, d1);
    ASSERT_FALSE(g1.query_text("cobaltine arbitration bus",
                               search::VectorClass::AttackPattern)
                     .empty());

    kb::CorpusDelta d2;
    d2.withdraw_patterns.push_back(ap.id);
    const search::SegmentedEngine g2(g1, d2);
    EXPECT_TRUE(g2.query_text("cobaltine arbitration bus",
                              search::VectorClass::AttackPattern)
                    .empty());
    EXPECT_EQ(g2.live_docs(search::VectorClass::AttackPattern), base.patterns().size());

    kb::Corpus merged = base;
    kb::apply_corpus_delta(merged, d1);
    kb::apply_corpus_delta(merged, d2);
    const search::SearchEngine rebuilt(merged, {});
    expect_bit_identical(g2, rebuilt, 902);
}

TEST(DeltaEdges, EmptyDeltaIsBitIdenticalNoop) {
    const kb::Corpus base = small_corpus();
    const search::SearchEngine base_engine(base, {});

    const search::SegmentedEngine g1(base_engine, kb::CorpusDelta{});
    EXPECT_EQ(g1.segment_count(), 0u); // no segment materialized for zero docs
    EXPECT_EQ(g1.apply_metrics().report.total(), 0u);
    expect_bit_identical(g1, base_engine, 903);
}

// ------------------------------------------- generations in core::Session

TEST(DeltaSession, QueryCacheCannotServeAStaleGeneration) {
    const kb::Corpus base = small_corpus();
    core::SessionOptions opts;
    opts.assoc.threads = 2;
    opts.assoc.cache_enabled = true;

    model::SystemModel m("plant", "delta visibility probe");
    const model::ComponentId relay = m.add_component("protection relay",
                                                     model::ComponentType::Controller);
    model::Attribute role;
    role.name = "role";
    role.value = "quillphase maintenance frame handler";
    m.set_attribute(relay, role);
    const model::ComponentId hmi = m.add_component("hmi", model::ComponentType::HumanInterface);
    m.connect(relay, hmi, "status link");

    std::shared_ptr<const core::SharedEngine> g0 = core::make_shared_engine(base, opts);
    core::AnalysisSession session(std::move(m), g0, opts);
    const std::uint64_t gen0 = session.engine().engine_generation();

    // First run populates the cache; the corpus has no quillphase records
    // yet, so the attribute associates nothing lexical with that term.
    auto count_quill = [&session]() {
        std::size_t n = 0;
        for (const search::ComponentAssociation& ca : session.associations().components)
            if (ca.component == "protection relay")
                for (const search::AttributeAssociation& am : ca.attributes)
                    for (const search::Match& match : am.matches)
                        for (const std::string& ev : match.evidence)
                            if (ev.find("quillphas") != std::string::npos) ++n;
        return n;
    };
    EXPECT_EQ(count_quill(), 0u);

    // Feed tick: a delta adds quillphase records; the session adopts the
    // next generation. The cached (miss) entry for the same token sequence
    // is keyed on the old engine generation, so it cannot be served now.
    Rng rng(5);
    const std::shared_ptr<const core::SharedEngine> g1 =
        core::apply_corpus_delta(session.engine_handle(), make_delta(base, rng, 70));
    session.adopt_engine(g1);
    EXPECT_NE(session.engine().engine_generation(), gen0);
    EXPECT_GT(count_quill(), 0u);
}

TEST(DeltaSession, KeepaliveChainSurvivesIntermediateGenerationDrop) {
    const kb::Corpus base = small_corpus();
    std::shared_ptr<const core::SharedEngine> g0 = core::make_shared_engine(base, {});
    const std::weak_ptr<const core::SharedEngine> base_watch = g0;

    Rng rng(6);
    std::shared_ptr<const core::SharedEngine> g1 =
        core::apply_corpus_delta(g0, make_delta(g0->corpus(), rng, 80));
    std::shared_ptr<const core::SharedEngine> g2 =
        core::apply_corpus_delta(g1, make_delta(g1->corpus(), rng, 81));

    // Both overlays keep the ROOT base alive directly (depth-one chain).
    EXPECT_EQ(g1->base.get(), g0.get());
    EXPECT_EQ(g2->base.get(), g0.get());

    const std::weak_ptr<const core::SharedEngine> g1_watch = g1;
    g0.reset();
    g1.reset();
    EXPECT_FALSE(base_watch.expired()); // g2->base still holds the root
    EXPECT_TRUE(g1_watch.expired());    // intermediate generation is free to die

    // The surviving generation still answers queries over all segments.
    EXPECT_FALSE(g2->query()
                     .query_text("quillphase relay maintenance",
                                 search::VectorClass::AttackPattern)
                     .empty());

    // Compacting releases the chain entirely.
    std::shared_ptr<const core::SharedEngine> folded = core::compact(g2);
    g2.reset();
    EXPECT_TRUE(base_watch.expired());
    EXPECT_FALSE(folded->query()
                     .query_text("quillphase relay maintenance",
                                 search::VectorClass::AttackPattern)
                     .empty());
}
