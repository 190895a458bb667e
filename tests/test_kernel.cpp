// Property tests for the scoring kernel (text::query_segments): on
// synthetic corpora from the bench_search_scaling sweep, the kernel over a
// sealed index must produce hit-for-hit identical output (doc id, score,
// matched terms) to the reference scorer in tests/oracle with the
// engine's gate/dedup semantics applied — with and without top-k and
// pruning, and for queries wider than the 64-term matched-term word.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "kb/delta.hpp"
#include "oracle/bm25_reference.hpp"
#include "search/engine.hpp"
#include "search/generation.hpp"
#include "synth/corpus_gen.hpp"
#include "text/index.hpp"
#include "text/scratch.hpp"
#include "text/segments.hpp"
#include "text/tokenize.hpp"
#include "util/rng.hpp"

using namespace cybok;
using namespace cybok::text;

namespace {

/// Index a corpus's weakness records the way the engine does (title
/// weight 3x, body 1x) — the richest of the three per-class indexes.
InvertedIndex weakness_index(const kb::Corpus& corpus) {
    InvertedIndex index;
    for (const kb::Weakness& w : corpus.weaknesses()) {
        index.add_document();
        index.add_terms(analyze(w.name), 3.0f);
        index.add_terms(analyze(w.description));
        for (const std::string& c : w.consequences) index.add_terms(analyze(c));
        for (const std::string& ap : w.applicable_platforms) index.add_terms(analyze(ap));
    }
    index.finalize();
    return index;
}

void expect_identical(const std::vector<Hit>& kernel, const std::vector<Hit>& reference,
                      const std::string& label) {
    ASSERT_EQ(kernel.size(), reference.size()) << label;
    for (std::size_t i = 0; i < kernel.size(); ++i) {
        EXPECT_EQ(kernel[i].doc, reference[i].doc) << label << " hit " << i;
        EXPECT_NEAR(kernel[i].score, reference[i].score, 1e-9) << label << " hit " << i;
        EXPECT_EQ(kernel[i].matched_terms, reference[i].matched_terms) << label << " hit " << i;
    }
}

/// Random queries over the index's own vocabulary (so they actually hit),
/// with duplicates and unknown tokens mixed in.
std::vector<std::vector<std::string>> sample_queries(const InvertedIndex& index,
                                                     std::uint64_t seed, std::size_t count) {
    Rng rng(seed);
    std::vector<std::vector<std::string>> queries;
    for (std::size_t q = 0; q < count; ++q) {
        std::vector<std::string> tokens;
        const std::size_t len = rng.uniform(1, 9);
        for (std::size_t i = 0; i < len; ++i) {
            const TermId t = static_cast<TermId>(rng.uniform(0, index.term_count() - 1));
            tokens.push_back(index.vocabulary().term(t));
            if (rng.chance(0.2)) tokens.push_back(tokens.back()); // duplicate
        }
        if (rng.chance(0.3)) tokens.push_back("zqzqzq-unknown-token");
        queries.push_back(std::move(tokens));
    }
    return queries;
}

struct KernelCase {
    KernelOptions opts;
    const char* label;
};

const KernelCase kCases[] = {
    {{0, 0.0, true}, "all-hits"},
    {{0, 2.0, true}, "gated"},
    {{5, 0.0, true}, "top5-pruned"},
    {{5, 0.0, false}, "top5-unpruned"},
    {{5, 2.0, true}, "top5-gated-pruned"},
    {{1, 2.0, true}, "top1-gated-pruned"},
    {{1000000, 2.0, true}, "k-beyond-hits"},
};

} // namespace

class KernelProperty : public ::testing::TestWithParam<int> {};

TEST_P(KernelProperty, Bm25KernelMatchesReferenceOnSyntheticSweep) {
    const double scale = GetParam() / 1000.0;
    const kb::Corpus corpus = synth::generate_corpus(synth::CorpusProfile::scaled(scale, 31));
    const InvertedIndex index = weakness_index(corpus);
    const Bm25Scorer scorer(index);
    QueryScratch scratch; // one arena reused across every query below
    for (const auto& tokens : sample_queries(index, 7u + GetParam(), 25)) {
        const std::vector<Hit> raw = oracle::bm25_query(index, scorer, tokens);
        for (const KernelCase& c : kCases) {
            expect_identical(oracle::sealed_kernel(index, scorer, tokens, scratch, c.opts),
                             oracle::reference_hits(raw, index, c.opts), c.label);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(SyntheticSweep, KernelProperty, ::testing::Values(50, 200));

// ------------------------------------------------------------ small cases

namespace {

/// Four docs where "alpha" scores identically in docs 1..3 (same length,
/// same tf) — exact score ties at any top-k cut.
InvertedIndex tied_index() {
    InvertedIndex index;
    for (int d = 0; d < 4; ++d) {
        index.add_document();
        index.add_terms({d == 0 ? "unique" : "alpha", "pad", "pad"});
    }
    index.finalize();
    return index;
}

} // namespace

TEST(Kernel, TopKTieAtTheCutBreaksByDocId) {
    const InvertedIndex index = tied_index();
    const Bm25Scorer scorer(index);
    QueryScratch scratch;
    for (bool prune : {false, true}) {
        KernelOptions opts;
        opts.top_k = 2;
        opts.prune = prune;
        const std::vector<Hit> hits = oracle::sealed_kernel(index, scorer, {"alpha"}, scratch, opts);
        // Docs 1, 2, 3 tie exactly; the cut keeps the two lowest doc ids.
        ASSERT_EQ(hits.size(), 2u) << "prune=" << prune;
        EXPECT_EQ(hits[0].doc, 1u);
        EXPECT_EQ(hits[1].doc, 2u);
        EXPECT_DOUBLE_EQ(hits[0].score, hits[1].score);
    }
}

TEST(Kernel, TopKZeroMeansUnlimited) {
    const InvertedIndex index = tied_index();
    const Bm25Scorer scorer(index);
    QueryScratch scratch;
    KernelOptions opts; // top_k = 0
    EXPECT_EQ(oracle::sealed_kernel(index, scorer, {"alpha"}, scratch, opts).size(), 3u);
    EXPECT_EQ(oracle::sealed_kernel(index, scorer, {"pad"}, scratch, opts).size(), 4u);
}

TEST(Kernel, TopKBeyondHitCountReturnsEverything) {
    const InvertedIndex index = tied_index();
    const Bm25Scorer scorer(index);
    QueryScratch scratch;
    KernelOptions opts;
    opts.top_k = 100;
    EXPECT_EQ(oracle::sealed_kernel(index, scorer, {"alpha"}, scratch, opts).size(), 3u);
}

TEST(Kernel, EmptyAndUnknownQueries) {
    const InvertedIndex index = tied_index();
    const Bm25Scorer scorer(index);
    QueryScratch scratch;
    EXPECT_TRUE(oracle::sealed_kernel(index, scorer, {}, scratch).empty());
    EXPECT_TRUE(oracle::sealed_kernel(index, scorer, {"nope"}, scratch).empty());
}

namespace {

/// The Block-Max WAND oracle shape (2000 docs of multi-block mid-frequency
/// lists plus rare high-weight terms that lift the top-k floor), widened
/// to 80 terms: 8 common terms that every list covers densely and 72 rare
/// ones confined to the first 400 documents. Once the rare lists run out,
/// the common lists' bounds cannot reach the floor, so a pruned query
/// abandons their remaining blocks.
const InvertedIndex& wide_index() {
    static const InvertedIndex index = [] {
        InvertedIndex idx;
        Rng rng(99);
        std::vector<std::string> common, rare;
        for (int t = 0; t < 8; ++t) common.push_back("common" + std::to_string(t));
        for (int t = 0; t < 72; ++t) rare.push_back("rare" + std::to_string(t));
        for (int d = 0; d < 2000; ++d) {
            idx.add_document();
            for (const std::string& term : common)
                if (rng.chance(0.7)) idx.add_term(term, static_cast<float>(rng.uniform(1, 3)));
            if (d < 400) {
                idx.add_term(rare[static_cast<std::size_t>(d) % rare.size()], 8.0f);
                if (rng.chance(0.5)) idx.add_term(rare[rng.uniform(0, rare.size() - 1)], 4.0f);
            }
        }
        idx.finalize();
        return idx;
    }();
    return index;
}

/// Bit-exact hit comparison (EXPECT_EQ on scores, not NEAR).
void expect_bit_identical(const std::vector<Hit>& got, const std::vector<Hit>& want,
                          const std::string& label) {
    ASSERT_EQ(got.size(), want.size()) << label;
    for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].doc, want[i].doc) << label << " hit " << i;
        EXPECT_EQ(got[i].score, want[i].score) << label << " hit " << i;
        EXPECT_EQ(got[i].matched_terms, want[i].matched_terms) << label << " hit " << i;
    }
}

/// A delta that modifies, withdraws and adds weaknesses of `corpus`.
kb::CorpusDelta weakness_delta(const kb::Corpus& corpus, Rng& rng, std::uint32_t tag) {
    kb::CorpusDelta d;
    const auto& ws = corpus.weaknesses();
    const std::vector<std::size_t> pick = rng.sample_indices(ws.size(), 3);
    d.weaknesses.push_back(ws[pick[0]]);
    d.weaknesses.back().description += " " + ws[pick[1]].description;
    d.withdraw_weaknesses.push_back(ws[pick[2]].id);
    kb::Weakness added = ws[pick[1]];
    added.id = kb::WeaknessId{800000 + tag};
    added.name += " variant";
    d.weaknesses.push_back(std::move(added));
    return d;
}

} // namespace

TEST(Kernel, WideQueryMatchesReferenceOnEveryPath) {
    // 80 distinct terms: matches of the terms past the 64th spill out of
    // the per-document matched-term word. Both loops must still return the
    // reference hits bit for bit, and Block-Max WAND must still prune.
    const InvertedIndex& index = wide_index();
    const Bm25Scorer scorer(index);
    std::vector<std::string> wide;
    for (TermId t = 0; t < index.term_count(); ++t) wide.push_back(index.vocabulary().term(t));
    ASSERT_EQ(wide.size(), 80u);
    const std::vector<Hit> raw = oracle::bm25_query(index, scorer, wide);
    QueryScratch scratch;
    std::uint64_t skipped = 0;
    for (std::size_t k : {std::size_t{1}, std::size_t{3}, std::size_t{10}}) {
        for (bool prune : {true, false}) {
            const KernelOptions opts{k, 2.0, prune};
            KernelStats stats;
            expect_bit_identical(oracle::sealed_kernel(index, scorer, wide, scratch, opts, &stats),
                                 oracle::reference_hits(raw, index, opts),
                                 "sealed k=" + std::to_string(k) + " prune=" +
                                     std::to_string(prune));
            if (prune) skipped += stats.blocks_skipped;
            // The spill list is released with the query that needed it.
            EXPECT_EQ(scratch.wide_terms.capacity(), 0u);
        }
    }
    EXPECT_GT(skipped, 0u);
    const KernelOptions all{0, 2.0, true};
    expect_bit_identical(oracle::sealed_kernel(index, scorer, wide, scratch, all),
                         oracle::reference_hits(raw, index, all), "sealed unpruned");

    // Engine level: a sealed engine and a base with 2 deltas, both against
    // the reference over a from-scratch index of the merged corpus.
    const kb::Corpus base = synth::generate_corpus(synth::CorpusProfile::scaled(0.05, 31));
    Rng rng(5);
    const kb::CorpusDelta d1 = weakness_delta(base, rng, 1);
    kb::Corpus merged = base;
    kb::apply_corpus_delta(merged, d1);
    const kb::CorpusDelta d2 = weakness_delta(merged, rng, 2);
    kb::apply_corpus_delta(merged, d2);
    for (std::size_t k : {std::size_t{0}, std::size_t{1}, std::size_t{3}, std::size_t{10}}) {
        search::EngineOptions opts;
        opts.max_lexical_hits = k;
        const search::SearchEngine sealed(merged, opts);
        const search::SearchEngine base_engine(base, opts);
        const search::SegmentedEngine g1(base_engine, d1);
        const search::SegmentedEngine g2(g1, d2);
        ASSERT_EQ(g2.segment_count(), 2u);

        // 80 indexed terms that survive analysis unchanged, so the query
        // text analyzes back into exactly these tokens.
        const InvertedIndex& merged_index = sealed.class_index(search::VectorClass::Weakness);
        std::vector<std::string> tokens;
        std::string query;
        for (TermId t = 0; t < merged_index.term_count() && tokens.size() < 80; ++t) {
            const std::string& term = merged_index.vocabulary().term(t);
            if (analyze(term) != std::vector<std::string>{term}) continue;
            tokens.push_back(term);
            query += term + " ";
        }
        ASSERT_EQ(tokens.size(), 80u);
        const KernelOptions kopts{k, opts.min_evidence_idf, true};
        const std::vector<Hit> want = oracle::reference_hits(
            oracle::bm25_query(merged_index, sealed.class_bm25(search::VectorClass::Weakness),
                               tokens),
            merged_index, kopts);
        ASSERT_FALSE(want.empty());
        const std::vector<const search::QueryEngine*> engines = {&sealed, &g2};
        for (const search::QueryEngine* engine : engines) {
            const std::string label =
                std::string(engine == &sealed ? "sealed" : "base+2 deltas") + " k=" +
                std::to_string(k);
            const std::vector<search::Match> got =
                engine->query_text(query, search::VectorClass::Weakness);
            ASSERT_EQ(got.size(), want.size()) << label;
            for (std::size_t i = 0; i < got.size(); ++i) {
                EXPECT_EQ(got[i].corpus_index, want[i].doc) << label << " hit " << i;
                EXPECT_EQ(got[i].score, want[i].score) << label << " hit " << i;
                std::vector<std::string> evidence;
                for (TermId t : want[i].matched_terms)
                    evidence.push_back(merged_index.vocabulary().term(t));
                EXPECT_EQ(got[i].evidence, evidence) << label << " hit " << i;
            }
        }
    }
}

TEST(Kernel, ScratchArenaSurvivesIndexSwitching) {
    // One arena alternating between two indexes of different sizes — the
    // epoch stamps must isolate queries completely.
    const InvertedIndex small = tied_index();
    const kb::Corpus corpus = synth::generate_corpus(synth::CorpusProfile::scaled(0.05, 31));
    const InvertedIndex big = weakness_index(corpus);
    const Bm25Scorer small_scorer(small);
    const Bm25Scorer big_scorer(big);
    QueryScratch scratch;
    const std::vector<Hit> small_ref =
        oracle::sealed_kernel(small, small_scorer, {"alpha"}, scratch);
    const auto queries = sample_queries(big, 5, 10);
    for (int round = 0; round < 3; ++round) {
        for (const auto& tokens : queries) {
            expect_identical(oracle::sealed_kernel(big, big_scorer, tokens, scratch),
                             oracle::reference_hits(oracle::bm25_query(big, big_scorer, tokens),
                                                    big, {}),
                             "big");
        }
        expect_identical(oracle::sealed_kernel(small, small_scorer, {"alpha"}, scratch),
                         small_ref, "small");
    }
}

TEST(Kernel, StatsCountPostingsAndGatedHits) {
    const InvertedIndex index = tied_index();
    const Bm25Scorer scorer(index);
    QueryScratch scratch;
    KernelOptions opts;
    opts.min_evidence_idf = 1e9; // nothing can pass
    KernelStats stats;
    EXPECT_TRUE(oracle::sealed_kernel(index, scorer, {"alpha", "pad"}, scratch, opts, &stats)
                    .empty());
    EXPECT_EQ(stats.postings_scanned, 7u); // 3 alpha + 4 pad
    EXPECT_EQ(stats.hits_gated, 4u);       // every touched doc gated out
}
