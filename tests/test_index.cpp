#include <gtest/gtest.h>

#include "oracle/bm25_reference.hpp"
#include "text/index.hpp"
#include "text/segments.hpp"
#include "text/tokenize.hpp"

using namespace cybok;
using namespace cybok::text;

namespace {

/// Index of four tiny documents (no stemming — raw tokens).
InvertedIndex sample_index() {
    InvertedIndex index;
    const char* docs[] = {
        "linux kernel buffer overflow",           // doc 0
        "windows registry privilege escalation",  // doc 1
        "linux command injection",                // doc 2
        "generic buffer handling",                // doc 3
    };
    for (const char* d : docs) {
        index.add_document();
        index.add_terms(tokenize(d));
    }
    index.finalize();
    return index;
}

/// BM25 hits for `tokens` through the kernel, over `index` sealed.
std::vector<Hit> bm25(const InvertedIndex& index, const std::vector<std::string>& tokens) {
    const Bm25Scorer scorer(index);
    QueryScratch scratch;
    return oracle::sealed_kernel(index, scorer, tokens, scratch);
}

} // namespace

TEST(Vocabulary, InternAndLookup) {
    Vocabulary v;
    TermId a = v.intern("linux");
    TermId b = v.intern("windows");
    EXPECT_NE(a, b);
    EXPECT_EQ(v.intern("linux"), a); // idempotent
    EXPECT_EQ(v.lookup("linux"), a);
    EXPECT_EQ(v.lookup("absent"), kNoTerm);
    EXPECT_EQ(v.term(a), "linux");
    EXPECT_EQ(v.size(), 2u);
    EXPECT_THROW((void)v.term(99), cybok::NotFoundError);
}

TEST(InvertedIndex, DocCapacityOverflowIsTypedWithOffendingCount) {
    // The 32-bit doc-id space ends one short of UINT32_MAX (the "no
    // current document" sentinel). The capacity check is factored out of
    // add_document so the overflow contract is testable without adding
    // 2^32 documents: at the limit it must throw a typed ValidationError
    // naming the offending count, not surface later as add_term's
    // misleading "add_document must be called first".
    EXPECT_NO_THROW(detail::check_doc_capacity(0));
    EXPECT_NO_THROW(detail::check_doc_capacity(UINT32_MAX - 1));
    try {
        detail::check_doc_capacity(UINT32_MAX);
        FAIL() << "expected ValidationError";
    } catch (const cybok::ValidationError& e) {
        EXPECT_NE(std::string(e.what()).find(std::to_string(UINT32_MAX)), std::string::npos)
            << e.what();
    }
    EXPECT_THROW(detail::check_doc_capacity(static_cast<std::size_t>(UINT32_MAX) + 7),
                 cybok::ValidationError);
    // The misuse error is unchanged: add_term before any add_document.
    InvertedIndex index;
    EXPECT_THROW(index.add_term("orphan"), cybok::ValidationError);
}

TEST(InvertedIndex, BasicStatistics) {
    InvertedIndex index = sample_index();
    EXPECT_EQ(index.doc_count(), 4u);
    EXPECT_EQ(index.doc_frequency("linux"), 2u);
    EXPECT_EQ(index.doc_frequency("buffer"), 2u);
    EXPECT_EQ(index.doc_frequency("registry"), 1u);
    EXPECT_EQ(index.doc_frequency("absent"), 0u);
    EXPECT_DOUBLE_EQ(index.avg_doc_length(), (4 + 4 + 3 + 3) / 4.0);
}

TEST(InvertedIndex, FieldWeights) {
    InvertedIndex index;
    index.add_document();
    index.add_term("title", 3.0f);
    index.add_term("body", 1.0f);
    index.finalize();
    EXPECT_DOUBLE_EQ(index.doc_length(0), 4.0);
    TermId t = index.vocabulary().lookup("title");
    ASSERT_EQ(index.postings(t).size(), 1u);
    EXPECT_FLOAT_EQ(index.postings(t)[0].weight, 3.0f);
}

TEST(InvertedIndex, RepeatedTermsAccumulate) {
    InvertedIndex index;
    index.add_document();
    index.add_terms({"x", "x", "x"});
    index.finalize();
    TermId t = index.vocabulary().lookup("x");
    EXPECT_FLOAT_EQ(index.postings(t)[0].weight, 3.0f);
}

TEST(InvertedIndex, LifecycleErrors) {
    InvertedIndex index;
    EXPECT_THROW(index.add_term("x"), cybok::ValidationError); // no document yet
    index.add_document();
    index.add_term("x");
    index.finalize();
    EXPECT_THROW(index.add_document(), cybok::ValidationError);
    EXPECT_THROW(index.finalize(), cybok::ValidationError);
    EXPECT_THROW((void)index.doc_length(5), cybok::NotFoundError);
}

TEST(InvertedIndex, EmptyIndexFinalizes) {
    InvertedIndex index;
    index.finalize();
    EXPECT_EQ(index.doc_count(), 0u);
    EXPECT_DOUBLE_EQ(index.avg_doc_length(), 0.0);
}

TEST(Bm25, RequiresFinalizedIndex) {
    InvertedIndex index;
    EXPECT_THROW(Bm25Scorer scorer(index), cybok::ValidationError);
}

TEST(Bm25, RanksMatchingDocsOnly) {
    InvertedIndex index = sample_index();
    auto hits = bm25(index, {"linux"});
    ASSERT_EQ(hits.size(), 2u);
    EXPECT_TRUE((hits[0].doc == 0 && hits[1].doc == 2) ||
                (hits[0].doc == 2 && hits[1].doc == 0));
}

TEST(Bm25, MoreMatchedTermsScoreHigher) {
    InvertedIndex index = sample_index();
    auto hits = bm25(index, {"linux", "kernel"});
    ASSERT_GE(hits.size(), 2u);
    EXPECT_EQ(hits[0].doc, 0u); // matches both terms
    EXPECT_EQ(hits[0].matched_terms.size(), 2u);
    EXPECT_GT(hits[0].score, hits[1].score);
}

TEST(Bm25, UnknownTermsIgnored) {
    InvertedIndex index = sample_index();
    EXPECT_TRUE(bm25(index, {"zzz"}).empty());
    EXPECT_EQ(bm25(index, {"zzz", "registry"}).size(), 1u);
}

TEST(Bm25, RareTermsHaveHigherIdf) {
    InvertedIndex index = sample_index();
    const TermId rare = index.vocabulary().lookup("registry"); // df = 1
    const TermId common = index.vocabulary().lookup("linux");  // df = 2
    EXPECT_GT(index.idf(rare), index.idf(common));
    EXPECT_DOUBLE_EQ(index.idf(rare), rsj_idf(4.0, 1.0));
    // An absent term (df = 0) would weigh the most.
    EXPECT_GT(rsj_idf(static_cast<double>(index.doc_count()), 0.0), index.idf(rare));
}

TEST(Bm25, DuplicateQueryTermsDontDoubleCount) {
    InvertedIndex index = sample_index();
    auto once = bm25(index, {"linux"});
    auto twice = bm25(index, {"linux", "linux"});
    ASSERT_EQ(once.size(), twice.size());
    EXPECT_DOUBLE_EQ(once[0].score, twice[0].score);
}

TEST(Bm25, ScoresDeterministic) {
    InvertedIndex index = sample_index();
    auto a = bm25(index, {"buffer", "linux"});
    auto b = bm25(index, {"buffer", "linux"});
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].doc, b[i].doc);
        EXPECT_DOUBLE_EQ(a[i].score, b[i].score);
    }
}
