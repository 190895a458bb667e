#include "oracle/bm25_reference.hpp"

#include <algorithm>
#include <unordered_map>

namespace cybok::oracle {

using text::DocId;
using text::Hit;
using text::TermId;

std::vector<Hit> bm25_query(const text::InvertedIndex& index, const text::Bm25Scorer& scorer,
                            const std::vector<std::string>& tokens) {
    // Deduplicate query terms; repeated query terms in short attribute
    // strings should not double-count. Iterated in the canonical ascending
    // term-string order so per-document sums are bit-identical to the
    // kernel's.
    const text::Vocabulary& vocab = index.vocabulary();
    std::vector<TermId> terms;
    for (const std::string& tok : tokens) {
        const TermId t = vocab.lookup(tok);
        if (t != text::kNoTerm) terms.push_back(t);
    }
    std::sort(terms.begin(), terms.end(),
              [&vocab](TermId a, TermId b) { return vocab.term(a) < vocab.term(b); });
    terms.erase(std::unique(terms.begin(), terms.end()), terms.end());
    const double k1 = scorer.params().k1;
    const double* norms = scorer.norms();
    std::unordered_map<DocId, Hit> acc;
    for (TermId t : terms) {
        const double idf_t = index.idf(t);
        text::for_each_posting(index.list(t), [&](DocId d, float w) {
            const double tf = w;
            const double contrib = idf_t * (tf * (k1 + 1.0)) / (tf + norms[d]);
            Hit& h = acc.try_emplace(d, Hit{d, 0.0, {}}).first->second;
            h.score += contrib;
            h.matched_terms.push_back(t);
        });
    }
    std::vector<Hit> hits;
    hits.reserve(acc.size());
    for (auto& [_, h] : acc) hits.push_back(std::move(h));
    std::sort(hits.begin(), hits.end(), [](const Hit& a, const Hit& b) {
        if (a.score != b.score) return a.score > b.score;
        return a.doc < b.doc;
    });
    return hits;
}

std::vector<Hit> reference_hits(const std::vector<Hit>& raw, const text::InvertedIndex& index,
                                const text::KernelOptions& opts) {
    std::vector<Hit> out;
    const text::Vocabulary& vocab = index.vocabulary();
    for (Hit h : raw) {
        std::sort(h.matched_terms.begin(), h.matched_terms.end(),
                  [&vocab](TermId a, TermId b) { return vocab.term(a) < vocab.term(b); });
        h.matched_terms.erase(std::unique(h.matched_terms.begin(), h.matched_terms.end()),
                              h.matched_terms.end());
        double evidence = 0.0;
        for (TermId t : h.matched_terms) evidence += index.idf(t);
        if (evidence < opts.min_evidence_idf) continue;
        out.push_back(std::move(h));
    }
    if (opts.top_k > 0 && out.size() > opts.top_k) out.resize(opts.top_k);
    return out;
}

std::vector<Hit> sealed_kernel(const text::InvertedIndex& index, const text::Bm25Scorer& scorer,
                               const std::vector<std::string>& tokens,
                               text::QueryScratch& scratch, const text::KernelOptions& opts,
                               text::KernelStats* stats) {
    const std::vector<text::SegmentedTerm> terms = text::sealed_terms(index, tokens);
    const std::vector<text::SegmentView> view{text::sealed_view(index, scorer)};
    text::SegmentedStats sstats;
    std::vector<Hit> hits =
        text::query_segments(view, index.doc_count(), terms, scratch, opts, &sstats);
    for (Hit& h : hits)
        for (TermId& t : h.matched_terms) t = index.vocabulary().lookup(terms[t].term);
    if (stats != nullptr) {
        stats->postings_scanned += sstats.kernel.postings_scanned;
        stats->docs_pruned += sstats.kernel.docs_pruned;
        stats->hits_gated += sstats.kernel.hits_gated;
        stats->blocks_decoded += sstats.kernel.blocks_decoded;
        stats->blocks_skipped += sstats.kernel.blocks_skipped;
    }
    return hits;
}

} // namespace cybok::oracle
