// The reference BM25 scorer that every kernel test and soak oracle
// compares text::query_segments against: per-query hash-map accumulators,
// every posting decoded, no pruning — the plainest spelling of the
// ranking. The library never runs it, so it lives with the tests.

#pragma once

#include <string>
#include <vector>

#include "text/index.hpp"
#include "text/scratch.hpp"
#include "text/segments.hpp"

namespace cybok::oracle {

/// Rank every document of `index` matching >= 1 query token, with the
/// BM25 params and length norms of `scorer`. Sorted by descending score
/// (ties by ascending doc id); matched_terms are TermIds of `index`.
/// Distinct query terms are accumulated in the canonical ascending
/// term-string order, so per-document sums are bit-identical to the
/// kernel's.
[[nodiscard]] std::vector<text::Hit> bm25_query(const text::InvertedIndex& index,
                                                const text::Bm25Scorer& scorer,
                                                const std::vector<std::string>& tokens);

/// The engine semantics the kernel fuses in, applied to reference hits:
/// matched terms distinct and in canonical order, the summed-IDF evidence
/// gate, top-k truncation.
[[nodiscard]] std::vector<text::Hit> reference_hits(const std::vector<text::Hit>& raw,
                                                    const text::InvertedIndex& index,
                                                    const text::KernelOptions& opts);

/// The kernel over `index` as a sealed one-segment view, with matched
/// terms mapped from canonical term indices back to `index` TermIds, so
/// results compare directly with reference_hits. Kernel counters are
/// added to `stats` when non-null.
[[nodiscard]] std::vector<text::Hit> sealed_kernel(const text::InvertedIndex& index,
                                                   const text::Bm25Scorer& scorer,
                                                   const std::vector<std::string>& tokens,
                                                   text::QueryScratch& scratch,
                                                   const text::KernelOptions& opts = {},
                                                   text::KernelStats* stats = nullptr);

} // namespace cybok::oracle
