// The BM25 scoring kernel — the only scoring code in the library. Both
// engines run it: a sealed SearchEngine as one identity segment, and a
// generational SegmentedEngine (search/generation.hpp builds its
// segments) as a base plus delta segments.
//
// A *segment* is one self-contained finalized InvertedIndex whose local
// documents map to global *ordinals* — positions in an append-only id
// space where ascending ordinal order equals merged-corpus document
// order. A sealed index is the degenerate case: ordinal == local doc id,
// nothing tombstoned, scored under its own statistics (sealed_view()).
// In a delta chain the base snapshot is segment 0 (also identity
// ordinals); each applied delta adds a segment whose ordinals are
// strictly ascending but interleave with earlier segments' (a modified
// record keeps its original ordinal, so its replacement lives in a later
// segment at a low ordinal). Every ordinal is *owned* by exactly one
// segment — the one holding its live version; postings for that ordinal
// in any other segment are tombstone-masked at query time.
//
// Two loops score a query, both over block-compressed postings:
//   * term-at-a-time (no top-k, or pruning off): every block of every
//     query term is decoded into flat per-ordinal accumulators held in a
//     reusable QueryScratch;
//   * Block-Max WAND (top-k with pruning): document-at-a-time, skipping
//     documents — and whole compressed blocks — whose score upper bound
//     cannot beat the current top-k floor.
// Each loop is a template over one flag, instantiated for the sealed
// one-segment view (ordinal translation, live mask and bound scale
// compiled out) and for the general segment chain.
//
// Bit-identity contract: for any query, the hits returned here — scores,
// ordinal order, matched canonical terms — are bitwise identical to the
// reference BM25 scorer over a from-scratch single index of the merged
// corpus (tests/oracle holds it), because
//   * per-document contributions are summed in the canonical ascending
//     term-string order (the caller resolves SegmentedTerm entries in
//     that order, and each document's postings live in exactly one
//     segment, so term-major traversal reproduces the reference order);
//   * each contribution uses the exact expression
//     idf * (tf * (k1+1)) / (tf + norm[doc]), with merged norms
//     recomputed per apply via the same formula the Bm25Scorer
//     constructor uses; and
//   * pruning only ever *skips* documents proven below the top-k floor:
//     bounds are valid (for delta chains, per-segment constructor bounds
//     rescaled into slightly loose merged-statistics bounds), and every
//     surviving document is scored exactly, so the selected set and its
//     scores match the unpruned result.
//
// Hits come back with doc = global ordinal and matched_terms = indices
// into the caller's term array (TermIds are per-segment, so they would be
// meaningless across segments); the engine maps ordinals to corpus
// positions and indices to strings.

#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "text/index.hpp"
#include "text/scratch.hpp"

namespace cybok::text {

/// A scored document hit, with the query terms that matched it (indices
/// into the query's canonical term array, ascending) — the search layer
/// turns these into human-readable evidence.
struct Hit {
    DocId doc;
    double score;
    std::vector<TermId> matched_terms;
};

/// Per-query kernel options. Defaults: every gate-passing hit, no
/// truncation.
struct KernelOptions {
    /// Keep only the best k hits by (score desc, doc asc); 0 = unlimited.
    std::size_t top_k = 0;
    /// Fused evidence-quality gate: a hit survives only if the summed
    /// IDF of its distinct matched terms reaches this threshold (the
    /// engine's min_evidence_idf, evaluated inside the kernel so the
    /// caller never re-deduplicates matched terms or recomputes IDF).
    double min_evidence_idf = 0.0;
    /// Block-Max WAND pruning (needs top_k > 0): documents — and whole
    /// compressed blocks — whose score upper bound cannot beat the
    /// current top-k floor are skipped without decompression. Exact — the
    /// surviving top-k is identical to the unpruned result.
    bool prune = true;
};

/// Per-query kernel instrumentation (accumulated into AssocMetrics by the
/// search layer).
struct KernelStats {
    std::uint64_t postings_scanned = 0; ///< postings actually decoded and scored
    std::uint64_t docs_pruned = 0;      ///< pivot documents proven below the top-k floor
    std::uint64_t hits_gated = 0;       ///< candidates dropped by the evidence gate
    std::uint64_t blocks_decoded = 0;   ///< posting blocks decompressed
    std::uint64_t blocks_skipped = 0;   ///< posting blocks skipped without decompression
};

/// One segment, viewed by the kernel. All pointers are borrowed and must
/// outlive the query; arrays are indexed by the segment's local DocId.
struct SegmentView {
    const InvertedIndex* index = nullptr; ///< finalized
    const Bm25Scorer* scorer = nullptr;   ///< params + bound tables under the segment's own stats
    /// BM25 length norms under the statistics the query is scored with:
    /// the scorer's own for a sealed index, merged ones for a delta chain
    /// (see merged_norms()).
    const double* norms = nullptr;
    /// Local doc -> global ordinal, strictly ascending; null = identity.
    const std::uint32_t* ordinals = nullptr;
    /// 1 = this segment owns the ordinal (live); 0 = tombstoned here;
    /// null = every document live.
    const std::uint8_t* live = nullptr;
    /// Rescale factor per local TermId turning the scorer's constructor
    /// bounds into valid merged-statistics bounds (see
    /// merged_bound_scales()); null = unit scales.
    const double* bound_scale = nullptr;
    std::size_t docs = 0;
};

/// One canonical query term: distinct, in ascending term-string order,
/// carrying the IDF it is scored with (for a delta chain, the
/// merged-corpus IDF). Terms with df == 0 should be dropped by the caller
/// — a from-scratch merged index would not contain them.
struct SegmentedTerm {
    std::string_view term;
    double idf;
};

/// Kernel instrumentation plus the delta-chain counters (which a sealed
/// one-segment view leaves at 0).
struct SegmentedStats {
    KernelStats kernel;
    std::uint64_t segments_visited = 0;  ///< delta-chain segments holding >= 1 query-term list
    std::uint64_t tombstones_masked = 0; ///< postings skipped as dead
};

/// Score `terms` across `segments`. `ordinal_limit` bounds the ordinal
/// space (max ordinal ever assigned + 1) and sizes the scratch arena.
/// Any number of distinct terms is supported. All segments must share
/// the base scorer's BM25 parameters.
[[nodiscard]] std::vector<Hit> query_segments(const std::vector<SegmentView>& segments,
                                              std::size_t ordinal_limit,
                                              const std::vector<SegmentedTerm>& terms,
                                              QueryScratch& scratch, const KernelOptions& opts,
                                              SegmentedStats* stats = nullptr);

/// A sealed index as a one-segment view: identity ordinals, no
/// tombstones, the scorer's own norms, unit bound scales. query_segments
/// runs it through the loops' sealed specialization.
[[nodiscard]] SegmentView sealed_view(const InvertedIndex& index,
                                      const Bm25Scorer& scorer) noexcept;

/// The canonical terms of `tokens` against one sealed index: the distinct
/// tokens the vocabulary holds, in ascending term-string order, each with
/// the index's own IDF. Term strings — not TermIds — order them, because
/// ids depend on corpus interning order while the string order does not:
/// a from-scratch index over a merged corpus and a segmented engine over
/// base + deltas agree on it, so their floating-point sums agree too.
/// The views point into the index's vocabulary.
[[nodiscard]] std::vector<SegmentedTerm> sealed_terms(const InvertedIndex& index,
                                                      const std::vector<std::string>& tokens);

/// Per-doc BM25 norms for one segment under merged statistics — the
/// byte-exact expression the from-scratch Bm25Scorer constructor uses
/// (k1 * (1 - b + b * len / max(avg, 1e-9))), so evaluated scores cannot
/// drift from a merged rebuild. Recomputed per apply (O(segment docs)).
[[nodiscard]] std::vector<double> merged_norms(const InvertedIndex& index,
                                               Bm25Scorer::Params params, double merged_avg_len);

/// Per-local-term rescale factors for one segment's constructor bounds:
///
///   scale[t] = (idf_merged[t] / idf_local[t]) * max(1, avg_m / avg_l) * slack
///
/// Validity: a posting's merged contribution differs from its local one
/// by the idf ratio times (tf + norm_l) / (tf + norm_m), and the latter
/// is <= max(1, norm_l / norm_m) <= max(1, avg_m / avg_l) (mediant
/// inequality; norms are affine in len/avg with positive coefficients).
/// The slack factor absorbs floating-point rounding in computing the
/// scale itself. Bounds only need validity, not tightness — every
/// admitted document is scored exactly. `merged_idf[t]` is the merged
/// IDF of local term t's string. Recomputed per apply (O(vocabulary)).
[[nodiscard]] std::vector<double> merged_bound_scales(const InvertedIndex& index,
                                                      const std::vector<double>& merged_idf,
                                                      double merged_avg_len);

} // namespace cybok::text
