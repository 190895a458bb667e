// Reusable per-thread scratch memory for the scoring kernel
// (text/segments.hpp; see the kernel section of docs/ARCHITECTURE.md).
//
// The kernel accumulates into dense arrays indexed by ordinal instead of
// per-query hash maps. Allocating those arrays per query would dominate
// small queries, so a QueryScratch owns them and is
// reused across queries: begin() bumps an epoch stamp instead of clearing,
// so a query touching m documents costs O(m) regardless of corpus size,
// and steady-state queries allocate nothing once the arrays have grown to
// the largest doc_count seen.
//
// Thread-safety contract: a QueryScratch is single-threaded state — it must
// never be shared between concurrently running queries. Callers either own
// one per worker lane or use tls_query_scratch(), which hands every OS
// thread its own arena. The kernel only reads the (immutable, finalized)
// indexes through it, so any number of threads may run kernel queries
// concurrently as long as each brings its own scratch — exactly the shape
// of the parallel Associator fan-out.

#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "text/postings.hpp"

namespace cybok::text {

/// Dense per-document accumulators plus the small per-query vectors the
/// kernel needs, all reused across queries (zero-allocation steady state).
class QueryScratch {
public:
    /// Start a new query over an ordinal space of `doc_count` documents:
    /// grows the dense arrays if needed and invalidates all previous
    /// per-doc state by bumping the epoch (O(1) amortized; O(doc_count)
    /// only on growth or epoch wrap-around).
    void begin(std::size_t doc_count);

    // Dense, DocId-indexed; valid for the current query iff stamp[d] == epoch.
    std::vector<double> score;          ///< accumulated score
    std::vector<double> evidence_idf;   ///< summed IDF of matched query terms
    std::vector<std::uint64_t> term_bits; ///< bit i = matched canonical term i (i < 64)
    std::vector<std::uint32_t> stamp;   ///< epoch stamp (== epoch → entry live)

    // Per-query vectors (cleared by begin(), capacity retained).
    std::vector<std::uint32_t> touched; ///< docs with live accumulators, touch order
    std::vector<double> heap;           ///< top-k floor min-heap storage
    std::vector<std::pair<double, std::uint32_t>> candidates; ///< (score, doc) collection
    /// Matches of canonical terms past the 64th, as (doc, term index)
    /// pairs. Only a query with more than 64 distinct terms fills it, and
    /// the kernel releases its storage when that query ends, so one wide
    /// query never grows the arena for the queries after it.
    std::vector<std::pair<std::uint32_t, std::uint32_t>> wide_terms;

    // Block-Max WAND state: one cursor per (query term, segment) list plus
    // per-cursor decode buffers of kBlockDocs entries, grown by
    // ensure_bmw() and reused across queries like everything else here.
    // `order` is the cursor permutation sorted by current ordinal.
    std::vector<PostingCursor> cursors;
    std::vector<std::uint32_t> order;
    std::vector<std::uint32_t> block_docs;  ///< n_cursors * kBlockDocs doc buffer
    std::vector<float> block_weights;       ///< n_cursors * kBlockDocs weight buffer

    /// Size the BMW cursor arrays for `n_cursors` cursors (amortized O(1)
    /// once grown).
    void ensure_bmw(std::size_t n_cursors) {
        if (cursors.size() < n_cursors) cursors.resize(n_cursors);
        const std::size_t need = n_cursors * kBlockDocs;
        if (block_docs.size() < need) {
            block_docs.resize(need);
            block_weights.resize(need);
        }
        order.clear();
    }

    // Per-(term, segment) resolved TermIds and, on the pruned path, the
    // per-cursor segment/term/scale metadata parallel to `cursors`.
    std::vector<std::uint32_t> seg_tids;   ///< term-major [n_terms * n_segments]
    std::vector<std::uint32_t> cursor_seg;  ///< segment index per cursor
    std::vector<std::uint32_t> cursor_term; ///< canonical term index per cursor
    std::vector<double> cursor_scale;       ///< block-bound scale per cursor
    std::vector<double> cursor_bound;       ///< scaled term-level max contribution

    std::uint32_t epoch = 0;
};

/// This thread's scratch arena (one per OS thread, created on first use).
/// The parallel Associator's pool threads each get their own, so the
/// engine's query path stays allocation-free in steady state without any
/// locking or API threading of arenas through callers.
[[nodiscard]] QueryScratch& tls_query_scratch();

} // namespace cybok::text
