// Generational segmented indexing — O(delta) corpus updates with
// query-time merge (the engine half; text/segments.hpp is the kernel
// half, kb/delta.hpp the corpus half).
//
// A SegmentedEngine overlays one immutable base SearchEngine with a chain
// of small *delta segments*, one per applied kb::CorpusDelta. Applying a
// delta costs O(delta): only the added/modified records are tokenized and
// indexed (into a fresh self-contained segment), plus O(total) cheap
// table refreshes (length norms, tombstone masks, bound rescales) that
// touch no record text and do no per-record allocation — document
// frequencies and id placement are kept as *overlays* over the base
// index (only the terms/ids a delta touched are stored), so no apply
// ever walks the base vocabulary or copies the corpus. The base snapshot
// — possibly an mmap'd zero-copy generation — is never rewritten, and
// the merged corpus is only materialized lazily, on the first corpus()
// call (compaction, cross-reference queries, serialization); the lexical
// query path resolves records straight from the base + segment storage.
//
// Ordinals. Every record version is placed in an append-only per-class
// *ordinal* space: base records keep their base position, added records
// take the next free ordinal, a modified record keeps the ordinal of the
// version it replaces, and a withdrawn record's ordinal dies (re-adding
// the same id later takes a fresh ordinal). Corpus mutation
// (kb::apply_corpus_delta: erase shifts down, replace in place, add
// appends) preserves exactly this order, so ascending live ordinals equal
// merged-corpus record order — the order a from-scratch rebuild would
// index — and the engine only needs one table (merged_pos) to translate
// kernel ordinals into merged corpus indexes.
//
// Bit-identity. For every query, results (scores, order, evidence,
// explain statistics) are bitwise identical to a from-scratch SearchEngine
// over the merged corpus; tests/test_delta.cpp holds a differential
// oracle over base + N deltas, pre- and post-compaction, across the soak
// seed matrix. Compaction *is* the from-scratch rebuild (core::compact),
// which makes its correctness argument trivial.

#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "kb/delta.hpp"
#include "search/engine.hpp"
#include "text/segments.hpp"

namespace cybok::search {

/// One class's slice of one applied delta: a self-contained finalized
/// index over the records the delta added/modified, plus the scorer
/// holding its local-statistics bound tables and the local-doc -> ordinal
/// map. Immutable once built; shared by every later engine in the chain.
struct ClassDeltaSegment {
    text::InvertedIndex index;
    std::optional<text::Bm25Scorer> scorer; ///< set iff index has documents
    std::vector<std::uint32_t> ordinals;    ///< local doc -> ordinal, strictly ascending
};

/// One applied delta across the three record classes, plus the record
/// versions it carries (aligned with each class segment's local document
/// order) — the query path serves Match identity and df bookkeeping from
/// these instead of a materialized merged corpus.
struct DeltaSegment {
    std::array<ClassDeltaSegment, 3> cls; ///< indexed by VectorClass
    std::vector<kb::AttackPattern> patterns;
    std::vector<kb::Weakness> weaknesses;
    std::vector<kb::Vulnerability> vulnerabilities;
};

/// What one apply did and cost (the serve layer reports this per
/// delta.apply request; bench_delta charts it against rebuild cost).
struct DeltaApplyMetrics {
    kb::DeltaApplyReport report;  ///< added/modified/withdrawn per class
    std::uint64_t apply_ns = 0;   ///< end-to-end apply wall clock
    std::size_t segment_docs = 0; ///< documents indexed into the new segment
    std::size_t segments = 0;     ///< delta segments in the resulting engine
};

/// An immutable engine generation: base SearchEngine + delta segments.
///
/// Ownership: the engine borrows the base SearchEngine (which must
/// outlive it — core::SharedEngine chains a keepalive) and shares earlier
/// delta segments with the engine it was applied on; it owns the
/// per-apply derived tables and, once someone asks for it, a lazily
/// materialized merged corpus. Applying is a *constructor*:
/// the previous engine is left untouched and keeps serving (so the serve
/// layer flips generations without waiting for requests on the old one),
/// and a failed apply — bad delta, injected "search.delta.segment" fault —
/// throws before anything is published.
class SegmentedEngine final : public QueryEngine {
public:
    /// First delta over a plain base engine.
    SegmentedEngine(const SearchEngine& base, const kb::CorpusDelta& delta)
        : SegmentedEngine(base, nullptr, delta) {}
    /// Stack a further delta on an existing segmented engine.
    SegmentedEngine(const SegmentedEngine& prev, const kb::CorpusDelta& delta)
        : SegmentedEngine(*prev.base_, &prev, delta) {}

    /// The merged corpus, materialized lazily on first call (records in
    /// merged order + a reindex — O(corpus)). The apply path and the
    /// lexical query path never touch it; compaction, cross-reference
    /// queries (platform binding, weakness expansion), and serialization
    /// do. Thread-safe (call_once).
    [[nodiscard]] const kb::Corpus& corpus() const override;
    [[nodiscard]] const EngineOptions& options() const noexcept override { return options_; }
    [[nodiscard]] const BuildMetrics& build_metrics() const noexcept override {
        return build_metrics_;
    }
    /// Base stats plus every delta segment's (delta postings are owned
    /// in-memory even when the base is mapped).
    [[nodiscard]] text::IndexStats index_stats() const noexcept override;

    [[nodiscard]] const SearchEngine& base() const noexcept { return *base_; }
    [[nodiscard]] std::size_t segment_count() const noexcept { return deltas_.size(); }
    [[nodiscard]] const DeltaApplyMetrics& apply_metrics() const noexcept { return apply_; }
    /// Live documents of one class (== merged corpus size for the class).
    [[nodiscard]] std::size_t live_docs(VectorClass cls) const noexcept {
        return state(cls).live_docs;
    }

protected:
    /// The base segment (identity ordinals) and every delta segment, under
    /// merged statistics, with the merged-position map.
    [[nodiscard]] LexicalPlan plan_lexical(const std::vector<std::string>& tokens,
                                           VectorClass cls) const override;
    [[nodiscard]] std::size_t class_doc_frequency(VectorClass cls,
                                                  std::string_view term) const override;
    [[nodiscard]] std::size_t class_doc_count(VectorClass cls) const noexcept override {
        return state(cls).live_docs;
    }
    // Record access from the base + segment overlay — no merged corpus.
    [[nodiscard]] const kb::AttackPattern& pattern_at(std::size_t index) const override;
    [[nodiscard]] const kb::Weakness& weakness_at(std::size_t index) const override;
    [[nodiscard]] const kb::Vulnerability& vulnerability_at(std::size_t index) const override;

private:
    /// All per-class incremental state. The carried half is copied from
    /// engine to engine (flat arrays: memcpy; overlays: O(touched)) and
    /// updated in O(delta); the derived per-segment tables are rebuilt
    /// per apply in O(total) *arithmetic* — no hashing, no per-record
    /// allocation, no base-vocabulary walk.
    struct ClassState {
        // -- carried incrementally ------------------------------------------
        std::uint32_t next_ordinal = 0; ///< == bound of the ordinal space
        std::size_t live_docs = 0;
        std::vector<std::uint8_t> alive;  ///< ordinal -> currently live?
        std::vector<std::uint32_t> owner; ///< ordinal -> owning segment (0 = base)
        std::vector<std::uint32_t> local; ///< ordinal -> local doc in its owner
        /// df overlay: term -> merged live df, stored only for terms some
        /// delta touched; every other term's merged df equals the base
        /// index's df column. std::map keeps iteration deterministic; the
        /// per-apply touch count is O(delta terms · log).
        std::map<std::string, std::uint32_t, std::less<>> df_diff;
        /// id placement overlay: stringified id -> ordinal, stored only
        /// for ids placed off their base position (added or re-added
        /// records). Base ids sit at ordinal == base corpus position;
        /// liveness comes from `alive`, so withdrawals need no entry.
        std::map<std::string, std::uint32_t> ordinal_diff;

        // -- derived, rebuilt per apply. Segment s: 0 = base, 1.. = deltas_.
        double merged_avg = 0.0; ///< mean weighted doc length over live docs
        std::vector<std::uint32_t> merged_pos;   ///< ordinal -> merged corpus index (dead: ~0u)
        /// merged corpus index -> (owning segment, local doc): the record
        /// accessors (make_match) resolve hits through this.
        std::vector<std::pair<std::uint32_t, std::uint32_t>> rec_of;
        std::vector<std::vector<std::uint8_t>> live; ///< per segment: local doc liveness
        std::vector<std::vector<double>> norms;      ///< per segment: merged-stats norms
        std::vector<std::vector<double>> scales;     ///< per segment: bound rescale factors
    };

    SegmentedEngine(const SearchEngine& base, const SegmentedEngine* prev,
                    const kb::CorpusDelta& delta);

    [[nodiscard]] const ClassState& state(VectorClass cls) const noexcept {
        return state_[static_cast<std::size_t>(cls)];
    }
    [[nodiscard]] ClassState& state(VectorClass cls) noexcept {
        return state_[static_cast<std::size_t>(cls)];
    }
    [[nodiscard]] const ClassDeltaSegment& class_segment(std::size_t seg,
                                                         VectorClass cls) const noexcept {
        return deltas_[seg - 1]->cls[static_cast<std::size_t>(cls)];
    }
    void rebuild_derived_tables(VectorClass cls);
    /// The merged df of `term` in `cls`: overlay entry if touched, else
    /// the base index's df column, else 0.
    [[nodiscard]] std::uint32_t merged_df(VectorClass cls, std::string_view term) const;
    void materialize_corpus() const;

    const SearchEngine* base_;
    std::vector<std::shared_ptr<const DeltaSegment>> deltas_;
    std::array<ClassState, 3> state_;
    EngineOptions options_;
    BuildMetrics build_metrics_;
    DeltaApplyMetrics apply_;

    /// Lazily materialized merged corpus (corpus() — call_once guarded).
    mutable std::once_flag corpus_once_;
    mutable std::unique_ptr<kb::Corpus> merged_corpus_;
};

} // namespace cybok::search
