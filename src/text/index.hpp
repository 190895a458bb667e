// Vocabulary and inverted index over tokenized documents, plus the BM25
// scorer's precomputed tables. Scoring itself is the one kernel in
// text/segments.hpp.
//
// Thread-safety contract (build-then-freeze): an InvertedIndex has two
// phases. During *building* (add_document / add_term) it is single-writer
// and must not be read. After finalize() the index — including its
// Vocabulary — is logically immutable: every remaining operation is const
// and performs no hidden mutation, so any number of threads may query it
// concurrently with no synchronization, provided finalize() happens-before
// the first concurrent read (e.g. via the thread-creation ordering the
// parallel association pipeline uses). A Bm25Scorer's tables are built
// from a finalized index and are immutable too.
//
// Storage: finalize() compresses the posting lists into a block-compressed
// PostingStore (text/postings.hpp) and the per-doc / per-term tables into
// flat f64 tables. A fresh build owns those bytes; a thawed index *views*
// snapshot slabs in place — either an aligned owned copy or an mmap — so
// thaw does no per-posting work and the resident representation is the
// compressed one in both cases.
//
// Snapshot freeze/thaw extends the contract: freeze() is a const read of a
// finalized index (safe concurrently with queries), and thaw() returns an
// index that is *born finalized* — the build phase never existed for it,
// so the same happens-before rule applies from the moment thaw returns.
// A thawed index must not outlive the slab memory it views.

#pragma once

#include <cmath>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "text/postings.hpp"
#include "util/bytes.hpp"
#include "util/error.hpp"

namespace cybok::text {

/// Robertson–Spärck Jones IDF with +1 smoothing — the single spelling of
/// the formula shared by BM25 scoring, the engine's evidence-quality gate,
/// and explain() output, so gate and explanation cannot drift.
[[nodiscard]] inline double rsj_idf(double n_docs, double doc_freq) noexcept {
    return std::log(1.0 + (n_docs - doc_freq + 0.5) / (doc_freq + 0.5));
}

/// Transparent string hash so string_view probes into the vocabulary map
/// need not materialize a std::string (the lookup hot path runs once per
/// query token).
struct StringHash {
    using is_transparent = void;
    [[nodiscard]] std::size_t operator()(std::string_view s) const noexcept {
        return std::hash<std::string_view>{}(s);
    }
};

/// Bidirectional term <-> dense id mapping. lookup() is const and
/// allocation-free (heterogeneous probe); safe for concurrent readers once
/// interning has stopped (see the file-level thread-safety contract).
class Vocabulary {
public:
    /// Id of `term`, interning it if new.
    TermId intern(std::string_view term);
    /// Id of `term` or kNoTerm when absent (no interning).
    [[nodiscard]] TermId lookup(std::string_view term) const noexcept;
    /// The interned spelling for `id`; throws NotFoundError on a bad id.
    [[nodiscard]] const std::string& term(TermId id) const;
    [[nodiscard]] std::size_t size() const noexcept { return terms_.size(); }

    /// Serialize terms in id order; thaw() re-interns them in that order,
    /// so term ids round-trip exactly (snapshot freeze/thaw support).
    void freeze(util::ByteWriter& w) const;
    [[nodiscard]] static Vocabulary thaw(util::ByteReader& r);

private:
    std::unordered_map<std::string, TermId, StringHash, std::equal_to<>> ids_;
    std::vector<std::string> terms_;
};

/// Resident-size and shape accounting for one finalized index (summed
/// across indexes by SearchEngine::index_stats; the bench regression gate
/// watches postings_bytes against uncompressed_postings_bytes).
struct IndexStats {
    std::uint64_t docs = 0;
    std::uint64_t terms = 0;
    std::uint64_t postings = 0;
    std::uint64_t blocks = 0;
    /// Resident bytes of the compressed posting store (term table + block
    /// metadata + packed data).
    std::uint64_t postings_bytes = 0;
    /// Resident bytes of the index's flat f64 tables (doc lengths, IDF).
    std::uint64_t table_bytes = 0;
    /// What the postings would cost uncompressed: 8 bytes per posting
    /// (u32 doc + f32 weight) plus a 24-byte vector header per term — the
    /// resident cost of the pre-block representation, kept as the
    /// compression-ratio baseline.
    std::uint64_t uncompressed_postings_bytes = 0;
    /// True when every index counted serves its postings from external
    /// slab memory (snapshot thaw — an owned aligned copy or an mmap)
    /// rather than bytes it encoded itself.
    bool mapped = false;

    IndexStats& operator+=(const IndexStats& o) noexcept {
        docs += o.docs;
        terms += o.terms;
        postings += o.postings;
        blocks += o.blocks;
        postings_bytes += o.postings_bytes;
        table_bytes += o.table_bytes;
        uncompressed_postings_bytes += o.uncompressed_postings_bytes;
        mapped = mapped && o.mapped;
        return *this;
    }
};

namespace detail {
/// Reject adding a document when `doc_count` documents already exist and
/// the next id would collide with the UINT32_MAX "no current document"
/// sentinel. Throws ValidationError naming the offending count. Factored
/// out of add_document so the overflow contract is unit-testable without
/// actually adding 2^32 documents.
void check_doc_capacity(std::size_t doc_count);
} // namespace detail

/// Inverted index with document length normalization. Documents are added
/// as pre-analyzed token streams; each token may carry a field weight
/// (e.g. title tokens count 3x body tokens). finalize() freezes the index;
/// after that every operation is const and concurrent reads are safe (the
/// build-then-freeze contract at the top of this file).
class InvertedIndex {
public:
    /// Begin a new document; returns its id. Tokens are then accumulated
    /// via add_term until the next add_document call.
    DocId add_document();
    /// Accumulate one token into the current document (build phase only).
    void add_term(std::string_view token, float field_weight = 1.0f);

    /// Convenience: a whole token vector with one weight.
    void add_terms(const std::vector<std::string>& tokens, float field_weight = 1.0f);

    /// Finish building: sorts postings, block-compresses them into the
    /// posting store, computes statistics. Must be called once before any
    /// query; adding after finalize throws. This is the freeze point of
    /// the thread-safety contract: finalize() must happen-before any
    /// concurrent read of this index.
    void finalize();

    /// True once finalize() has run (reads are only legal then).
    [[nodiscard]] bool finalized() const noexcept { return finalized_; }
    /// Number of documents added so far.
    [[nodiscard]] std::size_t doc_count() const noexcept {
        return finalized_ ? doc_lengths_.size() : build_lengths_.size();
    }
    /// Number of distinct terms interned so far.
    [[nodiscard]] std::size_t term_count() const noexcept { return vocab_.size(); }
    /// Mean weighted document length (valid after finalize()).
    [[nodiscard]] double avg_doc_length() const noexcept { return avg_len_; }
    /// The term <-> id mapping backing this index.
    [[nodiscard]] const Vocabulary& vocabulary() const noexcept { return vocab_; }

    /// Number of documents containing the term (0 for unknown terms).
    [[nodiscard]] std::size_t doc_frequency(std::string_view term) const noexcept;
    /// Weighted length of a document.
    [[nodiscard]] double doc_length(DocId d) const;

    /// View of term `t`'s compressed posting list (finalized only; an
    /// empty view for unknown ids). The cheap accessor query loops use.
    [[nodiscard]] ListView list(TermId t) const noexcept { return store_.list(t); }
    /// Materialize term `t`'s postings (tests, explain paths — decodes
    /// every block; not for query hot loops).
    [[nodiscard]] std::vector<Posting> postings(TermId t) const { return decode_postings(list(t)); }
    /// The block-compressed posting storage (finalized only).
    [[nodiscard]] const PostingStore& store() const noexcept { return store_; }
    /// Shape and resident-size accounting (finalized only).
    [[nodiscard]] IndexStats stats() const noexcept;

    /// Precomputed rsj_idf of a term (valid after finalize(); 0 for ids
    /// outside the vocabulary). This is both the BM25 term weight and the
    /// evidence-gate weight — one table, computed once at finalize, so
    /// the kernel never recomputes a log.
    [[nodiscard]] double idf(TermId t) const noexcept {
        return t < idf_.size() ? idf_[t] : 0.0;
    }

    /// Serialize the finalized index: vocabulary and counts into the eager
    /// stream, the posting store and f64 tables as aligned slabs. Requires
    /// finalized(); throws ValidationError otherwise.
    void freeze(util::ByteWriter& w, util::SlabWriter& slabs) const;
    /// Inverse of freeze(): an already-finalized index whose tables *view*
    /// `slabs` in place — no per-posting decode, no table copies. The
    /// thawed index is bit-identical to the one that was frozen and must
    /// not outlive the slab memory. Structural slab validation failures
    /// throw ParseError; shape mismatches throw ValidationError.
    [[nodiscard]] static InvertedIndex thaw(util::ByteReader& r, const util::SlabView& slabs);

private:
    Vocabulary vocab_;
    // Finalized state: compressed postings + flat tables (owned or viewing
    // snapshot slabs — see the storage note at the top of this file).
    PostingStore store_;
    util::F64Table doc_lengths_;
    util::F64Table idf_; // rsj_idf per term, filled by finalize()
    double avg_len_ = 0.0;
    bool finalized_ = false;
    // Build-phase state, discarded by finalize().
    std::vector<std::vector<Posting>> build_postings_; // indexed by TermId
    std::vector<double> build_lengths_;
    DocId current_doc_ = UINT32_MAX;
    std::unordered_map<TermId, float> accum_; // per-document accumulation
    void flush_accum();
};

/// Okapi BM25 over one finalized InvertedIndex: the k1/b knobs plus the
/// tables the kernel (text/segments.hpp) reads — per-doc length norms and
/// the per-term and per-block max impact scores Block-Max WAND bounds
/// with. Immutable once built, so any number of threads may read it.
class Bm25Scorer {
public:
    /// Standard BM25 knobs: k1 = term-frequency saturation, b = length
    /// normalization strength.
    struct Params {
        double k1 = 1.2;
        double b = 0.75;
    };

    explicit Bm25Scorer(const InvertedIndex& index) : Bm25Scorer(index, Params{}) {}
    Bm25Scorer(const InvertedIndex& index, Params params);

    /// The BM25 knobs this scorer was built with (every segment of one
    /// query is scored with the base scorer's parameters).
    [[nodiscard]] const Params& params() const noexcept { return params_; }
    /// Per-doc length norms k1*(1-b+b*len/avg) under this index's own
    /// statistics, indexed by DocId (a sealed index is scored with these).
    [[nodiscard]] const double* norms() const noexcept { return norms_.data(); }
    /// Constructor-computed max posting contribution of term `t` under
    /// *this index's own* statistics (0 for ids outside the vocabulary).
    /// The segment layer rescales these into valid bounds under merged
    /// statistics; see text/segments.hpp.
    [[nodiscard]] double max_contribution(TermId t) const noexcept {
        return t < max_contrib_.size() ? max_contrib_[t] : 0.0;
    }
    /// Max contribution of one compressed block, by global block index
    /// (ListView::block_base + local block, so always < the index's block
    /// count), under this index's own stats.
    [[nodiscard]] double block_max_bound(std::size_t global_block) const noexcept {
        return block_max_[global_block];
    }

    /// Serialize params into the eager stream and the constructor-computed
    /// tables (per-doc BM25 norms, per-term and per-block max impact
    /// scores) as aligned slabs.
    void freeze(util::ByteWriter& w, util::SlabWriter& slabs) const;
    /// Construct over `index` with the tables viewed from `slabs` instead
    /// of recomputed — the snapshot thaw path. Throws ValidationError when
    /// the table shapes do not match `index`.
    [[nodiscard]] static Bm25Scorer thaw(const InvertedIndex& index, util::ByteReader& r,
                                         const util::SlabView& slabs);

private:
    struct ThawTag {};
    Bm25Scorer(ThawTag, const InvertedIndex& index, util::ByteReader& r,
               const util::SlabView& slabs);

    Params params_;
    // Precomputed at construction so the query loop does no division by
    // avg_doc_length and no per-posting recomputation:
    util::F64Table norms_;       ///< k1*(1-b+b*len/avg) per doc
    util::F64Table max_contrib_; ///< max posting contribution per term (WAND pivot bound)
    util::F64Table block_max_;   ///< max contribution per block, by global block index
};

} // namespace cybok::text
