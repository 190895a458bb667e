// The attack-vector search engine — capability (2) of the paper: associate
// attack-vector data (attack patterns, weaknesses, vulnerabilities) to
// elements of the system model.
//
// Association uses two mechanisms, mirroring the prototype's behavior:
//
//  * lexical matching: attribute text is analyzed (tokenize, stopwords,
//    stem) and ranked against record text with BM25. High-level
//    descriptors therefore land on attack patterns and weaknesses, whose
//    texts are technique-level prose.
//  * platform binding: PlatformRef attributes resolve to CPE-style names
//    and match vulnerabilities through exact product binding — the
//    low-level end of the paper's fidelity spectrum.
//
// Every match carries evidence (the matched terms or the platform URI), so
// an analyst can audit *why* a vector was associated — the paper's answer
// to NLP sensitivity is to keep the human in the loop.

#pragma once

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "cvss/cvss.hpp"
#include "kb/corpus.hpp"
#include "model/system_model.hpp"
#include "search/metrics.hpp"
#include "text/index.hpp"
#include "text/segments.hpp"
#include "util/bytes.hpp"
#include "util/mmap.hpp"
#include "util/thread_pool.hpp"

namespace cybok::search {

/// Which record family a match refers to.
enum class VectorClass : std::uint8_t { AttackPattern, Weakness, Vulnerability };
[[nodiscard]] std::string_view vector_class_name(VectorClass c) noexcept;

/// How a match was established.
enum class MatchVia : std::uint8_t {
    Lexical,         ///< NL similarity between attribute and record text
    PlatformBinding, ///< CPE product match
    CrossReference,  ///< derived by following corpus cross-references
};
[[nodiscard]] std::string_view match_via_name(MatchVia v) noexcept;

/// One associated attack vector.
struct Match {
    VectorClass cls = VectorClass::AttackPattern;
    std::size_t corpus_index = 0; ///< index into the corpus vector for `cls`
    std::string id;               ///< "CAPEC-88", "CWE-78", "CVE-2019-10953"
    std::string title;            ///< record name / description head
    double score = 0.0;           ///< ranking score (BM25; 0 for bindings)
    MatchVia via = MatchVia::Lexical;
    std::vector<std::string> evidence; ///< matched (stemmed) terms or CPE URI
    /// CVSS base score for vulnerabilities with a vector; -1 when absent.
    double severity = -1.0;
};

/// Engine configuration.
struct EngineOptions {
    /// A lexical match is kept only if the summed IDF of its distinct
    /// matched terms reaches this threshold — this suppresses matches made
    /// purely of ubiquitous words, the paper's "unspecific properties
    /// result in … many irrelevant results" failure mode.
    double min_evidence_idf = 2.0;
    /// Match vulnerabilities lexically as well as via platform binding
    /// (ablation; default off — description text of CVEs is noisy).
    bool lexical_vulnerabilities = false;
    /// Weight multiplier for record titles/names relative to body text.
    float title_weight = 3.0f;
    /// Keep only the best k lexical hits per class query (0 = unlimited).
    /// Applied after the evidence gate; it also arms the kernel's
    /// Block-Max WAND pruning, which skips documents that provably cannot
    /// reach the top k — the surviving hits are exact.
    std::size_t max_lexical_hits = 0;
    /// Lanes for engine *construction*: record text is analyzed in shards
    /// on a util::ThreadPool and the three class indexes are built and
    /// finalized concurrently. 0 = hardware concurrency, 1 = the
    /// sequential reference path. The built engine is bit-identical across
    /// every value (the snapshot determinism test proves it), so this is
    /// deliberately NOT part of signature().
    std::size_t build_threads = 0;

    /// Compact stable encoding of every option that influences query
    /// results — the engine-options half of the query-cache key, so caches
    /// built under different options can never alias.
    [[nodiscard]] std::string signature() const;
};

/// The abstract query surface every association consumer runs against:
/// the monolithic SearchEngine below and the generational SegmentedEngine
/// (search/generation.hpp) both implement it, and both promise the same
/// thing — for the same corpus content, bit-identical results.
///
/// The composite queries (attribute fan-out, platform binding, weakness
/// expansion, explain) and the lexical path itself (one scoring kernel,
/// text::query_segments; hit-to-Match materialization; kernel counters)
/// are implemented here once over small hooks — plan_lexical plus the
/// per-class document statistics — so the two engines cannot drift in
/// scoring, dedup, metrics accounting, or evidence semantics.
///
/// Thread-safety contract: construction/apply is the only mutating
/// operation; once built, every member function is const and any number
/// of threads may query one engine concurrently without synchronization.
class QueryEngine {
public:
    QueryEngine() noexcept;
    virtual ~QueryEngine() = default;
    QueryEngine(const QueryEngine&) = delete;
    QueryEngine& operator=(const QueryEngine&) = delete;

    /// The corpus queries are answered against (for a segmented engine:
    /// the merged corpus with all deltas applied). May be expensive on
    /// first call — a segmented engine materializes the merged corpus
    /// lazily, so the O(delta) apply path never pays for it; the lexical
    /// query path reads records through the per-class accessors below
    /// instead.
    [[nodiscard]] virtual const kb::Corpus& corpus() const = 0;
    [[nodiscard]] virtual const EngineOptions& options() const noexcept = 0;
    /// How this engine came to exist: build phase timings and shape, or
    /// the snapshot-thaw marker. Copied into AssocMetrics by Associator.
    [[nodiscard]] virtual const BuildMetrics& build_metrics() const noexcept = 0;
    /// Aggregate shape/resident-size accounting over the class indexes
    /// (the bench regression gate watches these).
    [[nodiscard]] virtual text::IndexStats index_stats() const noexcept = 0;

    /// Process-unique id of this engine instance, monotonically assigned
    /// at construction. Two engines never share a generation even when
    /// they index identical content, so a cache keyed on it can never
    /// serve results computed against different corpus state (the query
    /// cache includes this in every key — see search::Associator).
    [[nodiscard]] std::uint64_t engine_generation() const noexcept { return generation_; }

    /// Free-text query against one record family (lexical only).
    [[nodiscard]] std::vector<Match> query_text(std::string_view text, VectorClass cls) const;

    /// Full attribute query: lexical against patterns and weaknesses for
    /// Descriptor/PlatformRef attributes, platform binding against
    /// vulnerabilities for PlatformRef attributes (plus lexical if the
    /// option is on). Parameter attributes match nothing by design — pure
    /// engineering parameters carry no security text. When `metrics` is
    /// non-null, per-stage timings and candidate counts are accumulated
    /// into it.
    [[nodiscard]] std::vector<Match> query_attribute(const model::Attribute& attr,
                                                     AssocMetrics* metrics = nullptr) const;

    /// query_attribute with the attribute text already analyzed (the token
    /// pipeline is deterministic, so callers that need the tokens anyway —
    /// e.g. to build a cache key — can avoid analyzing twice). `tokens`
    /// must equal attribute_tokens(attr).
    [[nodiscard]] std::vector<Match> query_attribute_tokens(
        const model::Attribute& attr, const std::vector<std::string>& tokens,
        AssocMetrics* metrics = nullptr) const;

    /// The normalized token sequence query_attribute matches with:
    /// analyze(name + " " + value) — tokenize, stopwords, stem.
    [[nodiscard]] static std::vector<std::string> attribute_tokens(const model::Attribute& attr);

    /// Vulnerabilities for a platform (exact binding path), as matches.
    [[nodiscard]] std::vector<Match> query_platform(const kb::Platform& platform) const;

    /// Expand a weakness match into the attack patterns that exploit it
    /// (cross-reference path); used by reports to show the attacker view
    /// behind an owner-view finding.
    [[nodiscard]] std::vector<Match> expand_weakness(const Match& weakness_match) const;

    /// Human-readable audit of *why* a match was produced: per matched
    /// term, its document frequency and IDF in the match's class document
    /// set; for platform bindings, the CPE rule that fired. The paper's
    /// answer to NLP sensitivity is analyst auditability — this is the
    /// audit.
    [[nodiscard]] std::string explain(const model::Attribute& attr, const Match& match) const;

protected:
    /// What an engine hands the shared lexical path for one class query.
    struct LexicalPlan {
        /// The canonical query terms: distinct, ascending term-string
        /// order, each with the IDF it is scored with.
        std::vector<text::SegmentedTerm> terms;
        /// The segments to score them over.
        std::vector<text::SegmentView> segments;
        /// Bound of the ordinal space the segments map documents into.
        std::size_t ordinal_limit = 0;
        /// Ordinal -> corpus position of the record; null = identity.
        const std::uint32_t* positions = nullptr;
    };
    /// The one hook of the lexical hot path each engine supplies: resolve
    /// `tokens` into canonical terms against `cls` and describe its
    /// segments. Views and term strings must outlive the query.
    [[nodiscard]] virtual LexicalPlan plan_lexical(const std::vector<std::string>& tokens,
                                                   VectorClass cls) const = 0;
    /// Documents of `cls` containing `term` (merged view for segmented
    /// engines) — the explain() statistics hook.
    [[nodiscard]] virtual std::size_t class_doc_frequency(VectorClass cls,
                                                          std::string_view term) const = 0;
    /// Documents of `cls` (merged view for segmented engines).
    [[nodiscard]] virtual std::size_t class_doc_count(VectorClass cls) const noexcept = 0;

    /// Record access by merged corpus position — the lexical hot path
    /// (make_match) reads records through these so a segmented engine can
    /// resolve them from its base + segment overlay without materializing
    /// the merged corpus. Defaults delegate to corpus().
    [[nodiscard]] virtual const kb::AttackPattern& pattern_at(std::size_t index) const {
        return corpus().patterns()[index];
    }
    [[nodiscard]] virtual const kb::Weakness& weakness_at(std::size_t index) const {
        return corpus().weaknesses()[index];
    }
    [[nodiscard]] virtual const kb::Vulnerability& vulnerability_at(std::size_t index) const {
        return corpus().vulnerabilities()[index];
    }

    /// Materialize the identity half of a Match from record `index` of
    /// `cls` (id, title, CVSS severity for vulnerabilities), read through
    /// the per-class record accessors above.
    [[nodiscard]] Match make_match(VectorClass cls, std::size_t index) const;

private:
    /// The lexical hot path: plan_lexical, the scoring kernel (per-thread
    /// scratch arena, fused evidence-IDF gate, top-k/pruning per
    /// options()), and Matches with evidence strings. Kernel counters land
    /// in `metrics` when non-null.
    [[nodiscard]] std::vector<Match> run_lexical(const std::vector<std::string>& tokens,
                                                 VectorClass cls, AssocMetrics* metrics) const;

    std::uint64_t generation_;
};

/// Immutable index over one corpus. Construction analyzes and indexes all
/// record text; queries are read-only and cheap.
///
/// Thread-safety contract: the constructor is the only mutating operation.
/// Once constructed, every member function is const and touches only
/// finalized indexes (see text::InvertedIndex for the finalize-then-
/// read-only invariant), so any number of threads may query one engine
/// concurrently without synchronization — the parallel association
/// pipeline (search::Associator) relies on exactly this.
class SearchEngine final : public QueryEngine {
public:
    explicit SearchEngine(const kb::Corpus& corpus) : SearchEngine(corpus, EngineOptions{}) {}
    SearchEngine(const kb::Corpus& corpus, EngineOptions options)
        : SearchEngine(corpus, std::move(options), nullptr) {}
    /// As above, but sharing an existing pool for the build fan-out
    /// instead of spinning up a transient one (options.build_threads is
    /// then ignored). The pool is only used during construction.
    SearchEngine(const kb::Corpus& corpus, EngineOptions options, util::ThreadPool* pool);

    SearchEngine(const SearchEngine&) = delete;
    SearchEngine& operator=(const SearchEngine&) = delete;

    [[nodiscard]] const kb::Corpus& corpus() const noexcept override { return corpus_; }
    [[nodiscard]] const EngineOptions& options() const noexcept override { return options_; }
    [[nodiscard]] const BuildMetrics& build_metrics() const noexcept override {
        return build_metrics_;
    }

    /// Aggregate shape/resident-size accounting over the three class
    /// indexes (the bench regression gate watches these).
    [[nodiscard]] text::IndexStats index_stats() const noexcept override {
        text::IndexStats s = pattern_index_.stats();
        s += weakness_index_.stats();
        s += vulnerability_index_.stats();
        return s;
    }
    /// Direct access to one class index (tests, explain tooling, the
    /// segmented engine's base segment).
    [[nodiscard]] const text::InvertedIndex& class_index(VectorClass cls) const noexcept {
        switch (cls) {
            case VectorClass::AttackPattern: return pattern_index_;
            case VectorClass::Weakness: return weakness_index_;
            default: return vulnerability_index_;
        }
    }
    /// One class's BM25 scorer. The segmented engine borrows these as
    /// base-segment bound tables.
    [[nodiscard]] const text::Bm25Scorer& class_bm25(VectorClass cls) const noexcept {
        switch (cls) {
            case VectorClass::AttackPattern: return *pattern_bm25_;
            case VectorClass::Weakness: return *weakness_bm25_;
            default: return *vulnerability_bm25_;
        }
    }

    /// Serialize the fully built engine — options and counts into `w`,
    /// the three finalized indexes and their BM25 tables as
    /// 64-byte-aligned slabs in `slabs`. Thawing the bytes
    /// yields a bit-identical engine without touching the token pipeline
    /// (see kb/snapshot.hpp for the blob framing).
    void freeze(util::ByteWriter& w, util::SlabWriter& slabs) const;

    /// Reconstruct an engine from freeze() bytes over `corpus`, viewing
    /// the posting stores and score tables inside `slabs` in place (no
    /// per-posting decode; the engine must not outlive the slab memory —
    /// EngineSnapshot carries the backing). The corpus must be the same
    /// one the frozen engine indexed (validated by record counts);
    /// malformed bytes throw ValidationError or ParseError. Returned by
    /// pointer because the engine is neither copyable nor movable (it
    /// holds const references into itself).
    [[nodiscard]] static std::unique_ptr<SearchEngine> thaw(const kb::Corpus& corpus,
                                                            util::ByteReader& r,
                                                            const util::SlabView& slabs);

protected:
    /// One sealed segment per class: the class index as an identity view
    /// under its own BM25 statistics (text::sealed_view).
    [[nodiscard]] LexicalPlan plan_lexical(const std::vector<std::string>& tokens,
                                           VectorClass cls) const override;
    [[nodiscard]] std::size_t class_doc_frequency(VectorClass cls,
                                                  std::string_view term) const override {
        return class_index(cls).doc_frequency(term);
    }
    [[nodiscard]] std::size_t class_doc_count(VectorClass cls) const noexcept override {
        return class_index(cls).doc_count();
    }

private:
    struct ThawTag {};
    SearchEngine(ThawTag, const kb::Corpus& corpus, util::ByteReader& r,
                 const util::SlabView& slabs);

    const kb::Corpus& corpus_;
    EngineOptions options_;
    text::InvertedIndex pattern_index_;
    text::InvertedIndex weakness_index_;
    text::InvertedIndex vulnerability_index_;
    // Engaged once construction or thaw completes (optional only because
    // a scorer is built after, and reset with, the index it reads).
    std::optional<text::Bm25Scorer> pattern_bm25_;
    std::optional<text::Bm25Scorer> weakness_bm25_;
    std::optional<text::Bm25Scorer> vulnerability_bm25_;
    BuildMetrics build_metrics_;
};

/// A corpus and the engine indexing it, thawed together from one snapshot
/// blob, plus whichever memory backs the slab tables the engine views in
/// place: an aligned owned copy of the slab section (owning thaw) or a
/// shared read-only file mapping (zero-copy thaw). The engine holds
/// references into the corpus and the backing, so the whole struct must
/// stay together and alive as long as the engine is used.
struct EngineSnapshot {
    std::unique_ptr<kb::Corpus> corpus;
    std::unique_ptr<SearchEngine> engine;
    /// Owning thaw: the snapshot's slab section, copied once into
    /// 64-byte-aligned memory (empty on the mmap path).
    util::AlignedBuffer slab_backing;
    /// Zero-copy thaw: the file mapping the engine serves from. Shared so
    /// the registry's generation swap keeps an old mapping alive until the
    /// last pinned session drops it (null on the owning path).
    std::shared_ptr<const util::MappedFile> mapping;
    /// Why load_engine_snapshot fell back from mmap to the owning path
    /// (empty when it did not).
    std::string mmap_fallback_reason;

    /// True when the engine serves its tables straight from the mapped
    /// snapshot file (one physical copy, no per-session duplication).
    [[nodiscard]] bool zero_copy() const noexcept { return mapping != nullptr; }
};

/// Serialize corpus + engine into one framed snapshot blob (magic,
/// version, checksums, eager + aligned slab sections — see
/// kb/snapshot.hpp). The blob captures the *finalized* indexes and scorer
/// tables, so thawing skips tokenization, finalize, and table
/// precomputation entirely.
[[nodiscard]] std::string freeze_engine(const SearchEngine& engine);

/// Open a snapshot blob and reconstruct the corpus and engine (the owning
/// path: the slab section is copied once into aligned memory carried by
/// the returned EngineSnapshot; both checksums are verified). Throws
/// kb::SnapshotError for framing problems (bad magic/version/truncation/
/// checksum) — carrying `source` (originating file path, empty for
/// in-memory blobs) and the byte offset — and util::ValidationError for
/// malformed payload contents; payload decode truncations are rebased
/// into whole-blob offsets and rethrown as SnapshotError.
[[nodiscard]] EngineSnapshot thaw_engine(std::string_view blob, std::string_view source = {});

/// Zero-copy thaw over an existing file mapping: the eager section is
/// decoded (and checksum-verified) as usual, but the slab tables are
/// served from the mapping in place — no copy, no slab checksum pass, so
/// cold start costs O(pages actually touched). Same error contract as
/// thaw_engine.
[[nodiscard]] EngineSnapshot thaw_engine_mapped(std::shared_ptr<const util::MappedFile> mapping);

/// freeze_engine + write to `path` (atomic-enough: write then rename is
/// overkill for a cache file; plain overwrite). Throws util::IoError.
void save_engine_snapshot(const SearchEngine& engine, const std::string& path);

/// Load a snapshot file, preferring the zero-copy mmap path; if mapping
/// fails (fault site "snapshot.map", unsupported platform, special file),
/// falls back to the owning read_file + thaw_engine path and records the
/// reason in EngineSnapshot::mmap_fallback_reason. Corrupt blobs are NOT
/// a mapping failure: SnapshotError propagates from either path.
[[nodiscard]] EngineSnapshot load_engine_snapshot(const std::string& path);

} // namespace cybok::search
