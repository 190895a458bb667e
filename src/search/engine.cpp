#include "search/engine.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <sstream>
#include <unordered_set>

#include "cvss/cvss2.hpp"
#include "kb/snapshot.hpp"
#include "search/indexing.hpp"
#include "text/scratch.hpp"
#include "text/tokenize.hpp"
#include "util/fault.hpp"
#include "util/fmt.hpp"
#include "util/strings.hpp"

namespace cybok::search {

std::string_view vector_class_name(VectorClass c) noexcept {
    switch (c) {
        case VectorClass::AttackPattern: return "attack-pattern";
        case VectorClass::Weakness: return "weakness";
        case VectorClass::Vulnerability: return "vulnerability";
    }
    return "?";
}

std::string_view match_via_name(MatchVia v) noexcept {
    switch (v) {
        case MatchVia::Lexical: return "lexical";
        case MatchVia::PlatformBinding: return "platform-binding";
        case MatchVia::CrossReference: return "cross-reference";
    }
    return "?";
}

namespace {

/// Truncate a long description for use as a match title (UTF-8-safe:
/// never cuts inside a multi-byte sequence).
std::string head(std::string_view text, std::size_t max_len = 70) {
    return strings::truncate_utf8(text, max_len);
}

using Clock = std::chrono::steady_clock;

std::uint64_t ns_since(Clock::time_point start) {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - start).count());
}

} // namespace

QueryEngine::QueryEngine() noexcept {
    // Process-unique, monotone: the query cache keys on it, so no two
    // engine instances — however identical their content — ever alias.
    static std::atomic<std::uint64_t> next{1};
    generation_ = next.fetch_add(1, std::memory_order_relaxed);
}

std::string EngineOptions::signature() const {
    // std::to_chars, not iostreams: this string keys the query cache, so
    // it must not change spelling with the global locale. The leading tag
    // names the ranking function.
    std::string out = "bm25|idf=";
    fmt::append_number(out, min_evidence_idf);
    out += lexical_vulnerabilities ? "|lexvuln=1" : "|lexvuln=0";
    out += "|tw=";
    fmt::append_number(out, static_cast<double>(title_weight));
    out += "|k=";
    fmt::append_number(out, static_cast<unsigned long long>(max_lexical_hits));
    return out;
}

namespace {

/// One source field of one record, pending analysis: which text, at what
/// index weight. The field order per document matches the sequential
/// reference loop exactly — that ordering is what makes the parallel
/// build bit-identical (same interning order, same posting order, same
/// float accumulation order).
struct FieldSource {
    const std::string* text;
    float weight;
};

/// Collect every document's field sources for all three classes, in the
/// same class-then-record order the sequential loop visits them. Lanes:
/// 0 = patterns, 1 = weaknesses, 2 = vulnerabilities.
struct BuildPlan {
    std::vector<std::vector<FieldSource>> docs; // flat across classes
    std::array<std::size_t, 3> lane_begin{};    // first doc of each lane
    std::array<std::size_t, 3> lane_count{};
};

BuildPlan make_build_plan(const kb::Corpus& corpus, float title_weight) {
    BuildPlan plan;
    plan.docs.reserve(corpus.patterns().size() + corpus.weaknesses().size() +
                      corpus.vulnerabilities().size());

    // Field source + order comes from detail::for_each_field — the single
    // definition shared with the sequential path and the delta-segment
    // build (search/indexing.hpp).
    const auto plan_record = [&plan, title_weight](const auto& record) {
        std::vector<FieldSource>& f = plan.docs.emplace_back();
        detail::for_each_field(record, title_weight, [&f](const std::string& text, float weight) {
            f.push_back({&text, weight});
        });
    };

    plan.lane_begin[0] = 0;
    plan.lane_count[0] = corpus.patterns().size();
    for (const kb::AttackPattern& p : corpus.patterns()) plan_record(p);

    plan.lane_begin[1] = plan.docs.size();
    plan.lane_count[1] = corpus.weaknesses().size();
    for (const kb::Weakness& w : corpus.weaknesses()) plan_record(w);

    plan.lane_begin[2] = plan.docs.size();
    plan.lane_count[2] = corpus.vulnerabilities().size();
    for (const kb::Vulnerability& v : corpus.vulnerabilities()) plan_record(v);

    return plan;
}

/// An analyzed field: the token stream plus the weight it carries.
struct AnalyzedField {
    std::vector<std::string> tokens;
    float weight;
};

} // namespace

SearchEngine::SearchEngine(const kb::Corpus& corpus, EngineOptions options,
                           util::ThreadPool* pool)
    : corpus_(corpus), options_(options) {
    if (!corpus.indexed())
        throw ValidationError("search engine requires an indexed corpus (call reindex())");

    const Clock::time_point build_start = Clock::now();
    const float tw = options_.title_weight;
    const std::size_t threads =
        pool != nullptr ? pool->thread_count()
        : options_.build_threads == 0 ? util::ThreadPool::default_thread_count()
                                      : options_.build_threads;

    // Sequential reference path: one fused tokenize-and-insert pass. The
    // parallel path below must reproduce this bit for bit — the snapshot
    // determinism test compares frozen blobs of both — which is also what
    // lets a failed parallel build fall back here without changing any
    // result downstream.
    const auto sequential_build = [&] {
        for (const kb::AttackPattern& p : corpus.patterns())
            detail::index_record(pattern_index_, p, tw);
        pattern_index_.finalize();

        for (const kb::Weakness& w : corpus.weaknesses())
            detail::index_record(weakness_index_, w, tw);
        weakness_index_.finalize();

        for (const kb::Vulnerability& v : corpus.vulnerabilities())
            detail::index_record(vulnerability_index_, v, tw);
        vulnerability_index_.finalize();

        pattern_bm25_.emplace(pattern_index_);
        weakness_bm25_.emplace(weakness_index_);
        vulnerability_bm25_.emplace(vulnerability_index_);
    };

    if (threads <= 1) {
        sequential_build();
        build_metrics_.index_ns = ns_since(build_start);
    } else {
        // Parallel sharded build, two phases.
        //
        // Phase 1 — analyze: tokenize/stopword/stem every record field
        // across all three classes on the pool. This is the dominant cost
        // and is embarrassingly parallel (analyze() is pure).
        //
        // Phase 2 — insert: each class lane replays its documents *in
        // record order* into its own index, finalizes, and builds its
        // scorer. Insertion order equals the sequential loop's order, so
        // interning, postings, and float accumulation are identical; the
        // three lanes share nothing and run concurrently.
        util::ThreadPool local_pool(pool != nullptr ? 1 : threads);
        util::ThreadPool& p = pool != nullptr ? *pool : local_pool;

        try {
            const BuildPlan plan = make_build_plan(corpus, tw);
            std::vector<std::vector<AnalyzedField>> analyzed(plan.docs.size());

            const Clock::time_point tok_start = Clock::now();
            p.parallel_for(plan.docs.size(), [&](std::size_t i) {
                CYBOK_FAULT_POINT("search.build.shard",
                                  Error("injected: shard analyze failed"));
                const std::vector<FieldSource>& fields = plan.docs[i];
                std::vector<AnalyzedField>& out = analyzed[i];
                out.reserve(fields.size());
                for (const FieldSource& f : fields)
                    out.push_back({text::analyze(*f.text), f.weight});
            });
            build_metrics_.tokenize_ns = ns_since(tok_start);

            const Clock::time_point idx_start = Clock::now();
            std::array<text::InvertedIndex*, 3> lane_index = {&pattern_index_, &weakness_index_,
                                                              &vulnerability_index_};
            std::array<std::optional<text::Bm25Scorer>*, 3> lane_bm25 = {
                &pattern_bm25_, &weakness_bm25_, &vulnerability_bm25_};
            p.parallel_for(3, [&](std::size_t lane) {
                text::InvertedIndex& index = *lane_index[lane];
                const std::size_t begin = plan.lane_begin[lane];
                for (std::size_t d = 0; d < plan.lane_count[lane]; ++d) {
                    index.add_document();
                    for (const AnalyzedField& f : analyzed[begin + d])
                        index.add_terms(f.tokens, f.weight);
                }
                index.finalize();
                lane_bm25[lane]->emplace(index);
            });
            build_metrics_.index_ns = ns_since(idx_start);
        } catch (const Error&) {
            // A failed lane leaves partially filled indexes behind. Reset
            // everything and run the bit-identical sequential reference
            // build, so a transient shard failure degrades to a slower
            // cold start instead of a failed or corrupted engine.
            pattern_index_ = text::InvertedIndex();
            weakness_index_ = text::InvertedIndex();
            vulnerability_index_ = text::InvertedIndex();
            pattern_bm25_.reset();
            weakness_bm25_.reset();
            vulnerability_bm25_.reset();
            build_metrics_.parallel_fallback = true;
            build_metrics_.tokenize_ns = 0;
            const Clock::time_point seq_start = Clock::now();
            sequential_build();
            build_metrics_.index_ns = ns_since(seq_start);
        }
    }

    build_metrics_.wall_ns = ns_since(build_start);
    build_metrics_.docs = corpus.patterns().size() + corpus.weaknesses().size() +
                          corpus.vulnerabilities().size();
    build_metrics_.threads = threads;
}

Match QueryEngine::make_match(VectorClass cls, std::size_t index) const {
    Match m;
    m.cls = cls;
    m.corpus_index = index;
    switch (cls) {
        case VectorClass::AttackPattern: {
            const kb::AttackPattern& p = pattern_at(index);
            m.id = p.id.to_string();
            m.title = p.name;
            break;
        }
        case VectorClass::Weakness: {
            const kb::Weakness& w = weakness_at(index);
            m.id = w.id.to_string();
            m.title = w.name;
            break;
        }
        case VectorClass::Vulnerability: {
            const kb::Vulnerability& v = vulnerability_at(index);
            m.id = v.id.to_string();
            m.title = head(v.description);
            // Corpus snapshots mix v3 and v2 scoring; junk metadata on a
            // single record must not abort a whole-model association.
            if (!v.cvss_vector.empty())
                m.severity = cvss::score_any(v.cvss_vector).value_or(-1.0);
            break;
        }
    }
    return m;
}

QueryEngine::LexicalPlan SearchEngine::plan_lexical(const std::vector<std::string>& tokens,
                                                    VectorClass cls) const {
    const text::InvertedIndex& index = class_index(cls);
    LexicalPlan plan;
    plan.terms = text::sealed_terms(index, tokens);
    plan.segments.push_back(text::sealed_view(index, class_bm25(cls)));
    plan.ordinal_limit = index.doc_count();
    return plan;
}

std::vector<Match> QueryEngine::run_lexical(const std::vector<std::string>& tokens,
                                            VectorClass cls, AssocMetrics* metrics) const {
    const LexicalPlan plan = plan_lexical(tokens, cls);
    // The evidence-IDF gate runs inside the kernel (KernelOptions), so the
    // hits that come back are final: distinct matched terms in canonical
    // order, no per-hit dedup or IDF recomputation here.
    const EngineOptions& opts = options();
    text::KernelOptions kopts;
    kopts.top_k = opts.max_lexical_hits;
    kopts.min_evidence_idf = opts.min_evidence_idf;
    text::SegmentedStats sstats;
    const std::vector<text::Hit> hits = text::query_segments(
        plan.segments, plan.ordinal_limit, plan.terms, text::tls_query_scratch(), kopts, &sstats);

    std::vector<Match> out;
    out.reserve(hits.size());
    for (const text::Hit& h : hits) {
        Match m = make_match(cls, plan.positions == nullptr ? h.doc : plan.positions[h.doc]);
        m.score = h.score;
        m.via = MatchVia::Lexical;
        m.evidence.reserve(h.matched_terms.size());
        for (text::TermId i : h.matched_terms) m.evidence.emplace_back(plan.terms[i].term);
        out.push_back(std::move(m));
    }
    if (metrics != nullptr) {
        metrics->kernel_postings += sstats.kernel.postings_scanned;
        metrics->kernel_pruned_docs += sstats.kernel.docs_pruned;
        metrics->kernel_gated_hits += sstats.kernel.hits_gated;
        metrics->kernel_blocks_decoded += sstats.kernel.blocks_decoded;
        metrics->kernel_blocks_skipped += sstats.kernel.blocks_skipped;
        metrics->kernel_segments_visited += sstats.segments_visited;
        metrics->kernel_tombstones_masked += sstats.tombstones_masked;
    }
    return out;
}

std::vector<Match> QueryEngine::query_text(std::string_view text, VectorClass cls) const {
    return run_lexical(text::analyze(text), cls, nullptr);
}

std::vector<Match> QueryEngine::query_platform(const kb::Platform& platform) const {
    const kb::Corpus& c = corpus();
    std::vector<Match> out;
    for (kb::VulnerabilityId id : c.vulnerabilities_for(platform)) {
        const kb::Vulnerability* v = c.find(id);
        // The id came from the corpus itself; index lookup cannot fail.
        std::size_t index = static_cast<std::size_t>(v - c.vulnerabilities().data());
        Match m = make_match(VectorClass::Vulnerability, index);
        m.via = MatchVia::PlatformBinding;
        m.evidence = {platform.uri()};
        out.push_back(std::move(m));
    }
    return out;
}

std::vector<std::string> QueryEngine::attribute_tokens(const model::Attribute& attr) {
    return text::analyze(attr.name + " " + attr.value);
}

std::vector<Match> QueryEngine::query_attribute(const model::Attribute& attr,
                                                AssocMetrics* metrics) const {
    if (attr.kind == model::AttributeKind::Parameter) return {};
    const Clock::time_point start = Clock::now();
    const std::vector<std::string> tokens = attribute_tokens(attr);
    if (metrics != nullptr) metrics->timings.analyze_ns += ns_since(start);
    return query_attribute_tokens(attr, tokens, metrics);
}

std::vector<Match> QueryEngine::query_attribute_tokens(const model::Attribute& attr,
                                                       const std::vector<std::string>& tokens,
                                                       AssocMetrics* metrics) const {
    std::vector<Match> out;
    if (attr.kind == model::AttributeKind::Parameter) return out;

    const Clock::time_point lex_start = Clock::now();
    for (Match& m : run_lexical(tokens, VectorClass::AttackPattern, metrics))
        out.push_back(std::move(m));
    for (Match& m : run_lexical(tokens, VectorClass::Weakness, metrics))
        out.push_back(std::move(m));
    if (metrics != nullptr) metrics->timings.lexical_ns += ns_since(lex_start);

    if (attr.kind == model::AttributeKind::PlatformRef && attr.platform.has_value()) {
        const Clock::time_point bind_start = Clock::now();
        for (Match& m : query_platform(*attr.platform)) out.push_back(std::move(m));
        if (metrics != nullptr) metrics->timings.binding_ns += ns_since(bind_start);
    }
    if (options().lexical_vulnerabilities) {
        const Clock::time_point lexvuln_start = Clock::now();
        std::vector<Match> lex = run_lexical(tokens, VectorClass::Vulnerability, metrics);
        // Deduplicate against platform-binding results (binding wins). A
        // hash set of the already-bound corpus indexes keeps this linear —
        // platform attributes routinely bind thousands of CVEs, so the
        // old any_of-per-candidate scan was quadratic exactly where the
        // result space is largest.
        std::unordered_set<std::size_t> bound;
        for (const Match& e : out)
            if (e.cls == VectorClass::Vulnerability) bound.insert(e.corpus_index);
        for (Match& m : lex)
            if (!bound.contains(m.corpus_index)) out.push_back(std::move(m));
        if (metrics != nullptr) metrics->timings.lexical_ns += ns_since(lexvuln_start);
    }

    if (metrics != nullptr) {
        ++metrics->queries_run;
        for (const Match& m : out) {
            switch (m.cls) {
                case VectorClass::AttackPattern: ++metrics->pattern_candidates; break;
                case VectorClass::Weakness: ++metrics->weakness_candidates; break;
                case VectorClass::Vulnerability: ++metrics->vulnerability_candidates; break;
            }
        }
    }
    return out;
}

std::vector<Match> QueryEngine::expand_weakness(const Match& weakness_match) const {
    if (weakness_match.cls != VectorClass::Weakness)
        throw ValidationError("expand_weakness requires a weakness match");
    const kb::Corpus& c = corpus();
    const kb::Weakness& w = c.weaknesses()[weakness_match.corpus_index];
    std::vector<Match> out;
    for (kb::AttackPatternId pid : w.related_patterns) {
        const kb::AttackPattern* p = c.find(pid);
        if (p == nullptr) continue;
        std::size_t index = static_cast<std::size_t>(p - c.patterns().data());
        Match m = make_match(VectorClass::AttackPattern, index);
        m.via = MatchVia::CrossReference;
        m.evidence = {w.id.to_string()};
        out.push_back(std::move(m));
    }
    return out;
}

void SearchEngine::freeze(util::ByteWriter& w, util::SlabWriter& slabs) const {
    // Options first: thaw must reconstruct the exact query behavior, and
    // the session layer compares signatures before trusting a snapshot.
    // build_threads is deliberately absent — it shapes construction, not
    // the constructed engine.
    w.f64(options_.min_evidence_idf);
    w.u8(options_.lexical_vulnerabilities ? 1 : 0);
    w.f32(options_.title_weight);
    w.u64(static_cast<std::uint64_t>(options_.max_lexical_hits));

    pattern_index_.freeze(w, slabs);
    weakness_index_.freeze(w, slabs);
    vulnerability_index_.freeze(w, slabs);

    pattern_bm25_->freeze(w, slabs);
    weakness_bm25_->freeze(w, slabs);
    vulnerability_bm25_->freeze(w, slabs);
}

SearchEngine::SearchEngine(ThawTag, const kb::Corpus& corpus, util::ByteReader& r,
                           const util::SlabView& slabs)
    : corpus_(corpus) {
    const Clock::time_point start = Clock::now();

    options_.min_evidence_idf = r.f64();
    options_.lexical_vulnerabilities = r.u8() != 0;
    options_.title_weight = r.f32();
    options_.max_lexical_hits = static_cast<std::size_t>(r.u64());

    pattern_index_ = text::InvertedIndex::thaw(r, slabs);
    weakness_index_ = text::InvertedIndex::thaw(r, slabs);
    vulnerability_index_ = text::InvertedIndex::thaw(r, slabs);
    if (pattern_index_.doc_count() != corpus.patterns().size() ||
        weakness_index_.doc_count() != corpus.weaknesses().size() ||
        vulnerability_index_.doc_count() != corpus.vulnerabilities().size())
        throw ValidationError("engine snapshot does not match corpus shape");

    pattern_bm25_.emplace(text::Bm25Scorer::thaw(pattern_index_, r, slabs));
    weakness_bm25_.emplace(text::Bm25Scorer::thaw(weakness_index_, r, slabs));
    vulnerability_bm25_.emplace(text::Bm25Scorer::thaw(vulnerability_index_, r, slabs));

    build_metrics_.from_snapshot = true;
    build_metrics_.docs = corpus.patterns().size() + corpus.weaknesses().size() +
                          corpus.vulnerabilities().size();
    build_metrics_.wall_ns = ns_since(start);
}

std::unique_ptr<SearchEngine> SearchEngine::thaw(const kb::Corpus& corpus, util::ByteReader& r,
                                                 const util::SlabView& slabs) {
    return std::unique_ptr<SearchEngine>(new SearchEngine(ThawTag{}, corpus, r, slabs));
}

std::string freeze_engine(const SearchEngine& engine) {
    util::ByteWriter w;
    util::SlabWriter slabs;
    kb::freeze_corpus(w, engine.corpus());
    engine.freeze(w, slabs);
    return kb::seal_snapshot(std::move(w).take(), slabs.bytes());
}

namespace {

/// Shared tail of the owning and mapped thaw paths: decode the eager
/// section over the (already validated, already aligned) slab view.
EngineSnapshot thaw_engine_sections(EngineSnapshot snap, std::string_view eager,
                                    const util::SlabView& slabs, std::string_view source) {
    util::ByteReader r(eager);
    try {
        snap.corpus = std::make_unique<kb::Corpus>(kb::thaw_corpus(r));
        snap.engine = SearchEngine::thaw(*snap.corpus, r, slabs);
    } catch (const ParseError& e) {
        // A ByteReader truncation mid-eager-stream or a structural slab
        // violation. Rebase the eager-relative offset into a whole-blob
        // offset so the message pinpoints the corrupt byte in the file.
        throw kb::SnapshotError(std::string("snapshot payload: ") + e.what(),
                                std::string(source), kb::kSnapshotHeaderSize + e.offset());
    }
    // The framing already checksum-verified the eager section; leftover
    // bytes here mean a layout mismatch the version field should have
    // caught.
    if (!r.done())
        throw kb::SnapshotError("snapshot payload has trailing engine bytes",
                                std::string(source), kb::kSnapshotHeaderSize + r.position());
    return snap;
}

} // namespace

EngineSnapshot thaw_engine(std::string_view blob, std::string_view source) {
    const kb::SnapshotSections sections = kb::open_snapshot(blob, source);
    EngineSnapshot snap;
    // One memcpy of the slab section into 64-byte-aligned memory — the
    // only per-byte work the owning thaw does on the big tables (blobs in
    // std::string carry no alignment guarantee, so they cannot be viewed
    // in place).
    snap.slab_backing = util::AlignedBuffer(sections.slabs);
    const util::SlabView slabs(snap.slab_backing.view());
    return thaw_engine_sections(std::move(snap), sections.eager, slabs, source);
}

EngineSnapshot thaw_engine_mapped(std::shared_ptr<const util::MappedFile> mapping) {
    const std::string& source = mapping->path();
    // Skip the slab checksum: hashing the slabs would fault in the whole
    // file and defeat the zero-copy start. The slab tables are validated
    // structurally below and posting blocks self-check at decode time.
    const kb::SnapshotSections sections =
        kb::open_snapshot(mapping->view(), source, /*verify_slab_checksum=*/false);
    EngineSnapshot snap;
    snap.mapping = std::move(mapping);
    const util::SlabView slabs(sections.slabs);
    return thaw_engine_sections(std::move(snap), sections.eager, slabs, source);
}

void save_engine_snapshot(const SearchEngine& engine, const std::string& path) {
    util::write_file(path, freeze_engine(engine));
}

EngineSnapshot load_engine_snapshot(const std::string& path) {
    try {
        CYBOK_FAULT_POINT("snapshot.map", IoError("injected: mmap failed: " + path));
        auto mapping = std::make_shared<const util::MappedFile>(util::MappedFile::open(path));
        return thaw_engine_mapped(std::move(mapping));
    } catch (const IoError& e) {
        // Mapping failed (injected fault, unsupported platform, special
        // file). Fall back to the owning read+thaw path and record why;
        // a missing file fails both paths and propagates from read_file.
        // Corrupt blobs are not a mapping failure: SnapshotError from the
        // mapped thaw above propagates rather than being retried.
        EngineSnapshot snap = thaw_engine(util::read_file(path), path);
        snap.mmap_fallback_reason = e.what();
        return snap;
    }
}

std::string QueryEngine::explain(const model::Attribute& attr, const Match& match) const {
    std::ostringstream out;
    out << match.id << " (" << match.title << ") matched attribute \"" << attr.name << " = "
        << attr.value << "\" via " << match_via_name(match.via) << "\n";

    if (match.via == MatchVia::PlatformBinding) {
        out << "  CPE rule: attribute platform "
            << (attr.platform.has_value() ? attr.platform->uri() : std::string("<none>"))
            << " matches record binding " << (match.evidence.empty() ? "?" : match.evidence[0])
            << " (vendor+product equal, version ANY-compatible)\n";
        if (match.severity >= 0.0) out << "  CVSS base severity: " << match.severity << "\n";
        return out.str();
    }

    // Statistics come through the class_doc_* hooks, so a segmented
    // engine explains with merged document frequencies — the same numbers
    // its gate and ranking used.
    const double n_docs = static_cast<double>(class_doc_count(match.cls));
    out << "  query terms (after tokenize/stopwords/stem):\n";
    double total_idf = 0.0;
    for (const std::string& token : text::analyze(attr.name + " " + attr.value)) {
        const std::size_t df = class_doc_frequency(match.cls, token);
        const double idf = text::rsj_idf(n_docs, static_cast<double>(df));
        const bool matched = std::find(match.evidence.begin(), match.evidence.end(), token) !=
                             match.evidence.end();
        out << "    " << (matched ? "+" : " ") << " \"" << token << "\" df=" << df
            << " idf=" << idf << (matched ? "  <- matched this record" : "") << "\n";
        if (matched) total_idf += idf;
    }
    out << "  evidence IDF total " << total_idf << " (gate " << options().min_evidence_idf
        << "), ranking score " << match.score << "\n";
    return out.str();
}

} // namespace cybok::search
