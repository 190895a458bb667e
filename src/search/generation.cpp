#include "search/generation.hpp"

#include <algorithm>
#include <chrono>
#include <numeric>
#include <optional>
#include <set>
#include <unordered_set>
#include <utility>

#include "search/indexing.hpp"
#include "util/fault.hpp"

namespace cybok::search {

namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t ns_since(Clock::time_point start) {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - start).count());
}

/// The distinct analyzed terms of one record — exactly the terms whose
/// document frequency the record contributes to in a from-scratch index
/// (df counts documents, so per-record multiplicity collapses).
template <typename Record>
std::unordered_set<std::string> distinct_terms(const Record& r) {
    std::unordered_set<std::string> out;
    detail::for_each_field(r, 1.0f, [&out](const std::string& text, float) {
        for (std::string& tok : text::analyze(text)) out.insert(std::move(tok));
    });
    return out;
}

/// Base df column lookup: merged df of every term no delta ever touched.
std::uint32_t base_df(const text::InvertedIndex& base_index, std::string_view term) {
    const text::TermId t = base_index.vocabulary().lookup(term);
    return t == text::kNoTerm ? 0u
                              : static_cast<std::uint32_t>(base_index.list(t).doc_count);
}

/// Shift a record's distinct terms' merged df by ±1 in the overlay,
/// faulting absent entries in from the base df column.
template <typename State, typename Record>
void bump_df(State& st, const text::InvertedIndex& base_index, const Record& r,
             std::int32_t by) {
    for (const std::string& term : distinct_terms(r)) {
        auto it = st.df_diff.find(term);
        if (it == st.df_diff.end()) it = st.df_diff.emplace(term, base_df(base_index, term)).first;
        it->second = static_cast<std::uint32_t>(static_cast<std::int64_t>(it->second) + by);
    }
}

/// The ordinal of a live id in the pre-delta merged view: overlay
/// placement first (added / re-added ids), else the base corpus position
/// (base ids keep it as their ordinal), masked by the alive table.
template <typename State, typename Record, typename Id>
std::optional<std::uint32_t> live_ordinal(const State& st, const kb::Corpus& base_corpus,
                                          const std::vector<Record>& base_records,
                                          const Id& id) {
    std::uint32_t ordinal;
    const auto it = st.ordinal_diff.find(id.to_string());
    if (it != st.ordinal_diff.end()) {
        ordinal = it->second;
    } else {
        const Record* rec = base_corpus.find(id);
        if (rec == nullptr) return std::nullopt;
        ordinal = static_cast<std::uint32_t>(rec - base_records.data());
    }
    return st.alive[ordinal] != 0 ? std::optional<std::uint32_t>(ordinal) : std::nullopt;
}

/// Pre-apply validation of one family, mirroring kb::apply_corpus_delta's
/// checks (same error texts) against the engine's own live-id view, so a
/// bad delta throws before any state is touched.
template <typename Record, typename Id, typename Lives>
void validate_family(const std::vector<Record>& upserts, const std::vector<Id>& withdrawals,
                     const Lives& lives, const char* family) {
    std::set<Id> seen;
    for (const Record& r : upserts) {
        if (!seen.insert(r.id).second)
            throw ValidationError(std::string("delta: duplicate ") + family + " upsert id " +
                                  r.id.to_string());
    }
    std::set<Id> gone;
    for (Id id : withdrawals) {
        if (!gone.insert(id).second)
            throw ValidationError(std::string("delta: duplicate ") + family + " withdrawal id " +
                                  id.to_string());
        if (!lives(id))
            throw ValidationError(std::string("delta: withdrawal of unknown ") + family + " id " +
                                  id.to_string());
    }
}

/// One class's O(delta) bookkeeping + segment build: adjust the df and id
/// placement overlays, tombstone withdrawn/replaced versions, then index
/// the new record versions in ascending ordinal order so the segment's
/// local document order is ordinal-monotone (the kernel's seek
/// translation relies on this). Old record versions are read back from
/// the base corpus / earlier segments (`old_record`), never from a
/// materialized merged corpus.
///
/// Ordinal parity with kb::apply_corpus_delta: withdrawals erase first,
/// then upserts replace-in-place (keeping the ordinal) or append (taking
/// the next ordinal, in upsert order) — exactly the merged corpus's
/// record-order evolution, so ascending live ordinals stay equal to
/// merged record order.
template <typename State, typename Record, typename Id, typename Lookup, typename OldRecord>
std::size_t apply_class_delta(State& st, ClassDeltaSegment& seg, std::vector<Record>& storage,
                              const std::vector<Record>& upserts,
                              const std::vector<Id>& withdrawals, std::uint32_t segment_id,
                              const text::InvertedIndex& base_index, const Lookup& lookup,
                              const OldRecord& old_record, float title_weight,
                              text::Bm25Scorer::Params params,
                              kb::DeltaApplyReport::Family& report) {
    for (const Id& id : withdrawals) {
        // Validated live above, so the lookup cannot miss.
        const std::uint32_t ordinal = *lookup(id);
        bump_df(st, base_index, old_record(ordinal), -1);
        st.alive[ordinal] = 0;
        --st.live_docs;
        ++report.withdrawn;
    }

    std::vector<std::pair<std::uint32_t, const Record*>> pending;
    pending.reserve(upserts.size());
    for (const Record& r : upserts) {
        std::uint32_t ordinal;
        if (const std::optional<std::uint32_t> existing = lookup(r.id)) {
            // Modified: the replacement keeps the replaced version's
            // ordinal; the old version's postings die by tombstone.
            ordinal = *existing;
            bump_df(st, base_index, old_record(ordinal), -1);
            ++report.modified;
        } else {
            // Added (or withdrawn-then-re-added, even within this delta):
            // a fresh ordinal at the end of the id space.
            ordinal = st.next_ordinal++;
            st.alive.push_back(1);
            st.owner.push_back(segment_id);
            st.local.push_back(0); // placed below, in pending order
            st.ordinal_diff[r.id.to_string()] = ordinal;
            ++st.live_docs;
            ++report.added;
        }
        bump_df(st, base_index, r, +1);
        pending.emplace_back(ordinal, &r);
    }

    std::sort(pending.begin(), pending.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    seg.ordinals.reserve(pending.size());
    storage.reserve(pending.size());
    for (const auto& [ordinal, record] : pending) {
        const auto local_doc = static_cast<std::uint32_t>(seg.ordinals.size());
        detail::index_record(seg.index, *record, title_weight);
        seg.ordinals.push_back(ordinal);
        storage.push_back(*record);
        st.owner[ordinal] = segment_id;
        st.local[ordinal] = local_doc;
    }
    seg.index.finalize();
    if (seg.index.doc_count() > 0) seg.scorer.emplace(seg.index, params);
    return pending.size();
}

} // namespace

SegmentedEngine::SegmentedEngine(const SearchEngine& base, const SegmentedEngine* prev,
                                 const kb::CorpusDelta& delta)
    : base_(&base) {
    const Clock::time_point start = Clock::now();
    options_ = base.options();
    // Crash-consistency fault sites: an apply that dies here (or anywhere
    // in this constructor) publishes nothing — the previous generation
    // stays authoritative and keeps serving. kb.delta.apply models a
    // rejected delta (the same site the corpus-level kb::apply_corpus_delta
    // carries); search.delta.segment models a failed segment build.
    CYBOK_FAULT_POINT("kb.delta.apply", ValidationError("injected: delta rejected"));
    CYBOK_FAULT_POINT("search.delta.segment", Error("injected: delta segment build failed"));
    const kb::Corpus& base_corpus = base.corpus();
    if (!base_corpus.indexed())
        throw ValidationError("delta: corpus must be reindexed before apply");

    if (prev != nullptr) {
        deltas_ = prev->deltas_; // shared immutable segments
        state_ = prev->state_;   // overlays carried; derived tables rebuilt below
    } else {
        // Seed the incremental state from the base engine: ordinals are
        // base positions, every overlay empty (merged df == base df, id
        // placement == base position). O(base docs) flat-array writes —
        // no per-record map nodes, no vocabulary walk.
        const std::array<VectorClass, 3> classes = {
            VectorClass::AttackPattern, VectorClass::Weakness, VectorClass::Vulnerability};
        for (VectorClass cls : classes) {
            ClassState& st = state(cls);
            const std::size_t docs = base.class_index(cls).doc_count();
            st.next_ordinal = static_cast<std::uint32_t>(docs);
            st.live_docs = docs;
            st.alive.assign(docs, 1);
            st.owner.assign(docs, 0);
            st.local.resize(docs);
            std::iota(st.local.begin(), st.local.end(), 0u);
        }
    }

    auto lookup_pattern = [&](kb::AttackPatternId id) {
        return live_ordinal(state(VectorClass::AttackPattern), base_corpus,
                            base_corpus.patterns(), id);
    };
    auto lookup_weakness = [&](kb::WeaknessId id) {
        return live_ordinal(state(VectorClass::Weakness), base_corpus,
                            base_corpus.weaknesses(), id);
    };
    auto lookup_vulnerability = [&](kb::VulnerabilityId id) {
        return live_ordinal(state(VectorClass::Vulnerability), base_corpus,
                            base_corpus.vulnerabilities(), id);
    };
    auto old_pattern = [&](std::uint32_t ordinal) -> const kb::AttackPattern& {
        const ClassState& st = state(VectorClass::AttackPattern);
        return st.owner[ordinal] == 0
                   ? base_corpus.patterns()[st.local[ordinal]]
                   : deltas_[st.owner[ordinal] - 1]->patterns[st.local[ordinal]];
    };
    auto old_weakness = [&](std::uint32_t ordinal) -> const kb::Weakness& {
        const ClassState& st = state(VectorClass::Weakness);
        return st.owner[ordinal] == 0
                   ? base_corpus.weaknesses()[st.local[ordinal]]
                   : deltas_[st.owner[ordinal] - 1]->weaknesses[st.local[ordinal]];
    };
    auto old_vulnerability = [&](std::uint32_t ordinal) -> const kb::Vulnerability& {
        const ClassState& st = state(VectorClass::Vulnerability);
        return st.owner[ordinal] == 0
                   ? base_corpus.vulnerabilities()[st.local[ordinal]]
                   : deltas_[st.owner[ordinal] - 1]->vulnerabilities[st.local[ordinal]];
    };

    // Same checks (and error texts) kb::apply_corpus_delta runs, against
    // the engine's own live view — all before any state mutation.
    validate_family(delta.patterns, delta.withdraw_patterns,
                    [&](kb::AttackPatternId id) { return lookup_pattern(id).has_value(); },
                    "attack pattern");
    validate_family(delta.weaknesses, delta.withdraw_weaknesses,
                    [&](kb::WeaknessId id) { return lookup_weakness(id).has_value(); },
                    "weakness");
    validate_family(delta.vulnerabilities, delta.withdraw_vulnerabilities,
                    [&](kb::VulnerabilityId id) { return lookup_vulnerability(id).has_value(); },
                    "vulnerability");

    const text::Bm25Scorer::Params params = base.class_bm25(VectorClass::AttackPattern).params();

    auto segment = std::make_shared<DeltaSegment>();
    const auto segment_id = static_cast<std::uint32_t>(deltas_.size() + 1);
    const float tw = options_.title_weight;
    apply_.report = {};
    apply_.segment_docs = 0;
    apply_.segment_docs += apply_class_delta(
        state(VectorClass::AttackPattern),
        segment->cls[static_cast<std::size_t>(VectorClass::AttackPattern)], segment->patterns,
        delta.patterns, delta.withdraw_patterns, segment_id,
        base.class_index(VectorClass::AttackPattern), lookup_pattern, old_pattern, tw, params,
        apply_.report.patterns);
    apply_.segment_docs += apply_class_delta(
        state(VectorClass::Weakness),
        segment->cls[static_cast<std::size_t>(VectorClass::Weakness)], segment->weaknesses,
        delta.weaknesses, delta.withdraw_weaknesses, segment_id,
        base.class_index(VectorClass::Weakness), lookup_weakness, old_weakness, tw, params,
        apply_.report.weaknesses);
    apply_.segment_docs += apply_class_delta(
        state(VectorClass::Vulnerability),
        segment->cls[static_cast<std::size_t>(VectorClass::Vulnerability)],
        segment->vulnerabilities, delta.vulnerabilities, delta.withdraw_vulnerabilities,
        segment_id, base.class_index(VectorClass::Vulnerability), lookup_vulnerability,
        old_vulnerability, tw, params, apply_.report.vulnerabilities);
    // A pure-withdrawal delta contributes no postings; the state change
    // (tombstones, df, merged order) lives in this engine, not a segment.
    if (apply_.segment_docs > 0) deltas_.push_back(std::move(segment));

    const std::array<VectorClass, 3> classes = {VectorClass::AttackPattern,
                                                VectorClass::Weakness,
                                                VectorClass::Vulnerability};
    for (VectorClass cls : classes) rebuild_derived_tables(cls);

    apply_.segments = deltas_.size();
    apply_.apply_ns = ns_since(start);
    build_metrics_.docs = state(VectorClass::AttackPattern).live_docs +
                          state(VectorClass::Weakness).live_docs +
                          state(VectorClass::Vulnerability).live_docs;
    build_metrics_.index_ns = apply_.apply_ns;
    build_metrics_.wall_ns = apply_.apply_ns;
    build_metrics_.threads = 1;
}

void SegmentedEngine::rebuild_derived_tables(VectorClass cls) {
    ClassState& st = state(cls);
    const text::InvertedIndex& base_index = base_->class_index(cls);
    const std::size_t base_docs = base_index.doc_count();
    const std::size_t n_segs = deltas_.size() + 1;

    // Merged positions and the merged mean length, both walked in
    // ascending live-ordinal order == merged record order. The average is
    // summed exactly the way InvertedIndex::finalize sums it on a
    // from-scratch build (per-doc lengths, document order), so merged
    // norms cannot drift by a ULP. The same walk fills the merged-index
    // -> (segment, local) table the record accessors read.
    st.merged_pos.assign(st.next_ordinal, UINT32_MAX);
    st.rec_of.clear();
    st.rec_of.reserve(st.live_docs);
    double total_len = 0.0;
    std::uint32_t pos = 0;
    for (std::uint32_t ordinal = 0; ordinal < st.next_ordinal; ++ordinal) {
        if (st.alive[ordinal] == 0) continue;
        st.merged_pos[ordinal] = pos++;
        const std::uint32_t o = st.owner[ordinal];
        const std::uint32_t l = st.local[ordinal];
        st.rec_of.emplace_back(o, l);
        const text::InvertedIndex& idx = o == 0 ? base_index : class_segment(o, cls).index;
        total_len += idx.doc_length(l);
    }
    if (pos != st.live_docs)
        throw Error("internal: segmented ordinal bookkeeping diverged from the live-doc count");
    st.merged_avg = pos == 0 ? 0.0 : total_len / static_cast<double>(pos);

    st.live.assign(n_segs, {});
    st.live[0].resize(base_docs);
    for (std::uint32_t d = 0; d < base_docs; ++d)
        st.live[0][d] = static_cast<std::uint8_t>(st.alive[d] != 0 && st.owner[d] == 0);
    for (std::size_t s = 1; s < n_segs; ++s) {
        const ClassDeltaSegment& cs = class_segment(s, cls);
        st.live[s].resize(cs.ordinals.size());
        for (std::uint32_t d = 0; d < cs.ordinals.size(); ++d)
            st.live[s][d] = static_cast<std::uint8_t>(st.alive[cs.ordinals[d]] != 0 &&
                                                      st.owner[cs.ordinals[d]] == s);
    }

    const text::Bm25Scorer::Params params = base_->class_bm25(cls).params();
    const double n_live = static_cast<double>(st.live_docs);
    st.norms.assign(n_segs, {});
    st.scales.assign(n_segs, {});
    for (std::size_t s = 0; s < n_segs; ++s) {
        const text::InvertedIndex& idx = s == 0 ? base_index : class_segment(s, cls).index;
        if (idx.doc_count() == 0) continue;
        st.norms[s] = text::merged_norms(idx, params, st.merged_avg);
        // Merged idf per local term id. The base segment starts from its
        // own df column (flat reads, no hashing) with the O(touched) df
        // overlay patched on top; delta segments have tiny vocabularies
        // and take the per-term overlay lookup.
        std::vector<double> merged_idf(idx.term_count(), 0.0);
        if (s == 0) {
            std::vector<double> df(idx.term_count(), 0.0);
            for (text::TermId t = 0; t < idx.term_count(); ++t)
                df[t] = static_cast<double>(idx.list(t).doc_count);
            for (const auto& [term, merged] : st.df_diff) {
                const text::TermId t = idx.vocabulary().lookup(term);
                if (t != text::kNoTerm) df[t] = static_cast<double>(merged);
            }
            for (text::TermId t = 0; t < idx.term_count(); ++t)
                merged_idf[t] = text::rsj_idf(n_live, df[t]);
        } else {
            for (text::TermId t = 0; t < idx.term_count(); ++t)
                merged_idf[t] = text::rsj_idf(
                    n_live, static_cast<double>(merged_df(cls, idx.vocabulary().term(t))));
        }
        st.scales[s] = text::merged_bound_scales(idx, merged_idf, st.merged_avg);
    }
}

std::uint32_t SegmentedEngine::merged_df(VectorClass cls, std::string_view term) const {
    const ClassState& st = state(cls);
    const auto it = st.df_diff.find(term);
    if (it != st.df_diff.end()) return it->second;
    return base_df(base_->class_index(cls), term);
}

std::size_t SegmentedEngine::class_doc_frequency(VectorClass cls, std::string_view term) const {
    return merged_df(cls, term);
}

const kb::AttackPattern& SegmentedEngine::pattern_at(std::size_t index) const {
    const auto& [o, l] = state(VectorClass::AttackPattern).rec_of[index];
    return o == 0 ? base_->corpus().patterns()[l] : deltas_[o - 1]->patterns[l];
}

const kb::Weakness& SegmentedEngine::weakness_at(std::size_t index) const {
    const auto& [o, l] = state(VectorClass::Weakness).rec_of[index];
    return o == 0 ? base_->corpus().weaknesses()[l] : deltas_[o - 1]->weaknesses[l];
}

const kb::Vulnerability& SegmentedEngine::vulnerability_at(std::size_t index) const {
    const auto& [o, l] = state(VectorClass::Vulnerability).rec_of[index];
    return o == 0 ? base_->corpus().vulnerabilities()[l] : deltas_[o - 1]->vulnerabilities[l];
}

void SegmentedEngine::materialize_corpus() const {
    // Records appended in ascending live-ordinal order == merged record
    // order (exactly the sequence kb::apply_corpus_delta evolves), then
    // one reindex — identical under kb::to_json to the corpus a
    // from-scratch apply chain would produce.
    auto corpus = std::make_unique<kb::Corpus>();
    const kb::Corpus& base_corpus = base_->corpus();
    const auto append_class = [this, &corpus](VectorClass cls, const auto& base_records,
                                              const auto& segment_records) {
        const ClassState& st = state(cls);
        for (std::uint32_t ordinal = 0; ordinal < st.next_ordinal; ++ordinal) {
            if (st.alive[ordinal] == 0) continue;
            const std::uint32_t o = st.owner[ordinal];
            const std::uint32_t l = st.local[ordinal];
            corpus->add(o == 0 ? base_records[l] : segment_records(o)[l]);
        }
    };
    append_class(VectorClass::AttackPattern, base_corpus.patterns(),
                 [this](std::uint32_t o) -> const std::vector<kb::AttackPattern>& {
                     return deltas_[o - 1]->patterns;
                 });
    append_class(VectorClass::Weakness, base_corpus.weaknesses(),
                 [this](std::uint32_t o) -> const std::vector<kb::Weakness>& {
                     return deltas_[o - 1]->weaknesses;
                 });
    append_class(VectorClass::Vulnerability, base_corpus.vulnerabilities(),
                 [this](std::uint32_t o) -> const std::vector<kb::Vulnerability>& {
                     return deltas_[o - 1]->vulnerabilities;
                 });
    corpus->reindex();
    merged_corpus_ = std::move(corpus);
}

const kb::Corpus& SegmentedEngine::corpus() const {
    std::call_once(corpus_once_, [this] { materialize_corpus(); });
    return *merged_corpus_;
}

text::IndexStats SegmentedEngine::index_stats() const noexcept {
    text::IndexStats s = base_->index_stats();
    for (const std::shared_ptr<const DeltaSegment>& seg : deltas_)
        for (const ClassDeltaSegment& cs : seg->cls) s += cs.index.stats();
    return s;
}

QueryEngine::LexicalPlan SegmentedEngine::plan_lexical(const std::vector<std::string>& tokens,
                                                       VectorClass cls) const {
    const ClassState& st = state(cls);
    LexicalPlan plan;

    // Distinct query terms with live merged df, in ascending term-string
    // order — exactly the term set and order a from-scratch merged index
    // would resolve (vocabulary membership there <=> df >= 1 here).
    std::vector<std::string_view> distinct;
    distinct.reserve(tokens.size());
    for (const std::string& tok : tokens)
        if (merged_df(cls, tok) > 0) distinct.push_back(tok);
    std::sort(distinct.begin(), distinct.end());
    distinct.erase(std::unique(distinct.begin(), distinct.end()), distinct.end());
    const double n_live = static_cast<double>(st.live_docs);
    plan.terms.reserve(distinct.size());
    for (std::string_view term : distinct) {
        const double df = static_cast<double>(merged_df(cls, term));
        plan.terms.push_back({term, text::rsj_idf(n_live, df)});
    }

    plan.segments.reserve(deltas_.size() + 1);
    const text::InvertedIndex& base_index = base_->class_index(cls);
    if (base_index.doc_count() > 0) {
        // Base ordinals are base positions: an identity segment (null
        // ordinals) that still carries a live mask and merged statistics.
        text::SegmentView base_view = text::sealed_view(base_index, base_->class_bm25(cls));
        base_view.norms = st.norms[0].data();
        base_view.live = st.live[0].data();
        base_view.bound_scale = st.scales[0].data();
        plan.segments.push_back(base_view);
    }
    for (std::size_t s = 1; s <= deltas_.size(); ++s) {
        const ClassDeltaSegment& cs = class_segment(s, cls);
        if (cs.index.doc_count() == 0) continue;
        plan.segments.push_back({&cs.index, &*cs.scorer, st.norms[s].data(), cs.ordinals.data(),
                                 st.live[s].data(), st.scales[s].data(), cs.index.doc_count()});
    }
    plan.ordinal_limit = st.next_ordinal;
    plan.positions = st.merged_pos.data();
    return plan;
}

} // namespace cybok::search
