#include "text/segments.hpp"

#include <algorithm>
#include <bit>
#include <functional>
#include <limits>
#include <utility>

namespace cybok::text {

namespace {

/// Rounding slack on rescaled bounds: ~1e-6 relative dwarfs the ~1e-16
/// relative error the scale computation can introduce, and costs at most
/// a handful of spurious block decodes.
constexpr double kBoundSlack = 1.0 + 1e-6;

/// Canonical terms with a bit in the per-document matched-term word
/// (QueryScratch::term_bits); matches of any further terms spill into
/// QueryScratch::wide_terms.
constexpr std::size_t kWordTerms = 64;

/// Segment access for the two instantiations of the scoring loops. The
/// sealed one (a single sealed_view()) compiles out the ordinal
/// translation, the live mask and the bound scale; the general one reads
/// them, taking a null array as identity / all live / unit scale.
template <bool Sealed>
struct Seg {
    static DocId ord(const SegmentView& seg, DocId local) noexcept {
        if constexpr (Sealed) return local;
        else return seg.ordinals == nullptr ? local : seg.ordinals[local];
    }
    static bool live(const SegmentView& seg, DocId local) noexcept {
        if constexpr (Sealed) return true;
        else return seg.live == nullptr || seg.live[local] != 0;
    }
    static double scale(const SegmentView& seg, TermId t) noexcept {
        if constexpr (Sealed) return 1.0;
        else return seg.bound_scale == nullptr ? 1.0 : seg.bound_scale[t];
    }
    /// Current global ordinal of a cursor positioned in `seg` (kNoDocId
    /// when exhausted, which is also what an exhausted cursor's doc() is).
    static DocId cursor_ord(const SegmentView& seg, const PostingCursor& pc) noexcept {
        if (Sealed || seg.ordinals == nullptr) return pc.doc();
        return pc.exhausted() ? kNoDocId : seg.ordinals[pc.doc()];
    }
    /// First local doc of `seg` with ordinal >= target (seg.docs when
    /// none). Identity ordinals — every sealed view, and a delta chain's
    /// base segment — need no search.
    static std::uint32_t local_lower_bound(const SegmentView& seg, DocId target) noexcept {
        if (Sealed || seg.ordinals == nullptr)
            return static_cast<std::uint32_t>(std::min<std::size_t>(target, seg.docs));
        const std::uint32_t* begin = seg.ordinals;
        return static_cast<std::uint32_t>(std::lower_bound(begin, begin + seg.docs, target) -
                                          begin);
    }
    /// NextGEQ in ordinal space: advance to the first posting whose global
    /// ordinal is >= target (ordinals are strictly ascending in local doc
    /// id, so the local lower bound translates the target exactly). With
    /// identity ordinals the target is already local; one past the last
    /// document exhausts the cursor.
    static void seek_ord(const SegmentView& seg, PostingCursor& pc, DocId target) {
        if (Sealed || seg.ordinals == nullptr) {
            pc.seek(target);
            return;
        }
        const std::uint32_t local = local_lower_bound(seg, target);
        pc.seek(local >= seg.docs ? kNoDocId : static_cast<DocId>(local));
    }
};

/// (score desc, doc asc) — the total order every result list uses.
struct BetterCandidate {
    bool operator()(const std::pair<double, DocId>& a,
                    const std::pair<double, DocId>& b) const noexcept {
        if (a.first != b.first) return a.first > b.first;
        return a.second < b.second;
    }
};

/// Gate, top-k-select, and materialize hits from the scratch
/// accumulators. Matched terms come out as ascending canonical term
/// indices: the word's bits first, then any spilled wide terms (all of
/// which are >= 64).
std::vector<Hit> collect_hits(QueryScratch& s, const KernelOptions& opts, KernelStats* stats) {
    auto& cand = s.candidates;
    std::uint64_t gated = 0;
    for (DocId d : s.touched) {
        if (s.evidence_idf[d] < opts.min_evidence_idf) {
            ++gated;
            continue;
        }
        cand.emplace_back(s.score[d], d);
    }
    if (opts.top_k > 0 && cand.size() > opts.top_k) {
        std::nth_element(cand.begin(),
                         cand.begin() + static_cast<std::ptrdiff_t>(opts.top_k), cand.end(),
                         BetterCandidate{});
        cand.resize(opts.top_k);
    }
    std::sort(cand.begin(), cand.end(), BetterCandidate{});
    auto& wide = s.wide_terms;
    std::sort(wide.begin(), wide.end()); // (doc, term); empty unless > 64 terms
    std::vector<Hit> hits;
    hits.reserve(cand.size());
    for (const auto& [score, d] : cand) {
        Hit h{d, score, {}};
        std::uint64_t bits = s.term_bits[d];
        auto lo = std::lower_bound(wide.begin(), wide.end(), std::pair<DocId, std::uint32_t>{d, 0});
        const auto hi = std::find_if(lo, wide.end(), [d](const auto& e) { return e.first != d; });
        h.matched_terms.reserve(static_cast<std::size_t>(std::popcount(bits)) +
                                static_cast<std::size_t>(hi - lo));
        while (bits != 0) {
            h.matched_terms.push_back(static_cast<TermId>(std::countr_zero(bits)));
            bits &= bits - 1;
        }
        for (; lo != hi; ++lo) h.matched_terms.push_back(lo->second);
        hits.push_back(std::move(h));
    }
    if (stats != nullptr) stats->hits_gated += gated;
    // A wide query's spill list is sized to its postings; release it so
    // one such query does not grow this arena for every query after it.
    if (wide.capacity() != 0) std::vector<std::pair<DocId, std::uint32_t>>().swap(wide);
    return hits;
}

/// Unpruned path: term-at-a-time over every block of every segment, in
/// the reference accumulation order (ascending canonical term; each doc
/// lives in one segment, so per-doc sums follow that order exactly).
template <bool Sealed>
std::vector<Hit> score_term_at_a_time(const std::vector<SegmentView>& segments,
                                      const std::vector<SegmentedTerm>& terms, QueryScratch& s,
                                      const KernelOptions& opts, SegmentedStats* stats) {
    using S = Seg<Sealed>;
    const std::size_t n_terms = terms.size();
    const std::size_t n_segs = segments.size();
    const double k1 = segments.front().scorer->params().k1;
    PostingStats pstats;
    std::uint64_t masked = 0;
    std::uint32_t docs[kBlockDocs];
    float weights[kBlockDocs];
    for (std::size_t i = 0; i < n_terms; ++i) {
        const double idf_t = terms[i].idf;
        const bool wide = i >= kWordTerms;
        const std::uint64_t bit = wide ? 0 : std::uint64_t{1} << i;
        for (std::size_t g = 0; g < n_segs; ++g) {
            const TermId tid = s.seg_tids[i * n_segs + g];
            if (tid == kNoTerm) continue;
            const SegmentView& seg = segments[g];
            const ListView lv = seg.index->list(tid);
            for (std::uint32_t b = 0; b < lv.n_blocks; ++b) {
                const std::size_t n = decode_block(lv, b, docs, weights, &pstats);
                for (std::size_t j = 0; j < n; ++j) {
                    const DocId d = docs[j];
                    if (!S::live(seg, d)) {
                        ++masked;
                        continue;
                    }
                    const DocId ord = S::ord(seg, d);
                    const double tf = weights[j];
                    const double contrib = idf_t * (tf * (k1 + 1.0)) / (tf + seg.norms[d]);
                    if (s.stamp[ord] == s.epoch) {
                        s.score[ord] += contrib;
                        s.evidence_idf[ord] += idf_t;
                        s.term_bits[ord] |= bit;
                    } else {
                        s.stamp[ord] = s.epoch;
                        s.score[ord] = contrib;
                        s.evidence_idf[ord] = idf_t;
                        s.term_bits[ord] = bit;
                        s.touched.push_back(ord);
                    }
                    if (wide) s.wide_terms.emplace_back(ord, static_cast<std::uint32_t>(i));
                }
            }
        }
    }
    if (stats != nullptr) {
        stats->kernel.postings_scanned += pstats.postings_decoded;
        stats->kernel.blocks_decoded += pstats.blocks_decoded;
        stats->kernel.blocks_skipped += pstats.blocks_skipped;
        stats->tombstones_masked += masked;
    }
    return collect_hits(s, opts, stats != nullptr ? &stats->kernel : nullptr);
}

/// Block-Max WAND: document-at-a-time with two-level pruning, one cursor
/// per (canonical term, segment) pair that has postings, ordered and
/// pivoted in global ordinal space. The term-level max scores pick a
/// pivot document (no prefix of cursors whose summed bound is strictly
/// below the top-k floor can contain a top-k document — strict, so ties
/// can never be wrongly skipped); the per-block max scores then either
/// confirm the pivot is worth decoding or certify a whole ordinal range —
/// and the compressed blocks covering it — as skippable. Every evaluated
/// document's score is accumulated in ascending-term order starting from
/// 0.0, which reproduces the reference sums bit-for-bit (contributions
/// are positive, 0 + x == x), and the surviving candidates flow through
/// the same gate/top-k collection as the unpruned path, so the result is
/// exactly the unpruned top-k. Summing term-level bounds over several
/// cursors of one term only loosens them (a document is live in exactly
/// one segment), never invalidates them.
template <bool Sealed>
std::vector<Hit> score_block_max_wand(const std::vector<SegmentView>& segments,
                                      const std::vector<SegmentedTerm>& terms, QueryScratch& s,
                                      const KernelOptions& opts, SegmentedStats* stats) {
    using S = Seg<Sealed>;
    const std::size_t n_terms = terms.size();
    const std::size_t n_segs = segments.size();
    const std::size_t k = opts.top_k;
    const double k1 = segments.front().scorer->params().k1;
    PostingStats pstats;
    std::uint64_t masked = 0;

    // Build the cursor set term-major, so ascending cursor index is
    // ascending canonical term — the exact-evaluation order below.
    s.cursor_seg.clear();
    s.cursor_term.clear();
    s.cursor_scale.clear();
    s.cursor_bound.clear();
    for (std::size_t i = 0; i < n_terms; ++i) {
        for (std::size_t g = 0; g < n_segs; ++g) {
            const TermId tid = s.seg_tids[i * n_segs + g];
            if (tid == kNoTerm) continue;
            const double scale = S::scale(segments[g], tid);
            s.cursor_seg.push_back(static_cast<std::uint32_t>(g));
            s.cursor_term.push_back(static_cast<std::uint32_t>(i));
            s.cursor_scale.push_back(scale);
            s.cursor_bound.push_back(segments[g].scorer->max_contribution(tid) * scale);
        }
    }
    const std::size_t n_cursors = s.cursor_seg.size();
    s.ensure_bmw(n_cursors);
    // Plain pointers into the per-cursor arrays, which nothing below
    // resizes, so the loops can keep them in registers.
    PostingCursor* const cursors = s.cursors.data();
    const std::uint32_t* const cur_seg = s.cursor_seg.data();
    const std::uint32_t* const cur_term = s.cursor_term.data();
    const double* const cur_scale = s.cursor_scale.data();
    const double* const cur_bound = s.cursor_bound.data();
    const SegmentView* const segs = segments.data();
    const Bm25Scorer* const sealed_scorer = segs[0].scorer;
    auto& order = s.order;
    for (std::size_t c = 0; c < n_cursors; ++c) {
        const SegmentView& seg = segs[cur_seg[c]];
        cursors[c].reset(seg.index->list(s.seg_tids[cur_term[c] * n_segs + cur_seg[c]]),
                         s.block_docs.data() + c * kBlockDocs,
                         s.block_weights.data() + c * kBlockDocs, &pstats);
        if (!cursors[c].exhausted()) order.push_back(static_cast<std::uint32_t>(c));
    }
    const auto seg_of = [segs, cur_seg](std::size_t c) -> const SegmentView& {
        return segs[Sealed ? 0 : cur_seg[c]];
    };
    const auto ord_of = [seg_of, cursors](std::size_t c) {
        return S::cursor_ord(seg_of(c), cursors[c]);
    };

    auto& heap = s.heap; // min-heap of top-k gate-passing scores
    double theta = -std::numeric_limits<double>::infinity();
    std::uint64_t pruned = 0;
    while (!order.empty()) {
        std::sort(order.begin(), order.end(), [ord_of](std::uint32_t a, std::uint32_t b) {
            const DocId da = ord_of(a), db = ord_of(b);
            if (da != db) return da < db;
            return a < b;
        });
        // Pivot: shortest prefix whose term-level bound can reach theta.
        double ub = 0.0;
        std::size_t p = 0;
        bool found = false;
        for (; p < order.size(); ++p) {
            ub += cur_bound[order[p]];
            if (ub >= theta) {
                found = true;
                break;
            }
        }
        if (!found) break; // no remaining document can reach the floor
        const DocId pivot = ord_of(order[p]);
        while (p + 1 < order.size() && ord_of(order[p + 1]) == pivot) ++p;

        // Block-level refinement in ordinal space: each cursor's candidate
        // block is the one that would hold the pivot's local position, and
        // its (rescaled) block max bounds the contribution. Metadata only
        // — nothing is decompressed here.
        double block_ub = 0.0;
        DocId min_boundary = kNoDocId;
        for (std::size_t i = 0; i <= p; ++i) {
            const std::uint32_t c = order[i];
            const PostingCursor& pc = cursors[c];
            // A sealed view's pivot is one of its own documents.
            DocId local = pivot;
            if constexpr (!Sealed) {
                local = S::local_lower_bound(seg_of(c), pivot);
                if (local >= seg_of(c).docs) continue; // segment ends before the pivot
            }
            const std::uint32_t b = pc.find_block(local);
            if (b >= pc.n_blocks()) continue; // list ends before the pivot
            const std::size_t block = pc.block_base() + b;
            if constexpr (Sealed) {
                block_ub += sealed_scorer->block_max_bound(block);
                min_boundary = std::min(min_boundary, pc.last_doc_of(b));
            } else {
                const SegmentView& seg = seg_of(c);
                block_ub += seg.scorer->block_max_bound(block) * cur_scale[c];
                min_boundary = std::min(min_boundary, S::ord(seg, pc.last_doc_of(b)));
            }
        }

        if (block_ub >= theta) {
            // Evaluate the pivot exactly: ascending canonical term order,
            // one live segment per term, dead postings masked.
            for (std::size_t i = 0; i <= p; ++i)
                S::seek_ord(seg_of(order[i]), cursors[order[i]], pivot);
            double score = 0.0, evidence = 0.0;
            std::uint64_t bits = 0;
            bool matched = false, spilled = false;
            for (std::size_t c = 0; c < n_cursors; ++c) {
                const SegmentView& seg = seg_of(c);
                const PostingCursor& pc = cursors[c];
                if (pc.exhausted() || S::cursor_ord(seg, pc) != pivot) continue;
                if (!S::live(seg, pc.doc())) {
                    ++masked;
                    continue;
                }
                const std::uint32_t i = cur_term[c];
                const double tf = pc.weight();
                const double idf_t = terms[i].idf;
                score += idf_t * (tf * (k1 + 1.0)) / (tf + seg.norms[pc.doc()]);
                evidence += idf_t;
                if (i < kWordTerms) bits |= std::uint64_t{1} << i;
                else spilled = true;
                matched = true;
            }
            // Matches of terms past the 64th spill in a second pass, which
            // keeps the loop above free of calls.
            if (spilled) {
                for (std::size_t c = 0; c < n_cursors; ++c) {
                    const PostingCursor& pc = cursors[c];
                    if (cur_term[c] >= kWordTerms && !pc.exhausted() && ord_of(c) == pivot &&
                        S::live(seg_of(c), pc.doc()))
                        s.wide_terms.emplace_back(pivot, cur_term[c]);
                }
            }
            // A pivot whose postings were all tombstones is not a document
            // of the merged corpus's result set — don't materialize it.
            if (matched) {
                s.stamp[pivot] = s.epoch;
                s.score[pivot] = score;
                s.evidence_idf[pivot] = evidence;
                s.term_bits[pivot] = bits;
                s.touched.push_back(pivot);
                if (evidence >= opts.min_evidence_idf) {
                    // Exact scores (not partial lower bounds) feed the
                    // floor, so theta is the true k-th best gate-passing
                    // score so far.
                    heap.push_back(score);
                    std::push_heap(heap.begin(), heap.end(), std::greater<>{});
                    if (heap.size() > k) {
                        std::pop_heap(heap.begin(), heap.end(), std::greater<>{});
                        heap.pop_back();
                    }
                    if (heap.size() == k) theta = heap.front();
                }
            }
            for (std::size_t i = 0; i <= p; ++i) {
                const std::uint32_t c = order[i];
                if (!cursors[c].exhausted() && ord_of(c) == pivot)
                    S::seek_ord(seg_of(c), cursors[c], pivot + 1);
            }
        } else {
            // Every ordinal in [pivot, min_boundary] draws its possible
            // contributions from exactly the blocks bounded above (earlier
            // blocks end before the pivot), so the whole range is below
            // theta. Jump past it, but never past the first cursor outside
            // the pivot prefix.
            ++pruned;
            DocId target = min_boundary == kNoDocId ? kNoDocId : min_boundary + 1;
            if (p + 1 < order.size()) target = std::min(target, ord_of(order[p + 1]));
            for (std::size_t i = 0; i <= p; ++i)
                S::seek_ord(seg_of(order[i]), cursors[order[i]], target);
        }
        order.erase(std::remove_if(order.begin(), order.end(),
                                   [&](std::uint32_t c) { return cursors[c].exhausted(); }),
                    order.end());
    }
    // Cursors left standing when the loop exits were abandoned by the
    // term-level bound: no document they still cover can reach theta, so
    // their undecoded tails are blocks skipped without decompression.
    for (std::size_t c = 0; c < n_cursors; ++c)
        pstats.blocks_skipped += cursors[c].undecoded_tail();
    if (stats != nullptr) {
        stats->kernel.postings_scanned += pstats.postings_decoded;
        stats->kernel.blocks_decoded += pstats.blocks_decoded;
        stats->kernel.blocks_skipped += pstats.blocks_skipped;
        stats->kernel.docs_pruned += pruned;
        stats->tombstones_masked += masked;
    }
    return collect_hits(s, opts, stats != nullptr ? &stats->kernel : nullptr);
}

template <bool Sealed>
std::vector<Hit> run_query(const std::vector<SegmentView>& segments, std::size_t ordinal_limit,
                           const std::vector<SegmentedTerm>& terms, QueryScratch& s,
                           const KernelOptions& opts, SegmentedStats* stats) {
    const std::size_t n_terms = terms.size();
    const std::size_t n_segs = segments.size();
    s.begin(ordinal_limit);

    // Resolve every (term, segment) TermId once — kNoTerm where the
    // segment holds no postings for the term — and count the segments a
    // delta-chain query visits.
    auto& seg_tids = s.seg_tids;
    seg_tids.assign(n_terms * n_segs, kNoTerm);
    std::uint64_t visited_count = 0;
    for (std::size_t g = 0; g < n_segs; ++g) {
        bool visited = false;
        for (std::size_t i = 0; i < n_terms; ++i) {
            const TermId tid = segments[g].index->vocabulary().lookup(terms[i].term);
            if (tid == kNoTerm || segments[g].index->list(tid).empty()) continue;
            seg_tids[i * n_segs + g] = tid;
            visited = true;
        }
        if (visited) ++visited_count;
    }
    if (!Sealed && stats != nullptr) stats->segments_visited += visited_count;

    if (opts.prune && opts.top_k > 0)
        return score_block_max_wand<Sealed>(segments, terms, s, opts, stats);
    return score_term_at_a_time<Sealed>(segments, terms, s, opts, stats);
}

} // namespace

std::vector<Hit> query_segments(const std::vector<SegmentView>& segments,
                                std::size_t ordinal_limit,
                                const std::vector<SegmentedTerm>& terms, QueryScratch& scratch,
                                const KernelOptions& opts, SegmentedStats* stats) {
    if (terms.empty() || segments.empty()) return {};
    const bool sealed = segments.size() == 1 && segments[0].ordinals == nullptr &&
                        segments[0].live == nullptr && segments[0].bound_scale == nullptr;
    return sealed ? run_query<true>(segments, ordinal_limit, terms, scratch, opts, stats)
                  : run_query<false>(segments, ordinal_limit, terms, scratch, opts, stats);
}

SegmentView sealed_view(const InvertedIndex& index, const Bm25Scorer& scorer) noexcept {
    SegmentView view;
    view.index = &index;
    view.scorer = &scorer;
    view.norms = scorer.norms();
    view.docs = index.doc_count();
    return view;
}

std::vector<SegmentedTerm> sealed_terms(const InvertedIndex& index,
                                        const std::vector<std::string>& tokens) {
    const Vocabulary& vocab = index.vocabulary();
    std::vector<SegmentedTerm> terms;
    terms.reserve(tokens.size());
    for (const std::string& tok : tokens) {
        const TermId t = vocab.lookup(tok);
        if (t != kNoTerm) terms.push_back({vocab.term(t), index.idf(t)});
    }
    std::sort(terms.begin(), terms.end(),
              [](const SegmentedTerm& a, const SegmentedTerm& b) { return a.term < b.term; });
    terms.erase(std::unique(terms.begin(), terms.end(),
                            [](const SegmentedTerm& a, const SegmentedTerm& b) {
                                return a.term == b.term;
                            }),
                terms.end());
    return terms;
}

std::vector<double> merged_norms(const InvertedIndex& index, Bm25Scorer::Params params,
                                 double merged_avg_len) {
    const double avg = std::max(merged_avg_len, 1e-9);
    std::vector<double> norms(index.doc_count());
    for (DocId d = 0; d < norms.size(); ++d)
        norms[d] = params.k1 * (1.0 - params.b + params.b * index.doc_length(d) / avg);
    return norms;
}

std::vector<double> merged_bound_scales(const InvertedIndex& index,
                                        const std::vector<double>& merged_idf,
                                        double merged_avg_len) {
    const double avg_local = std::max(index.avg_doc_length(), 1e-9);
    const double avg_scale = std::max(1.0, std::max(merged_avg_len, 1e-9) / avg_local);
    std::vector<double> scales(index.term_count(), 0.0);
    for (TermId t = 0; t < scales.size(); ++t) {
        const double idf_local = index.idf(t);
        if (idf_local <= 0.0) continue; // term with no postings: bound stays 0
        scales[t] = (merged_idf[t] / idf_local) * avg_scale * kBoundSlack;
    }
    return scales;
}

} // namespace cybok::text
