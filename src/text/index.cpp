#include "text/index.hpp"

#include <algorithm>
#include <cmath>

namespace cybok::text {

TermId Vocabulary::intern(std::string_view term) {
    // Heterogeneous find: no std::string materialized for the probe.
    auto it = ids_.find(term);
    if (it != ids_.end()) return it->second;
    TermId id = static_cast<TermId>(terms_.size());
    terms_.emplace_back(term);
    ids_.emplace(terms_.back(), id);
    return id;
}

TermId Vocabulary::lookup(std::string_view term) const noexcept {
    auto it = ids_.find(term);
    return it == ids_.end() ? kNoTerm : it->second;
}

const std::string& Vocabulary::term(TermId id) const {
    if (id >= terms_.size()) throw NotFoundError("vocabulary: bad term id");
    return terms_[id];
}

namespace detail {

void check_doc_capacity(std::size_t doc_count) {
    // DocId UINT32_MAX is the "no current document" sentinel, so the last
    // usable id is UINT32_MAX - 1. Admitting the 2^32-1-th document would
    // make current_doc_ collide with the sentinel and surface later as a
    // misleading "add_document must be called first" from add_term.
    if (doc_count >= static_cast<std::size_t>(UINT32_MAX))
        throw ValidationError("index full: document count " + std::to_string(doc_count) +
                              " would overflow the 32-bit doc-id space (max " +
                              std::to_string(UINT32_MAX - 1) + " documents)");
}

} // namespace detail

DocId InvertedIndex::add_document() {
    if (finalized_) throw ValidationError("index already finalized");
    detail::check_doc_capacity(build_lengths_.size());
    flush_accum();
    current_doc_ = static_cast<DocId>(build_lengths_.size());
    build_lengths_.push_back(0.0);
    return current_doc_;
}

void InvertedIndex::add_term(std::string_view token, float field_weight) {
    if (finalized_) throw ValidationError("index already finalized");
    if (current_doc_ == UINT32_MAX) throw ValidationError("add_document must be called first");
    TermId t = vocab_.intern(token);
    accum_[t] += field_weight;
    build_lengths_[current_doc_] += field_weight;
}

void InvertedIndex::add_terms(const std::vector<std::string>& tokens, float field_weight) {
    for (const std::string& t : tokens) add_term(t, field_weight);
}

void InvertedIndex::flush_accum() {
    if (current_doc_ == UINT32_MAX || accum_.empty()) {
        accum_.clear();
        return;
    }
    if (build_postings_.size() < vocab_.size()) build_postings_.resize(vocab_.size());
    for (const auto& [term, weight] : accum_)
        build_postings_[term].push_back(Posting{current_doc_, weight});
    accum_.clear();
}

void InvertedIndex::finalize() {
    if (finalized_) throw ValidationError("index already finalized");
    flush_accum();
    if (build_postings_.size() < vocab_.size()) build_postings_.resize(vocab_.size());
    for (auto& plist : build_postings_)
        std::sort(plist.begin(), plist.end(),
                  [](const Posting& a, const Posting& b) { return a.doc < b.doc; });
    double total = 0.0;
    for (double len : build_lengths_) total += len;
    avg_len_ = build_lengths_.empty() ? 0.0 : total / static_cast<double>(build_lengths_.size());
    // One IDF table for BM25 scoring and the evidence gate: computed here
    // so no query ever recomputes a log or resolves a term string again.
    const double n = static_cast<double>(build_lengths_.size());
    std::vector<double> idf(build_postings_.size());
    for (TermId t = 0; t < build_postings_.size(); ++t)
        idf[t] = rsj_idf(n, static_cast<double>(build_postings_[t].size()));
    store_ = PostingStore::encode(build_postings_, static_cast<std::uint32_t>(n));
    doc_lengths_ = util::F64Table::own(std::move(build_lengths_));
    idf_ = util::F64Table::own(std::move(idf));
    build_postings_.clear();
    build_postings_.shrink_to_fit();
    build_lengths_ = {};
    finalized_ = true;
}

std::size_t InvertedIndex::doc_frequency(std::string_view term) const noexcept {
    TermId t = vocab_.lookup(term);
    if (t == kNoTerm) return 0;
    if (finalized_) return store_.list(t).doc_count;
    return t < build_postings_.size() ? build_postings_[t].size() : 0;
}

double InvertedIndex::doc_length(DocId d) const {
    if (d >= doc_count()) throw NotFoundError("index: bad doc id");
    return finalized_ ? doc_lengths_[d] : build_lengths_[d];
}

IndexStats InvertedIndex::stats() const noexcept {
    IndexStats s;
    s.docs = doc_count();
    s.terms = term_count();
    s.postings = store_.posting_count();
    s.blocks = store_.block_count();
    s.postings_bytes = store_.byte_size();
    s.table_bytes = (doc_lengths_.size() + idf_.size()) * sizeof(double);
    s.uncompressed_postings_bytes =
        8 * store_.posting_count() + 24 * static_cast<std::uint64_t>(store_.term_count());
    s.mapped = !store_.owning();
    return s;
}

// ------------------------------------------------------------ freeze/thaw

void Vocabulary::freeze(util::ByteWriter& w) const {
    w.u32(static_cast<std::uint32_t>(terms_.size()));
    for (const std::string& t : terms_) w.str(t);
}

Vocabulary Vocabulary::thaw(util::ByteReader& r) {
    Vocabulary v;
    const std::uint32_t n = r.u32();
    v.terms_.reserve(n);
    v.ids_.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
        v.terms_.push_back(r.str());
        v.ids_.emplace(v.terms_.back(), static_cast<TermId>(i));
    }
    return v;
}

void InvertedIndex::freeze(util::ByteWriter& w, util::SlabWriter& slabs) const {
    if (!finalized_) throw ValidationError("freeze requires a finalized index");
    vocab_.freeze(w);
    w.u32(static_cast<std::uint32_t>(doc_count()));
    w.f64(avg_len_);
    // The big tables go out as aligned slabs, byte-identical to the
    // resident representation, so thaw can view them in place.
    util::write_slab_ref(w, slabs.add(doc_lengths_.bytes()));
    util::write_slab_ref(w, slabs.add(idf_.bytes()));
    util::write_slab_ref(w, slabs.add(store_.term_bytes()));
    util::write_slab_ref(w, slabs.add(store_.block_bytes()));
    util::write_slab_ref(w, slabs.add(store_.data_bytes()));
}

InvertedIndex InvertedIndex::thaw(util::ByteReader& r, const util::SlabView& slabs) {
    InvertedIndex index;
    index.vocab_ = Vocabulary::thaw(r);
    const std::uint32_t n_docs = r.u32();
    index.avg_len_ = r.f64();
    index.doc_lengths_ = util::F64Table::view(slabs.slice(util::read_slab_ref(r)));
    index.idf_ = util::F64Table::view(slabs.slice(util::read_slab_ref(r)));
    const std::string_view terms = slabs.slice(util::read_slab_ref(r));
    const std::string_view blocks = slabs.slice(util::read_slab_ref(r));
    const std::string_view data = slabs.slice(util::read_slab_ref(r));
    if (index.doc_lengths_.size() != n_docs || index.idf_.size() != index.vocab_.size())
        throw ValidationError("index snapshot: table sizes do not match vocabulary");
    index.store_ = PostingStore::from_slabs(terms, blocks, data, n_docs);
    if (index.store_.term_count() != index.vocab_.size())
        throw ValidationError("index snapshot: posting store does not match vocabulary");
    index.finalized_ = true;
    return index;
}

// ----------------------------------------------------------------- BM25

Bm25Scorer::Bm25Scorer(const InvertedIndex& index, Params params) : params_(params) {
    if (!index.finalized()) throw ValidationError("BM25 requires a finalized index");
    // Per-doc length norms plus per-term and per-block max impact scores,
    // precomputed once so the kernel's inner loop is a multiply-add over
    // flat arrays and Block-Max WAND can bound whole blocks.
    const double avg = std::max(index.avg_doc_length(), 1e-9);
    std::vector<double> norms(index.doc_count());
    for (DocId d = 0; d < norms.size(); ++d)
        norms[d] = params_.k1 * (1.0 - params_.b +
                                 params_.b * index.doc_length(d) / avg);
    std::vector<double> max_contrib(index.term_count(), 0.0);
    std::vector<double> block_max(index.store().block_count(), 0.0);
    std::uint32_t docs[kBlockDocs];
    float weights[kBlockDocs];
    for (TermId t = 0; t < index.term_count(); ++t) {
        const double idf_t = index.idf(t);
        const ListView lv = index.list(t);
        for (std::uint32_t b = 0; b < lv.n_blocks; ++b) {
            const std::size_t n = decode_block(lv, b, docs, weights);
            double m = 0.0;
            for (std::size_t i = 0; i < n; ++i) {
                const double tf = weights[i];
                const double contrib =
                    idf_t * (tf * (params_.k1 + 1.0)) / (tf + norms[docs[i]]);
                m = std::max(m, contrib);
            }
            block_max[lv.block_base + b] = m;
            max_contrib[t] = std::max(max_contrib[t], m);
        }
    }
    norms_ = util::F64Table::own(std::move(norms));
    max_contrib_ = util::F64Table::own(std::move(max_contrib));
    block_max_ = util::F64Table::own(std::move(block_max));
}

Bm25Scorer::Bm25Scorer(ThawTag, const InvertedIndex& index, util::ByteReader& r,
                       const util::SlabView& slabs) {
    params_.k1 = r.f64();
    params_.b = r.f64();
    norms_ = util::F64Table::view(slabs.slice(util::read_slab_ref(r)));
    max_contrib_ = util::F64Table::view(slabs.slice(util::read_slab_ref(r)));
    block_max_ = util::F64Table::view(slabs.slice(util::read_slab_ref(r)));
    if (norms_.size() != index.doc_count() || max_contrib_.size() != index.term_count() ||
        block_max_.size() != index.store().block_count())
        throw ValidationError("BM25 snapshot: table sizes do not match index");
}

void Bm25Scorer::freeze(util::ByteWriter& w, util::SlabWriter& slabs) const {
    w.f64(params_.k1);
    w.f64(params_.b);
    util::write_slab_ref(w, slabs.add(norms_.bytes()));
    util::write_slab_ref(w, slabs.add(max_contrib_.bytes()));
    util::write_slab_ref(w, slabs.add(block_max_.bytes()));
}

Bm25Scorer Bm25Scorer::thaw(const InvertedIndex& index, util::ByteReader& r,
                            const util::SlabView& slabs) {
    return Bm25Scorer(ThawTag{}, index, r, slabs);
}

} // namespace cybok::text
