#include "text/scratch.hpp"

#include <algorithm>

namespace cybok::text {

void QueryScratch::begin(std::size_t doc_count) {
    if (stamp.size() < doc_count) {
        stamp.resize(doc_count, 0);
        score.resize(doc_count);
        evidence_idf.resize(doc_count);
        term_bits.resize(doc_count);
    }
    if (++epoch == 0) {
        // Epoch wrapped: stamps surviving from 2^32 queries ago could alias
        // the new epoch. Reset them once and restart from epoch 1.
        std::fill(stamp.begin(), stamp.end(), 0u);
        epoch = 1;
    }
    touched.clear();
    heap.clear();
    candidates.clear();
    wide_terms.clear();
}

QueryScratch& tls_query_scratch() {
    thread_local QueryScratch scratch;
    return scratch;
}

} // namespace cybok::text
