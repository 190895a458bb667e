// Per-thread allocation accounting for the benchmark binary only.
//
// alloc_hooks.cpp replaces every global operator new/delete form (plain,
// array, nothrow, sized and aligned) with malloc-backed versions that bump
// two thread-local counters. Thread-local, so the hooks add no contention
// to the multi-lane end-to-end runs; the traced run reads them around
// single-threaded layer calls, where "this thread" is all the work.
#pragma once

#include <cstdint>

namespace perfbench::alloc {

struct Counts {
    std::uint64_t allocations = 0;
    std::uint64_t bytes = 0;
};

/// Cumulative allocations made by the calling thread since it started.
[[nodiscard]] Counts thread_counts() noexcept;

/// Counts accumulated by the calling thread since construction.
class Scope {
public:
    Scope() noexcept : start_(thread_counts()) {}
    [[nodiscard]] Counts delta() const noexcept {
        const Counts now = thread_counts();
        return {now.allocations - start_.allocations, now.bytes - start_.bytes};
    }

private:
    Counts start_;
};

} // namespace perfbench::alloc
