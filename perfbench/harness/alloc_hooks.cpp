// Global operator new/delete replacement feeding perfbench::alloc. Every
// allocation form routes to malloc/posix_memalign so that every delete
// form can route to free.
#include <cstdlib>
#include <new>

#include "harness/alloc.hpp"

namespace {

thread_local std::uint64_t t_allocations = 0;
thread_local std::uint64_t t_bytes = 0;

void* counted(std::size_t size) noexcept {
    ++t_allocations;
    t_bytes += size;
    return std::malloc(size == 0 ? 1 : size);
}

void* counted_aligned(std::size_t size, std::align_val_t align) noexcept {
    ++t_allocations;
    t_bytes += size;
    std::size_t a = static_cast<std::size_t>(align);
    if (a < sizeof(void*)) a = sizeof(void*);
    void* p = nullptr;
    if (posix_memalign(&p, a, size == 0 ? 1 : size) != 0) return nullptr;
    return p;
}

void* or_throw(void* p) {
    if (p == nullptr) throw std::bad_alloc();
    return p;
}

} // namespace

namespace perfbench::alloc {
Counts thread_counts() noexcept { return {t_allocations, t_bytes}; }
} // namespace perfbench::alloc

void* operator new(std::size_t n) { return or_throw(counted(n)); }
void* operator new[](std::size_t n) { return or_throw(counted(n)); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept { return counted(n); }
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept { return counted(n); }
void* operator new(std::size_t n, std::align_val_t a) { return or_throw(counted_aligned(n, a)); }
void* operator new[](std::size_t n, std::align_val_t a) {
    return or_throw(counted_aligned(n, a));
}
void* operator new(std::size_t n, std::align_val_t a, const std::nothrow_t&) noexcept {
    return counted_aligned(n, a);
}
void* operator new[](std::size_t n, std::align_val_t a, const std::nothrow_t&) noexcept {
    return counted_aligned(n, a);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t, const std::nothrow_t&) noexcept {
    std::free(p);
}
