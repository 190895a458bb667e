// Memoizing cache for attribute queries. The same attribute text recurs
// constantly — "Linux OS" sits on several platforms of one model, and the
// what-if loop re-associates mostly-unchanged models — so the engine pays
// full BM25 + binding cost once per distinct (token sequence, attribute
// kind, platform, engine options) key and replays the result thereafter.
//
// Entries are content-addressed: the key fully determines the result
// against an immutable engine, so a cached value can never be stale.
// Component-scoped invalidation (invalidate_component) is therefore a
// *memory* policy, not a correctness requirement — it drops entries whose
// source attribute text was superseded by a refinement and would otherwise
// linger until capacity eviction.

#pragma once

#include <cstddef>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "search/engine.hpp"

namespace cybok::search {

/// Thread-safe FIFO-bounded map from query key to match list. All methods
/// lock internally; safe for concurrent mixed get/put from the parallel
/// association fan-out. Entries are immutable and shared, so a hit copies
/// its match list after the lock is released: lanes sharing one cache
/// contend only for the lookup, never for the copy.
class QueryCache {
public:
    explicit QueryCache(std::size_t capacity = 1 << 14) : capacity_(capacity) {}

    /// Cached matches for `key`, recording that `component` depends on the
    /// entry (for later invalidate_component). nullopt on miss.
    [[nodiscard]] std::optional<std::vector<Match>> get(const std::string& key,
                                                        std::string_view component);

    /// Insert (or overwrite) an entry. Oldest entries are evicted FIFO
    /// once `capacity` is exceeded.
    void put(const std::string& key, std::vector<Match> value, std::string_view component);

    /// Drop every entry recorded against `component`. Returns the number
    /// of live entries removed. Entries shared with other components are
    /// dropped too — they recompute on next demand (cheap, and keeps the
    /// bookkeeping a simple component -> keys multimap).
    std::size_t invalidate_component(std::string_view component);

    void clear();
    [[nodiscard]] std::size_t size() const;
    [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

private:
    void evict_to_capacity_locked();

    mutable std::mutex mutex_;
    std::size_t capacity_;
    std::unordered_map<std::string, std::shared_ptr<const std::vector<Match>>> entries_;
    std::deque<std::string> insertion_order_;
    /// component name -> keys it has read or written (may contain keys
    /// already evicted; erase is a no-op then).
    std::unordered_map<std::string, std::unordered_set<std::string>> component_keys_;
};

} // namespace cybok::search
