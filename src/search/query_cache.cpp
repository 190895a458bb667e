#include "search/query_cache.hpp"

#include "util/fault.hpp"

namespace cybok::search {

std::optional<std::vector<Match>> QueryCache::get(const std::string& key,
                                                  std::string_view component) {
    // Models a poisoned or unreadable entry; the Associator treats the
    // typed failure as a miss and recomputes.
    CYBOK_FAULT_POINT("search.cache.get", Error("injected: cache get failed"));
    std::shared_ptr<const std::vector<Match>> entry;
    {
        std::lock_guard<std::mutex> lk(mutex_);
        auto it = entries_.find(key);
        if (it == entries_.end()) return std::nullopt;
        entry = it->second;
        component_keys_[std::string(component)].insert(key);
    }
    return *entry;
}

void QueryCache::put(const std::string& key, std::vector<Match> value,
                     std::string_view component) {
    // Fires before any mutation, so a failed put never leaves a partial
    // entry; the Associator returns the result uncached.
    CYBOK_FAULT_POINT("search.cache.put", Error("injected: cache put failed"));
    auto entry = std::make_shared<const std::vector<Match>>(std::move(value));
    std::lock_guard<std::mutex> lk(mutex_);
    auto [it, inserted] = entries_.try_emplace(key, entry);
    if (!inserted) it->second = std::move(entry);
    else insertion_order_.push_back(key);
    component_keys_[std::string(component)].insert(key);
    evict_to_capacity_locked();
}

std::size_t QueryCache::invalidate_component(std::string_view component) {
    std::lock_guard<std::mutex> lk(mutex_);
    auto it = component_keys_.find(std::string(component));
    if (it == component_keys_.end()) return 0;
    std::size_t removed = 0;
    for (const std::string& key : it->second) removed += entries_.erase(key);
    component_keys_.erase(it);
    // insertion_order_ may keep names of erased entries; eviction treats
    // those as no-ops, so no compaction is needed here.
    return removed;
}

void QueryCache::clear() {
    std::lock_guard<std::mutex> lk(mutex_);
    entries_.clear();
    insertion_order_.clear();
    component_keys_.clear();
}

std::size_t QueryCache::size() const {
    std::lock_guard<std::mutex> lk(mutex_);
    return entries_.size();
}

void QueryCache::evict_to_capacity_locked() {
    while (entries_.size() > capacity_ && !insertion_order_.empty()) {
        entries_.erase(insertion_order_.front());
        insertion_order_.pop_front();
    }
}

} // namespace cybok::search
