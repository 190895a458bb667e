#include "search/association.hpp"

#include <algorithm>
#include <chrono>
#include <set>

#include "util/fault.hpp"

namespace cybok::search {

namespace {
using Clock = std::chrono::steady_clock;

std::uint64_t ns_since(Clock::time_point start) {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - start).count());
}
} // namespace

std::size_t AttributeAssociation::count(VectorClass cls) const noexcept {
    return static_cast<std::size_t>(
        std::count_if(matches.begin(), matches.end(),
                      [cls](const Match& m) { return m.cls == cls; }));
}

std::size_t ComponentAssociation::count(VectorClass cls) const noexcept {
    std::size_t n = 0;
    for (const AttributeAssociation& a : attributes) n += a.count(cls);
    return n;
}

std::size_t ComponentAssociation::total() const noexcept {
    std::size_t n = 0;
    for (const AttributeAssociation& a : attributes) n += a.matches.size();
    return n;
}

const ComponentAssociation* AssociationMap::find(std::string_view component) const noexcept {
    for (const ComponentAssociation& c : components)
        if (c.component == component) return &c;
    return nullptr;
}

std::size_t AssociationMap::total() const noexcept {
    std::size_t n = 0;
    for (const ComponentAssociation& c : components) n += c.total();
    return n;
}

std::size_t AssociationMap::total(VectorClass cls) const noexcept {
    std::size_t n = 0;
    for (const ComponentAssociation& c : components) n += c.count(cls);
    return n;
}

std::vector<AssociationMap::TableRow> AssociationMap::attribute_table() const {
    std::vector<TableRow> rows;
    for (const ComponentAssociation& c : components) {
        for (const AttributeAssociation& a : c.attributes) {
            TableRow row;
            row.attribute = a.attribute_value;
            row.attack_patterns = a.count(VectorClass::AttackPattern);
            row.weaknesses = a.count(VectorClass::Weakness);
            row.vulnerabilities = a.count(VectorClass::Vulnerability);
            rows.push_back(std::move(row));
        }
    }
    return rows;
}

// ---------------------------------------------------------- Associator

/// One attribute query: where the result goes and what to ask.
struct Associator::Task {
    const model::Attribute* attr = nullptr;
    const std::string* component = nullptr; ///< owning component name
    std::vector<Match>* out = nullptr;      ///< pre-sized destination slot
};

namespace {

/// The per-engine half of every cache key: the options signature plus the
/// engine's process-unique generation id. The generation suffix is what
/// makes stale hits *impossible* across rebind(): two engine instances —
/// even over byte-identical corpora — never share a generation, so a key
/// computed against one can never be produced against the other.
std::string engine_signature(const QueryEngine& engine) {
    return engine.options().signature() + "|gen=" + std::to_string(engine.engine_generation());
}

} // namespace

Associator::Associator(const QueryEngine& engine, AssocOptions options)
    : engine_(&engine), options_(options), options_signature_(engine_signature(engine)),
      pool_(options.threads), cache_(options.cache_capacity) {
    // Surface how the engine behind this associator came to exist (cold
    // build timings or snapshot thaw) in every metrics report.
    metrics_.build = engine.build_metrics();
}

void Associator::rebind(const QueryEngine& engine) {
    engine_ = &engine;
    options_signature_ = engine_signature(engine);
    std::lock_guard<std::mutex> lk(metrics_mutex_);
    metrics_.build = engine.build_metrics();
}

namespace {

/// Content-addressed cache key: engine signature (options + generation) +
/// attribute kind + normalized token sequence + platform URI. Fully
/// determines the query result against an immutable engine generation.
std::string cache_key(const std::string& options_signature, const model::Attribute& attr,
                      const std::vector<std::string>& tokens) {
    std::string key = options_signature;
    key += '\x1f';
    key += static_cast<char>('0' + static_cast<int>(attr.kind));
    for (const std::string& t : tokens) {
        key += '\x1e';
        key += t;
    }
    if (attr.kind == model::AttributeKind::PlatformRef && attr.platform.has_value()) {
        key += '\x1f';
        key += attr.platform->uri();
    }
    return key;
}

} // namespace

void Associator::run_tasks(std::vector<Task>& tasks) {
    const Clock::time_point wall_start = Clock::now();
    pool_.parallel_for(tasks.size(), [&](std::size_t i) {
        const Task& task = tasks[i];
        AssocMetrics local;
        std::vector<Match> matches;
        if (task.attr->kind == model::AttributeKind::Parameter) {
            // Parameters match nothing by design; skip analyze and cache.
        } else if (!options_.cache_enabled) {
            matches = engine_->query_attribute(*task.attr, &local);
        } else {
            const Clock::time_point analyze_start = Clock::now();
            const std::vector<std::string> tokens = QueryEngine::attribute_tokens(*task.attr);
            local.timings.analyze_ns += ns_since(analyze_start);
            const std::string key = cache_key(options_signature_, *task.attr, tokens);
            // Degradation contract: a failing cache get is a miss, a
            // failing recompute is retried once (then propagates typed),
            // a failing cache put skips caching. Every absorbed failure
            // is counted, so results never silently change shape.
            std::optional<std::vector<Match>> hit;
            try {
                hit = cache_.get(key, *task.component);
            } catch (const Error& e) {
                ++local.degrade.cache_recoveries;
                local.degrade.last_reason = e.what();
            }
            if (hit.has_value()) {
                ++local.cache_hits;
                matches = std::move(*hit);
            } else {
                ++local.cache_misses;
                try {
                    CYBOK_FAULT_POINT("search.assoc.recompute",
                                      Error("injected: attribute recompute failed"));
                    matches = engine_->query_attribute_tokens(*task.attr, tokens, &local);
                } catch (const Error& e) {
                    ++local.degrade.recompute_retries;
                    local.degrade.last_reason = e.what();
                    // The retry passes the same fault site: a persistent
                    // failure (trigger "always") propagates typed out of
                    // associate(); a transient one (nth:K) recovers here.
                    CYBOK_FAULT_POINT("search.assoc.recompute",
                                      Error("injected: attribute recompute failed twice"));
                    matches = engine_->query_attribute_tokens(*task.attr, tokens, &local);
                }
                try {
                    cache_.put(key, matches, *task.component);
                } catch (const Error& e) {
                    ++local.degrade.cache_recoveries;
                    local.degrade.last_reason = e.what();
                }
            }
        }
        *task.out = std::move(matches);
        std::lock_guard<std::mutex> lk(metrics_mutex_);
        metrics_.merge(local);
    });
    std::lock_guard<std::mutex> lk(metrics_mutex_);
    metrics_.attributes += tasks.size();
    metrics_.threads = std::max(metrics_.threads, pool_.thread_count());
    metrics_.timings.wall_ns += ns_since(wall_start);
}

AssociationMap Associator::associate(const model::SystemModel& m) {
    AssociationMap map;
    std::vector<Task> tasks;
    for (const model::Component& c : m.components()) {
        if (!c.id.valid()) continue;
        ComponentAssociation ca;
        ca.component = c.name;
        ca.attributes.resize(c.attributes.size());
        map.components.push_back(std::move(ca));
    }
    // Second pass wires tasks to stable slots (map.components no longer
    // reallocates); attribute metadata is filled here so workers only
    // write the matches vector.
    std::size_t ci = 0;
    for (const model::Component& c : m.components()) {
        if (!c.id.valid()) continue;
        ComponentAssociation& ca = map.components[ci++];
        for (std::size_t ai = 0; ai < c.attributes.size(); ++ai) {
            ca.attributes[ai].attribute_name = c.attributes[ai].name;
            ca.attributes[ai].attribute_value = c.attributes[ai].value;
            tasks.push_back(Task{&c.attributes[ai], &ca.component, &ca.attributes[ai].matches});
        }
    }
    {
        std::lock_guard<std::mutex> lk(metrics_mutex_);
        metrics_.components += map.components.size();
    }
    run_tasks(tasks);
    return map;
}

AssociationMap Associator::reassociate(const AssociationMap& previous,
                                       const model::ModelDiff& diff,
                                       const model::SystemModel& after) {
    std::set<std::string> touched;
    for (const std::string& name : diff.touched_components()) touched.insert(name);

    // Refined components: their attribute text was superseded, so their
    // cache entries are dead weight — drop them (content-addressing keeps
    // this a memory policy, not a correctness need). Removed components
    // likewise.
    std::size_t invalidated = 0;
    for (const std::string& name : touched) invalidated += cache_.invalidate_component(name);
    for (const std::string& name : diff.removed_components)
        invalidated += cache_.invalidate_component(name);

    AssociationMap map;
    std::vector<std::pair<const model::Component*, std::size_t>> requery; // (component, map idx)
    for (const model::Component& c : after.components()) {
        if (!c.id.valid()) continue;
        if (!touched.contains(c.name)) {
            if (const ComponentAssociation* prev = previous.find(c.name)) {
                map.components.push_back(*prev);
                continue;
            }
        }
        ComponentAssociation ca;
        ca.component = c.name;
        ca.attributes.resize(c.attributes.size());
        requery.emplace_back(&c, map.components.size());
        map.components.push_back(std::move(ca));
    }
    // map.components is fully built (no further reallocation), so slot
    // pointers handed to the pool below stay valid.
    std::vector<Task> tasks;
    for (const auto& [comp, idx] : requery) {
        ComponentAssociation& ca = map.components[idx];
        for (std::size_t ai = 0; ai < comp->attributes.size(); ++ai) {
            ca.attributes[ai].attribute_name = comp->attributes[ai].name;
            ca.attributes[ai].attribute_value = comp->attributes[ai].value;
            tasks.push_back(
                Task{&comp->attributes[ai], &ca.component, &ca.attributes[ai].matches});
        }
    }
    {
        std::lock_guard<std::mutex> lk(metrics_mutex_);
        metrics_.components += requery.size();
        metrics_.reused_components += map.components.size() - requery.size();
        metrics_.cache_invalidations += invalidated;
    }
    run_tasks(tasks);
    return map;
}

AssocMetrics Associator::metrics() const {
    std::lock_guard<std::mutex> lk(metrics_mutex_);
    return metrics_;
}

void Associator::reset_metrics() {
    std::lock_guard<std::mutex> lk(metrics_mutex_);
    metrics_ = AssocMetrics{};
}

} // namespace cybok::search
