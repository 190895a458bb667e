// Model-wide association: run the search engine over every attribute of
// every component — "the main output … is this association of attack
// vectors to the system model" — with support for incremental
// re-association after a model edit (the dashboard's on-the-fly loop).
//
// search::Associator is the one association path: sessions, the fleet,
// the serve layer and the fidelity sweep all run through it. It fans
// attribute queries out across a thread pool (inline at threads == 1),
// memoizes per-attribute results in a QueryCache and records AssocMetrics.
// Output is byte-identical at any thread count; tests/oracle/ keeps the
// plain sequential loop it is checked against.

#pragma once

#include <mutex>
#include <string>
#include <vector>

#include "model/diff.hpp"
#include "search/engine.hpp"
#include "search/metrics.hpp"
#include "search/query_cache.hpp"
#include "util/thread_pool.hpp"

namespace cybok::search {

/// Matches for one attribute of one component.
struct AttributeAssociation {
    std::string attribute_name;
    std::string attribute_value;
    std::vector<Match> matches;

    [[nodiscard]] std::size_t count(VectorClass cls) const noexcept;
};

/// All associations for one component.
struct ComponentAssociation {
    std::string component;
    std::vector<AttributeAssociation> attributes;

    [[nodiscard]] std::size_t count(VectorClass cls) const noexcept;
    [[nodiscard]] std::size_t total() const noexcept;
};

/// The association map for a whole model — Table 1 of the paper is a
/// rendering of this structure (one row per attribute, counts per class).
struct AssociationMap {
    std::vector<ComponentAssociation> components;

    [[nodiscard]] const ComponentAssociation* find(std::string_view component) const noexcept;
    [[nodiscard]] std::size_t total() const noexcept;
    [[nodiscard]] std::size_t total(VectorClass cls) const noexcept;

    /// One row per attribute: (attribute value, counts per class) — the
    /// exact shape of the paper's Table 1.
    struct TableRow {
        std::string attribute;
        std::size_t attack_patterns = 0;
        std::size_t weaknesses = 0;
        std::size_t vulnerabilities = 0;
    };
    [[nodiscard]] std::vector<TableRow> attribute_table() const;
};

/// Execution knobs for the Associator.
struct AssocOptions {
    /// Lanes to fan attribute queries across (0 = hardware concurrency).
    /// At 1 every query runs inline on the calling thread (the pool has no
    /// workers), so concurrent callers of one instance run concurrently.
    std::size_t threads = 0;
    /// Memoize attribute query results across attributes and runs.
    bool cache_enabled = true;
    /// Max cached attribute entries before FIFO eviction.
    std::size_t cache_capacity = 1 << 14;
};

/// The parallel, memoizing association engine.
///
/// Owns a util::ThreadPool and a QueryCache over one immutable
/// QueryEngine generation (rebind() moves it to the next one; it must not
/// race with an in-flight run). associate() fans every (component,
/// attribute) pair of a
/// model across the pool; each attribute result is cached under its
/// normalized token sequence + attribute kind + platform + engine-options
/// signature, so a repeated attribute ("Linux OS" on several platforms)
/// or an unchanged attribute across what-if refinements is served without
/// re-scoring. reassociate() additionally drops the cache entries of the
/// refined components (a memory policy — entries are content-addressed
/// and can never be stale; see QueryCache).
///
/// Result ordering is deterministic: each task writes its own pre-sized
/// slot, so output is byte-identical to the sequential reference loop
/// regardless of thread count or cache state.
///
/// Thread-safety: a single Associator may be shared by concurrent
/// callers; cache and metrics updates are internally locked. Runs on a
/// pool with workers serialize on it; inline runs (one lane) do not.
class Associator {
public:
    explicit Associator(const QueryEngine& engine, AssocOptions options = {});

    Associator(const Associator&) = delete;
    Associator& operator=(const Associator&) = delete;

    [[nodiscard]] const QueryEngine& engine() const noexcept { return *engine_; }

    /// Point future queries at a new engine generation (e.g. after a
    /// corpus delta was applied). The cache is *not* flushed: cache keys
    /// embed the engine's process-unique generation id, so entries from
    /// the old generation can never satisfy a lookup against the new one
    /// — they simply age out FIFO. The caller must keep `engine` alive
    /// for the associator's lifetime (core::AnalysisSession does).
    void rebind(const QueryEngine& engine);
    [[nodiscard]] const AssocOptions& options() const noexcept { return options_; }
    [[nodiscard]] std::size_t thread_count() const noexcept { return pool_.thread_count(); }

    /// Associate the whole model.
    [[nodiscard]] AssociationMap associate(const model::SystemModel& m);

    /// Incremental re-association after a model edit: only components
    /// named in the diff are re-queried; associations of untouched
    /// components are copied from `previous`. Equivalent to associate(after)
    /// whenever `diff` is exactly diff(before, after). Cache entries of the
    /// diff's touched and removed components are invalidated before the
    /// touched components are re-queried.
    [[nodiscard]] AssociationMap reassociate(const AssociationMap& previous,
                                             const model::ModelDiff& diff,
                                             const model::SystemModel& after);

    /// Metrics accumulated since construction / the last reset (snapshot
    /// under lock — safe while runs are in flight).
    [[nodiscard]] AssocMetrics metrics() const;
    void reset_metrics();

    /// The underlying cache (e.g. to clear() between benchmark phases).
    [[nodiscard]] QueryCache& cache() noexcept { return cache_; }

private:
    struct Task; // one (component, attribute) query
    void run_tasks(std::vector<Task>& tasks);

    const QueryEngine* engine_;
    AssocOptions options_;
    std::string options_signature_; ///< engine-options + generation half of cache keys
    util::ThreadPool pool_;
    QueryCache cache_;
    mutable std::mutex metrics_mutex_;
    AssocMetrics metrics_;
};

} // namespace cybok::search
