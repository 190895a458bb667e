// Per-run instrumentation for the association engine: how many attribute
// queries actually ran, how many were served from the memoizing cache,
// what each pipeline stage cost, and how many candidates each record
// class produced. The paper warns that the association result space is
// "very large"; these counters are how the repo tracks what that space
// costs and how much the cache and the parallel fan-out buy back.

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "util/json.hpp"

namespace cybok::search {

/// Wall-clock nanoseconds per association stage, accumulated across all
/// queries of a run (steady_clock). On a parallel run the stage sums are
/// CPU-time-like: concurrent queries each contribute their full duration,
/// so `lexical_ns` can exceed `wall_ns`.
struct StageTimings {
    std::uint64_t analyze_ns = 0; ///< tokenize + stopwords + stem of attribute text
    std::uint64_t lexical_ns = 0; ///< BM25 ranking + evidence gating
    std::uint64_t binding_ns = 0; ///< CPE platform-binding lookups
    std::uint64_t wall_ns = 0;    ///< end-to-end wall clock of the run

    void merge(const StageTimings& other) noexcept;
};

/// How the engine this run queries came to exist: cold-built (tokenize +
/// index + finalize, possibly across shards) or thawed from a binary
/// snapshot. Recorded once at engine construction and copied into every
/// AssocMetrics the engine's Associator produces.
struct BuildMetrics {
    std::uint64_t tokenize_ns = 0; ///< analyze() over all record fields (0 when thawed)
    std::uint64_t index_ns = 0;    ///< interning + postings + finalize + scorer tables
    std::uint64_t wall_ns = 0;     ///< end-to-end engine construction wall clock
    std::size_t docs = 0;          ///< documents across the three indexes
    std::size_t threads = 1;       ///< lanes the build fanned out across
    bool from_snapshot = false;    ///< true when the engine was thawed, not built
    /// The parallel sharded build failed (a lane threw); the engine reset
    /// its indexes and re-ran the sequential reference build instead.
    bool parallel_fallback = false;

    [[nodiscard]] json::Value to_json() const;
};

/// Graceful-degradation events: every place the pipeline absorbed a typed
/// failure and continued on a documented fallback path instead of
/// crashing or silently producing different results. Zero everywhere on a
/// healthy run; surfaced in the report's Diagnostics section (satellite of
/// the fault-injection subsystem, see ARCHITECTURE.md §6).
struct DegradeCounts {
    std::size_t snapshot_fallbacks = 0;     ///< cold-start snapshot unusable -> fresh build
    std::size_t snapshot_save_failures = 0; ///< snapshot write failed -> serve uncached
    std::size_t cache_recoveries = 0;       ///< cache get/put failed -> recompute / skip caching
    std::size_t recompute_retries = 0;      ///< attribute query retried after transient failure
    std::size_t records_skipped = 0;        ///< corpus records dropped by lenient decode
    std::size_t mmap_fallbacks = 0;         ///< snapshot mmap failed -> owning-buffer thaw
    std::size_t compaction_failures = 0;    ///< compaction fold failed -> old generation kept
    std::string last_reason;                ///< most recent degradation's error text

    [[nodiscard]] bool any() const noexcept {
        return snapshot_fallbacks + snapshot_save_failures + cache_recoveries +
                   recompute_retries + records_skipped + mmap_fallbacks +
                   compaction_failures >
               0;
    }
    void merge(const DegradeCounts& other);
    [[nodiscard]] json::Value to_json() const;
};

/// Diagnostic counts from the most recent lint run over the session state
/// the associations were computed from (zero until a lint runs). Kept here
/// so one AssocMetrics snapshot carries everything the report preamble and
/// the bench sidecars need about a run's inputs and execution.
struct LintCounts {
    std::size_t rules_run = 0;
    std::size_t errors = 0;
    std::size_t warnings = 0;
    std::size_t notes = 0;
    std::uint64_t wall_ns = 0;

    [[nodiscard]] bool ran() const noexcept { return rules_run > 0; }
    /// Adopt whichever side has linted (later run wins on conflict).
    void merge(const LintCounts& other) noexcept;
    [[nodiscard]] json::Value to_json() const;
};

/// Counters from the most recent flow-pass run (exposure taint / hazard
/// slice / chokepoint fixpoints) over the session state — zero until a
/// flow analysis runs. Every counter is a deterministic function of the
/// model + association map (no timings), so bench sidecars can gate them
/// with exact ceilings the same way the kernel counters are gated.
struct FlowCounts {
    std::size_t nodes = 0;             ///< live components in the flow graph
    std::size_t edges = 0;             ///< directed edges (bidirectional = 2)
    std::uint64_t taint_iterations = 0; ///< worklist pops of the forward taint fixpoint
    std::uint64_t slice_iterations = 0; ///< worklist pops of the backward slice fixpoint
    std::uint64_t edges_traversed = 0;  ///< edge relaxations across both fixpoints
    std::size_t tainted = 0;           ///< components with taint > 0
    std::size_t chokepoints = 0;       ///< candidates that sever >= 1 entry->hazard flow
    std::size_t analyses = 0;          ///< full analyze() runs folded in
    std::size_t incremental_analyses = 0; ///< reanalyze() runs that took the delta path
    std::size_t reused_components = 0; ///< component results copied verbatim by reanalyze

    [[nodiscard]] bool ran() const noexcept { return analyses + incremental_analyses > 0; }
    /// Adopt whichever side has analyzed (later run wins on conflict);
    /// analyses/incremental/reused accumulate.
    void merge(const FlowCounts& other) noexcept;
    [[nodiscard]] json::Value to_json() const;
};

/// Counters for one (or several merged) association run(s). Thread-local
/// instances are accumulated by worker lanes and merged under a lock, so
/// the hot path never contends on shared counters.
struct AssocMetrics {
    // -- query volume --------------------------------------------------------
    std::size_t components = 0;      ///< components visited
    std::size_t attributes = 0;      ///< attributes visited (incl. cache hits)
    std::size_t queries_run = 0;     ///< engine queries actually executed
    std::size_t reused_components = 0; ///< components copied verbatim by reassociate

    // -- cache ---------------------------------------------------------------
    std::size_t cache_hits = 0;
    std::size_t cache_misses = 0;
    std::size_t cache_invalidations = 0; ///< entries dropped by component invalidation

    // -- result volume per record class --------------------------------------
    std::size_t pattern_candidates = 0;
    std::size_t weakness_candidates = 0;
    std::size_t vulnerability_candidates = 0;

    // -- scoring kernel -------------------------------------------------------
    std::uint64_t kernel_postings = 0;    ///< postings actually decoded by the scoring kernel
    std::uint64_t kernel_pruned_docs = 0; ///< pivot docs proven below the top-k floor (BMW)
    std::uint64_t kernel_gated_hits = 0;  ///< candidates dropped by the fused evidence gate
    std::uint64_t kernel_blocks_decoded = 0; ///< posting blocks decompressed
    std::uint64_t kernel_blocks_skipped = 0; ///< posting blocks skipped via block-max bounds
    std::uint64_t kernel_segments_visited = 0;  ///< segments holding >=1 query-term list
    std::uint64_t kernel_tombstones_masked = 0; ///< postings skipped as withdrawn/superseded

    // -- execution shape -----------------------------------------------------
    std::size_t threads = 1; ///< lanes the run fanned out across
    StageTimings timings;
    BuildMetrics build;    ///< how the engine behind this run was constructed
    LintCounts lint;       ///< diagnostics found by the session's lint pass
    FlowCounts flow;       ///< fixpoint counters from the session's flow pass
    DegradeCounts degrade; ///< absorbed failures + the fallback paths taken

    /// Fold `other` into this (cache/query counters add; threads maxes).
    void merge(const AssocMetrics& other);

    /// hits / (hits + misses); 0 when the cache saw no traffic.
    [[nodiscard]] double cache_hit_rate() const noexcept;

    [[nodiscard]] std::size_t total_candidates() const noexcept {
        return pattern_candidates + weakness_candidates + vulnerability_candidates;
    }

    /// One-paragraph human-readable summary (dashboard / bench preambles).
    [[nodiscard]] std::string summary() const;

    /// Machine-readable form (BENCH_*.json sidecar friendly).
    [[nodiscard]] json::Value to_json() const;
};

} // namespace cybok::search
