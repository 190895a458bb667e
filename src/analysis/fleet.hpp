// Fleet analysis: batch-analyze N generated systems against one shared
// engine and rank them comparatively. The paper argues posture judgments
// are *comparative* ("architecture A relates to fewer / less exposed
// attack vectors than architecture B"); the fleet layer is that judgment
// at scale — association + flow + CVSS-weighted attack-path scoring per
// system, fanned across the ThreadPool, folded into a byte-deterministic
// ranking with per-system AssocMetrics/FlowCounts aggregation.
//
// Determinism contract: analyze_fleet() output (including fingerprint()
// and to_json()) is byte-identical for equal inputs at any thread count.
// Each system's task writes a pre-sized slot. All systems of one call
// share one search::Associator and its query cache; cache keys are
// content-addressed and tagged with the engine generation, so a hit from a
// sibling system is the same bytes a fresh query would return.
//
// Degradation contract: a per-system failure (fault site
// `analysis.fleet.task`, or `synth.zoo.gen` inside generation) is recorded
// on that system's report (`failed` + `error`) and ranks last; the fleet
// run always completes.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/attack_paths.hpp"
#include "flow/flow.hpp"
#include "search/engine.hpp"
#include "search/metrics.hpp"
#include "synth/zoo.hpp"
#include "util/json.hpp"

namespace cybok::analysis {

struct FleetOptions {
    /// Systems to generate (generating overload only).
    std::size_t systems = 16;
    /// Domains to cycle through (system i gets domains[i % size]); empty =
    /// all four zoo domains in enum order.
    std::vector<synth::ZooDomain> domains;
    /// System i is generated with seed base_seed + i.
    std::uint64_t base_seed = 11;
    /// Component count per generated system.
    std::size_t components = 50;
    double platform_ref_prob = 0.6;
    double parameter_prob = 0.5;
    /// Analysis lanes (0 = hardware concurrency). Never affects output.
    std::size_t threads = 0;
    flow::FlowOptions flow;
    AttackPathOptions paths;
    /// Attack paths kept per system (highest exposure first).
    std::size_t top_paths = 3;
};

/// Everything the ranking needs about one analyzed system.
struct FleetSystemReport {
    std::string name;
    std::string domain;
    std::uint64_t seed = 0;
    std::size_t components = 0;
    std::size_t connectors = 0;

    /// Degradation record: the task absorbed a typed failure; every
    /// analysis field below is zero/empty and the system ranks last.
    bool failed = false;
    std::string error;

    // -- posture -------------------------------------------------------------
    std::size_t attack_patterns = 0;
    std::size_t weaknesses = 0;
    std::size_t vulnerabilities = 0;
    double max_severity = -1.0; ///< worst CVSS base score fleet-wide; -1 none

    // -- flow ----------------------------------------------------------------
    std::size_t tainted = 0;     ///< components with taint > 0
    std::size_t chokepoints = 0; ///< ranked chokepoint candidates
    std::size_t min_cut_size = 0;
    double max_taint = 0.0; ///< worst exposure taint on a hazard-linked component
    std::size_t tainted_hazards = 0; ///< hazard slices with exploitable reach
    std::size_t hazards_total = 0;

    // -- attack paths --------------------------------------------------------
    std::size_t paths_found = 0; ///< across all hazard-linked targets
    double top_exposure = 0.0;   ///< best path exposure (0 = no feasible path)
    /// Up to FleetOptions::top_paths worst paths, exposure desc.
    std::vector<AttackPath> top_paths;

    /// The comparative risk score the ranking sorts by, in [0, 100]:
    /// 40 * top_exposure + 30 * tainted-hazard fraction + 20 * tainted
    /// fraction + 10 * max_severity / 10. A pure function of the fields
    /// above — higher = worse posture.
    double risk = 0.0;
    /// 1-based position in FleetResult::ranking (1 = riskiest).
    std::size_t rank = 0;

    search::FlowCounts flow_counts; ///< this system's fixpoint counters

    [[nodiscard]] std::size_t total_vectors() const noexcept {
        return attack_patterns + weaknesses + vulnerabilities;
    }
    [[nodiscard]] json::Value to_json() const;
};

struct FleetResult {
    /// Reports sorted riskiest-first (risk desc, name asc; failed systems
    /// last, name asc). rank fields are 1-based positions in this order.
    std::vector<FleetSystemReport> ranking;
    std::size_t systems = 0; ///< total analyzed (incl. failed)
    std::size_t failed = 0;
    std::size_t threads = 1; ///< lanes the batch fanned out across

    // -- fleet-wide aggregation ----------------------------------------------
    std::size_t total_components = 0;
    std::size_t total_connectors = 0;
    std::size_t total_vectors = 0;
    std::size_t total_tainted = 0;
    std::size_t total_chokepoints = 0;
    /// Association counts, each a pure function of the inputs: components
    /// and attributes visited, candidates per record class, and
    /// queries_run, the distinct attribute keys the run queried (a key
    /// shared by several systems counts once). No timings, no cache
    /// hit/miss split: those depend on thread interleaving.
    search::AssocMetrics metrics;
    /// Per-system FlowCounts *summed* field-wise (FlowCounts::merge adopts
    /// rather than sums, so the fleet does its own arithmetic).
    search::FlowCounts flow_totals;

    [[nodiscard]] const FleetSystemReport* find(std::string_view name) const noexcept;
    /// Canonical byte rendering of the ranking (every analysis value in
    /// hexfloat) — the cross-thread-count determinism oracle key.
    [[nodiscard]] std::string fingerprint() const;
    /// "16 systems (0 failed), riskiest zoo-water-s14-n50 risk 61.2" —
    /// deterministic.
    [[nodiscard]] std::string summary() const;
    [[nodiscard]] json::Value to_json() const;
};

/// Generate `options.systems` zoo systems (seed base_seed + i, domain
/// cycling) and analyze them. Generation happens inside the per-system
/// task, so a `synth.zoo.gen` fault degrades to a recorded failure.
[[nodiscard]] FleetResult analyze_fleet(const search::QueryEngine& engine,
                                        const FleetOptions& options = {});

/// Analyze caller-supplied systems (the metamorphic harness path: mutate
/// one system, re-rank). Generation-related options are ignored.
[[nodiscard]] FleetResult analyze_fleet(const search::QueryEngine& engine,
                                        const std::vector<synth::ZooSystem>& fleet,
                                        const FleetOptions& options = {});

} // namespace cybok::analysis
