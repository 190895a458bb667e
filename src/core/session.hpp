// AnalysisSession: the top-level facade implementing the paper's three
// capabilities as one object —
//
//   1. export the system model to a general architectural model
//      (export_bundle(); model::to_graph + graph::to_graphml directly),
//   2. associate attack-vector data to the general model
//      (associations(), lazily computed, incrementally maintained),
//   3. present merged views for analysis and decision making
//      (report(), posture(), consequence_traces(), export_bundle()),
//
// plus the iterative refinement loop (propose() / commit()) that the
// analyst dashboard exposes as "change the model on the fly and
// immediately see the new results".

#pragma once

#include <memory>
#include <optional>
#include <string>

#include "analysis/hardening.hpp"
#include "analysis/whatif.hpp"
#include "dashboard/export_bundle.hpp"
#include "flow/flow.hpp"
#include "lint/lint.hpp"
#include "safety/scenarios.hpp"
#include "safety/trace.hpp"
#include "search/engine.hpp"
#include "search/generation.hpp"

namespace cybok::core {

struct SessionOptions {
    search::EngineOptions engine;
    /// Parallel/caching knobs for the association engine (threads, query
    /// cache); defaults fan out across all cores with the cache on.
    search::AssocOptions assoc;
    dashboard::ReportOptions report;
    /// Rule configuration for the static lint pass (lint()); thread count,
    /// disabled rules, per-rule severity overrides.
    lint::LintOptions lint;
    /// Permeability / fixpoint knobs for the flow pass (flow()).
    flow::FlowOptions flow;
    /// When set, the first associations() computation runs the lint pass
    /// first and throws ValidationError if any error-severity diagnostic
    /// fires — the "don't compute Table 1 from a known-broken model" gate.
    bool fail_on_lint_error = false;
    /// When non-empty, the engine cold-start cache: if the file holds a
    /// valid snapshot whose engine options and corpus shape match, the
    /// session thaws corpus + engine from it (skipping all tokenization
    /// and index construction); otherwise it builds fresh and writes the
    /// snapshot for the next start. Missing, stale, or corrupt files are
    /// never fatal — the session falls back to a fresh build.
    std::string snapshot_path;
};

/// One engine and the corpus it indexes, built (or thawed from a
/// snapshot) exactly once and then shared immutably by any number of
/// sessions. This is the serve layer's generation object: the registry
/// thaws one SharedEngine and hangs thousands of session overlays off it,
/// so the snapshot file is opened and its signature/shape staleness check
/// runs once per process, not once per session.
///
/// Thread-safety: after make_shared_engine returns, every member is
/// immutable; the SearchEngine's const-query contract (engine.hpp) makes
/// the whole handle safe to share across threads without synchronization.
struct SharedEngine {
    /// Owns the corpus when it was thawed out of the snapshot blob; null
    /// when the engine indexes a caller-owned corpus (which must then
    /// outlive every session holding this handle).
    std::unique_ptr<kb::Corpus> owned_corpus;
    /// The base (from-scratch) engine. Set on every handle produced by
    /// make_shared_engine / compact; null on a delta handle, whose engine
    /// is `segmented` and whose base lives in the `base` keepalive chain.
    std::unique_ptr<search::SearchEngine> engine;
    /// Set on handles produced by apply_corpus_delta: the base engine plus
    /// the delta-segment chain. Queries go through query(), which prefers
    /// this overlay when present.
    std::unique_ptr<search::SegmentedEngine> segmented;
    /// Keepalive for the *root base* handle a segmented overlay borrows
    /// its SearchEngine (and possibly mmap'd slabs) from. Always points at
    /// a handle with `engine` set, never at another segmented handle —
    /// intermediate delta generations are free to die (their segments are
    /// shared by refcount), so the chain never grows past depth one.
    std::shared_ptr<const SharedEngine> base;
    /// Storage behind the thawed engine's posting/table slabs — exactly one
    /// of these is set on a snapshot start. `mapping` is the zero-copy
    /// path: the engine reads the mmap'd snapshot file in place, so all
    /// sessions over this handle (and across handles mapping the same
    /// file) share one physical copy of the index. `slab_backing` is the
    /// owning fallback when mapping fails. Both empty when built fresh.
    util::AlignedBuffer slab_backing;
    std::shared_ptr<const util::MappedFile> mapping;
    /// Cold-start fallbacks taken while producing the engine (snapshot
    /// stale/corrupt -> fresh build, snapshot write failed -> uncached).
    /// Reported once by the owner of the handle — sessions constructed
    /// over a SharedEngine deliberately do NOT fold these into their own
    /// metrics, so N sessions never multiply one cold-start event.
    search::DegradeCounts cold_start;

    /// The engine this handle serves queries through: the segmented
    /// overlay when a delta has been applied, the base engine otherwise.
    [[nodiscard]] const search::QueryEngine& query() const noexcept {
        return segmented != nullptr ? static_cast<const search::QueryEngine&>(*segmented)
                                    : *engine;
    }

    /// The merged corpus (first call may materialize it — see
    /// search::QueryEngine::corpus()).
    [[nodiscard]] const kb::Corpus& corpus() const { return query().corpus(); }
};

/// The hoisted cold-start path: load-or-build an engine per
/// `options.snapshot_path` + `options.engine` (same semantics the
/// single-session constructor always had — stale/corrupt snapshots fall
/// back to a fresh build over `corpus`, never fatal) and wrap it for
/// sharing. The staleness check (engine-options signature + corpus shape)
/// runs here, once, instead of inside every session constructor.
[[nodiscard]] std::shared_ptr<const SharedEngine> make_shared_engine(
    const kb::Corpus& corpus, const SessionOptions& options);

/// O(delta) generation step: overlay `current` with one corpus delta and
/// return the next immutable generation. `current` is untouched and keeps
/// serving (callers flip to the returned handle when ready — the serve
/// registry's generation pointer); a failed apply throws and publishes
/// nothing. Cost is proportional to the delta's record text plus cheap
/// per-apply table refreshes — the base index is never rebuilt.
[[nodiscard]] std::shared_ptr<const SharedEngine> apply_corpus_delta(
    const std::shared_ptr<const SharedEngine>& current, const kb::CorpusDelta& delta);

/// Fold a segmented generation back into a from-scratch base engine over
/// its merged corpus (queries against the result are bit-identical by
/// construction — it *is* the rebuild the segmented engine mirrors).
/// Returns `current` unchanged when there is nothing to fold. Typically
/// run on a background thread (the server's admin thread) while the
/// segmented generation keeps serving; the build runs on that one thread
/// (build_threads = 1), leaving the other cores to live requests.
[[nodiscard]] std::shared_ptr<const SharedEngine> compact(
    const std::shared_ptr<const SharedEngine>& current);

/// One analysis session over (model, corpus). The corpus must outlive the
/// session; the model is owned and evolves through commit().
class AnalysisSession {
public:
    AnalysisSession(model::SystemModel m, const kb::Corpus& corpus)
        : AnalysisSession(std::move(m), corpus, SessionOptions{}) {}
    AnalysisSession(model::SystemModel m, const kb::Corpus& corpus, SessionOptions options);
    /// Session over a prebuilt shared engine (the serve path): no corpus
    /// IO, no index build, no snapshot validation — construction cost is
    /// the associator + model only. `options.engine` and
    /// `options.snapshot_path` are ignored (the engine already exists);
    /// the handle's cold_start degradations stay with the handle.
    AnalysisSession(model::SystemModel m, std::shared_ptr<const SharedEngine> engine,
                    SessionOptions options = {});

    AnalysisSession(const AnalysisSession&) = delete;
    AnalysisSession& operator=(const AnalysisSession&) = delete;

    [[nodiscard]] const model::SystemModel& model() const noexcept { return model_; }
    /// The corpus the engine indexes: the caller's when built fresh, the
    /// session-owned thawed copy when restored from a snapshot.
    [[nodiscard]] const kb::Corpus& corpus() const noexcept { return *corpus_; }
    [[nodiscard]] const search::QueryEngine& engine() const noexcept {
        return engine_handle_->query();
    }
    /// The shared engine handle behind this session (refcount > 1 when the
    /// session is one of several overlays over one engine).
    [[nodiscard]] const std::shared_ptr<const SharedEngine>& engine_handle() const noexcept {
        return engine_handle_;
    }
    /// True when this session's engine was thawed from options.snapshot_path
    /// instead of built from record text.
    [[nodiscard]] bool from_snapshot() const noexcept {
        return engine_handle_->query().build_metrics().from_snapshot;
    }

    /// Re-point this session at a new engine generation (e.g. the handle
    /// returned by core::apply_corpus_delta or core::compact). The
    /// associator is rebound — its query cache needs no flush, keys embed
    /// the engine generation — and every cached view (associations,
    /// posture, traces) is invalidated so the next access recomputes
    /// against the new corpus.
    void adopt_engine(std::shared_ptr<const SharedEngine> engine);
    /// The parallel/cached association engine every association in this
    /// session runs through (associations(), propose(), commit()).
    [[nodiscard]] search::Associator& associator() noexcept { return associator_; }
    /// Cumulative association metrics (queries, cache hit rate, stage
    /// timings, lint counts, degradation events) for this session; also a
    /// report section.
    [[nodiscard]] search::AssocMetrics assoc_metrics() const;
    /// Cold-start degradations recorded by make_engine (snapshot fallback
    /// or failed snapshot write); also folded into assoc_metrics().
    [[nodiscard]] const search::DegradeCounts& cold_start_degrade() const noexcept {
        return degrade_;
    }

    /// The dataflow fixpoint view (exposure taint, hazard backward slices,
    /// chokepoint ranking) for the current model. Computed on first use;
    /// across commit() the session re-analyzes incrementally from the
    /// model diff (flow::reanalyze), which is analytically identical to a
    /// full recompute — fingerprint()-equal by contract.
    [[nodiscard]] const flow::FlowResult& flow();

    /// Run the static lint pipeline over the session's current state
    /// (model, corpus, hazard model if attached, associations if already
    /// computed — the consequence pass deepens once associations exist).
    /// Deterministic and side-effect-free apart from recording the counts
    /// surfaced through assoc_metrics()/report().
    [[nodiscard]] lint::LintResult lint();

    /// Attach physical-consequence knowledge (losses/hazards/UCAs). Resets
    /// cached traces.
    void set_hazards(safety::HazardModel hazards);
    [[nodiscard]] bool has_hazards() const noexcept { return hazards_.has_value(); }

    // -- capability 2: associate ---------------------------------------------

    /// The association map for the current model (computed on first use,
    /// maintained incrementally across commits).
    [[nodiscard]] const search::AssociationMap& associations();

    // -- capability 3: analyze / present -------------------------------------

    [[nodiscard]] const analysis::SecurityPosture& posture();
    [[nodiscard]] const std::vector<safety::ConsequenceTrace>& consequence_traces();
    /// STPA-style causal scenarios per UCA (empty without a hazard model).
    [[nodiscard]] const std::vector<safety::CausalScenario>& causal_scenarios();
    /// Hardening candidates ranked by blocked traces / cut paths.
    [[nodiscard]] std::vector<analysis::HardeningCandidate> hardening_candidates();
    [[nodiscard]] dashboard::Report report();
    /// Write the full dashboard bundle into an existing directory.
    std::vector<std::string> export_bundle(const std::string& directory);

    // -- refinement loop ------------------------------------------------------

    /// Evaluate a candidate architecture without changing session state.
    [[nodiscard]] analysis::WhatIfResult propose(const model::SystemModel& candidate);

    /// Adopt a candidate architecture; associations are updated
    /// incrementally from the diff. Returns the diff that was applied.
    model::ModelDiff commit(model::SystemModel candidate);

private:
    void invalidate_views() noexcept;

    model::SystemModel model_;
    SessionOptions options_;
    std::shared_ptr<const SharedEngine> engine_handle_; ///< never null
    search::DegradeCounts degrade_; ///< this session's cold-start fallbacks
    const kb::Corpus* corpus_;      ///< == &engine_handle_->corpus()
    search::Associator associator_;
    std::optional<safety::HazardModel> hazards_;

    search::LintCounts lint_counts_; ///< most recent lint() run's counts
    search::FlowCounts flow_counts_; ///< cumulative flow-pass counters

    std::optional<search::AssociationMap> associations_;
    std::optional<analysis::SecurityPosture> posture_;
    std::optional<std::vector<safety::ConsequenceTrace>> traces_;
    std::optional<std::vector<safety::CausalScenario>> scenarios_;
    std::optional<flow::FlowResult> flow_;
    /// The last flow result and the model it was computed over — the
    /// incremental baseline flow() diffs against after a commit().
    /// Survives invalidate_views(); reset when the hazard model changes.
    std::optional<flow::FlowResult> flow_prev_;
    std::optional<model::SystemModel> flow_prev_model_;
};

/// Library version string.
[[nodiscard]] std::string_view version() noexcept;

} // namespace cybok::core
