#include "core/session.hpp"

#include "util/fault.hpp"

namespace cybok::core {

std::shared_ptr<const SharedEngine> make_shared_engine(const kb::Corpus& corpus,
                                                       const SessionOptions& options) {
    auto handle = std::make_shared<SharedEngine>();
    if (!options.snapshot_path.empty()) {
        try {
            CYBOK_FAULT_POINT("session.cold_start.load",
                              IoError("injected: snapshot load failed: " + options.snapshot_path));
            search::EngineSnapshot snap = search::load_engine_snapshot(options.snapshot_path);
            // Staleness guard: the snapshot must have been frozen under the
            // same engine options (signature) over a corpus of the same
            // shape as the one the caller handed in; anything else means
            // the cache predates a data or configuration change. Hoisted
            // out of the session constructor so N sessions sharing one
            // engine validate the file once, not N times.
            const bool fresh =
                snap.engine->options().signature() == options.engine.signature() &&
                snap.corpus->patterns().size() == corpus.patterns().size() &&
                snap.corpus->weaknesses().size() == corpus.weaknesses().size() &&
                snap.corpus->vulnerabilities().size() == corpus.vulnerabilities().size();
            if (fresh) {
                handle->owned_corpus = std::move(snap.corpus);
                handle->engine = std::move(snap.engine);
                handle->slab_backing = std::move(snap.slab_backing);
                handle->mapping = std::move(snap.mapping);
                if (!snap.mmap_fallback_reason.empty()) {
                    // The engine is fully functional on the owning-buffer
                    // path; record why the zero-copy start was not taken.
                    ++handle->cold_start.mmap_fallbacks;
                    handle->cold_start.last_reason = snap.mmap_fallback_reason;
                }
                return handle;
            }
            ++handle->cold_start.snapshot_fallbacks;
            handle->cold_start.last_reason =
                "snapshot stale: engine signature or corpus shape changed";
        } catch (const Error& e) {
            // Missing / truncated / corrupt / version-mismatched snapshot:
            // fall through to a fresh build, which rewrites the file. The
            // reason is recorded so the fallback is visible in metrics and
            // the report instead of a silent slow start.
            ++handle->cold_start.snapshot_fallbacks;
            handle->cold_start.last_reason = e.what();
        }
    }
    handle->engine = std::make_unique<search::SearchEngine>(corpus, options.engine);
    if (!options.snapshot_path.empty()) {
        try {
            CYBOK_FAULT_POINT("session.cold_start.save",
                              IoError("injected: snapshot save failed: " + options.snapshot_path));
            search::save_engine_snapshot(*handle->engine, options.snapshot_path);
        } catch (const Error& e) {
            // An unwritable cache location degrades cold-start speed, not
            // correctness; the engine is served from memory regardless.
            ++handle->cold_start.snapshot_save_failures;
            handle->cold_start.last_reason = e.what();
        }
    }
    return handle;
}

std::shared_ptr<const SharedEngine> apply_corpus_delta(
    const std::shared_ptr<const SharedEngine>& current, const kb::CorpusDelta& delta) {
    CYBOK_EXPECTS(current != nullptr &&
                  (current->engine != nullptr || current->segmented != nullptr));
    auto next = std::make_shared<SharedEngine>();
    // The overlay borrows the root base's SearchEngine (and, transitively,
    // its mmap'd slabs); the keepalive pins exactly that handle. The
    // previous *segmented* handle is not pinned — its segments are shared
    // into the new engine by refcount.
    next->base = current->base != nullptr ? current->base : current;
    if (current->segmented != nullptr)
        next->segmented =
            std::make_unique<search::SegmentedEngine>(*current->segmented, delta);
    else
        next->segmented = std::make_unique<search::SegmentedEngine>(*current->engine, delta);
    return next;
}

std::shared_ptr<const SharedEngine> compact(const std::shared_ptr<const SharedEngine>& current) {
    CYBOK_EXPECTS(current != nullptr &&
                  (current->engine != nullptr || current->segmented != nullptr));
    if (current->segmented == nullptr) return current; // already a base generation
    auto next = std::make_shared<SharedEngine>();
    next->owned_corpus = std::make_unique<kb::Corpus>(current->segmented->corpus());
    // One build lane: a fold runs beside live traffic (the server's admin
    // thread), and a parallel build would take cores and peak memory from
    // the request lanes. The engine is bit-identical at any lane count.
    search::EngineOptions options = current->segmented->options();
    options.build_threads = 1;
    next->engine = std::make_unique<search::SearchEngine>(*next->owned_corpus, options);
    return next;
}

AnalysisSession::AnalysisSession(model::SystemModel m, const kb::Corpus& corpus,
                                 SessionOptions options)
    : model_(std::move(m)), options_(std::move(options)),
      engine_handle_(make_shared_engine(corpus, options_)),
      degrade_(engine_handle_->cold_start), corpus_(&engine_handle_->corpus()),
      associator_(engine_handle_->query(), options_.assoc) {}

AnalysisSession::AnalysisSession(model::SystemModel m,
                                 std::shared_ptr<const SharedEngine> engine,
                                 SessionOptions options)
    : model_(std::move(m)), options_(std::move(options)),
      engine_handle_(std::move(engine)),
      // degrade_ deliberately left zero: the handle's cold_start belongs to
      // whoever built the handle (e.g. the serve registry reports it once
      // per generation); folding it into every overlay session would count
      // one fallback N times.
      corpus_(&engine_handle_->corpus()),
      associator_(engine_handle_->query(), options_.assoc) {
    CYBOK_EXPECTS(engine_handle_ != nullptr &&
                  (engine_handle_->engine != nullptr || engine_handle_->segmented != nullptr));
}

void AnalysisSession::adopt_engine(std::shared_ptr<const SharedEngine> engine) {
    CYBOK_EXPECTS(engine != nullptr &&
                  (engine->engine != nullptr || engine->segmented != nullptr));
    engine_handle_ = std::move(engine);
    corpus_ = &engine_handle_->corpus();
    associator_.rebind(engine_handle_->query());
    invalidate_views();
}

void AnalysisSession::set_hazards(safety::HazardModel hazards) {
    std::vector<std::string> issues = hazards.validate();
    if (!issues.empty())
        throw ValidationError("hazard model invalid: " + issues.front() + " (+" +
                              std::to_string(issues.size() - 1) + " more)");
    hazards_ = std::move(hazards);
    traces_.reset();
    scenarios_.reset();
    // The hazard universe defines the slice lattice: previous flow results
    // are no longer a valid incremental baseline.
    flow_.reset();
    flow_prev_.reset();
    flow_prev_model_.reset();
}

search::AssocMetrics AnalysisSession::assoc_metrics() const {
    search::AssocMetrics m = associator_.metrics();
    m.lint = lint_counts_;
    m.flow = flow_counts_;
    m.degrade.merge(degrade_);
    return m;
}

const flow::FlowResult& AnalysisSession::flow() {
    if (!flow_.has_value()) {
        const search::AssociationMap& assoc = associations();
        const safety::HazardModel* hz = hazards_.has_value() ? &*hazards_ : nullptr;
        if (flow_prev_.has_value()) {
            // Incremental path: re-run the fixpoints only on the region
            // the diff (plus any association drift) can influence.
            model::ModelDiff d = model::diff(*flow_prev_model_, model_);
            flow_ = flow::reanalyze(*flow_prev_, d, model_, assoc, hz, options_.flow);
        } else {
            flow_ = flow::analyze(model_, assoc, hz, options_.flow);
        }
        flow_counts_.merge(flow_->counts);
        flow_prev_ = flow_;
        flow_prev_model_ = model_;
    }
    return *flow_;
}

lint::LintResult AnalysisSession::lint() {
    lint::LintInput input;
    input.model = &model_;
    input.corpus = corpus_;
    input.hazards = hazards_.has_value() ? &*hazards_ : nullptr;
    input.associations = associations_.has_value() ? &*associations_ : nullptr;
    lint::LintResult result = lint::run_lint(input, options_.lint);
    lint_counts_.rules_run = result.rules_run;
    lint_counts_.errors = result.errors();
    lint_counts_.warnings = result.warnings();
    lint_counts_.notes = result.notes();
    lint_counts_.wall_ns = result.wall_ns;
    return result;
}

const search::AssociationMap& AnalysisSession::associations() {
    if (!associations_.has_value()) {
        if (options_.fail_on_lint_error) {
            lint::LintResult pre = lint();
            if (!pre.ok()) {
                std::string what = "lint failed with " + std::to_string(pre.errors()) +
                                   " error(s); first: ";
                for (const lint::Diagnostic& d : pre.diagnostics) {
                    if (d.severity != lint::Severity::Error) continue;
                    what += lint::to_string(d);
                    break;
                }
                throw ValidationError(what);
            }
        }
        associations_ = associator_.associate(model_);
    }
    return *associations_;
}

const analysis::SecurityPosture& AnalysisSession::posture() {
    if (!posture_.has_value()) posture_ = analysis::compute_posture(model_, associations());
    return *posture_;
}

const std::vector<safety::ConsequenceTrace>& AnalysisSession::consequence_traces() {
    if (!traces_.has_value()) {
        if (!hazards_.has_value()) {
            traces_ = std::vector<safety::ConsequenceTrace>{};
        } else {
            safety::ConsequenceAnalyzer analyzer(model_, *hazards_);
            traces_ = analyzer.trace(associations());
        }
    }
    return *traces_;
}

const std::vector<safety::CausalScenario>& AnalysisSession::causal_scenarios() {
    if (!scenarios_.has_value()) {
        if (!hazards_.has_value()) {
            scenarios_ = std::vector<safety::CausalScenario>{};
        } else {
            scenarios_ = safety::generate_scenarios(model_, *hazards_, associations());
        }
    }
    return *scenarios_;
}

std::vector<analysis::HardeningCandidate> AnalysisSession::hardening_candidates() {
    return analysis::rank_hardening_candidates(
        model_, associations(), hazards_.has_value() ? &*hazards_ : nullptr);
}

dashboard::Report AnalysisSession::report() {
    dashboard::ReportExtras extras;
    if (hazards_.has_value()) {
        extras.scenarios = causal_scenarios();
        extras.hardening = hardening_candidates();
    }
    (void)associations(); // compute before linting and snapshotting the metrics
    extras.lint = lint(); // post-association: the consequence pass sees the map
    extras.flow = flow();
    extras.assoc_metrics = assoc_metrics();
    return dashboard::build_report(model_, associations(), posture(), consequence_traces(),
                                   options_.report, &extras);
}

std::vector<std::string> AnalysisSession::export_bundle(const std::string& directory) {
    return dashboard::write_bundle(directory, model_, associations(), report());
}

analysis::WhatIfResult AnalysisSession::propose(const model::SystemModel& candidate) {
    return analysis::what_if(model_, associations(), candidate, associator_);
}

model::ModelDiff AnalysisSession::commit(model::SystemModel candidate) {
    model::ModelDiff d = model::diff(model_, candidate);
    // reassociate drops the refined components' query-cache entries and
    // re-queries only those components; everything else is copied.
    search::AssociationMap updated = associator_.reassociate(associations(), d, candidate);
    model_ = std::move(candidate);
    invalidate_views();
    associations_ = std::move(updated);
    return d;
}

void AnalysisSession::invalidate_views() noexcept {
    associations_.reset();
    posture_.reset();
    traces_.reset();
    scenarios_.reset();
    // flow_prev_ / flow_prev_model_ deliberately survive: they are the
    // incremental baseline the next flow() call diffs against.
    flow_.reset();
}

std::string_view version() noexcept { return "1.0.0"; }

} // namespace cybok::core
