#include "serve/registry.hpp"

#include <algorithm>
#include <optional>

#include "kb/delta.hpp"
#include "kb/snapshot.hpp"
#include "model/dsl.hpp"
#include "util/bytes.hpp"
#include "util/fault.hpp"

namespace cybok::serve {

std::shared_ptr<const core::SharedEngine> load_generation(const std::string& snapshot_path) {
    CYBOK_FAULT_POINT("serve.swap.load",
                      kb::SnapshotError("injected: swap snapshot load failed", snapshot_path, 0));
    search::EngineSnapshot snap = search::load_engine_snapshot(snapshot_path);
    auto handle = std::make_shared<core::SharedEngine>();
    handle->owned_corpus = std::move(snap.corpus);
    handle->engine = std::move(snap.engine);
    // Keep the snapshot's backing storage alive for the generation's whole
    // lifetime: on the zero-copy path the engine reads the mmap'd file in
    // place, so the mapping (one physical copy, shared by every session of
    // the generation and surviving hot swaps until the last pin drops)
    // must outlive the engine.
    handle->slab_backing = std::move(snap.slab_backing);
    handle->mapping = std::move(snap.mapping);
    if (!snap.mmap_fallback_reason.empty()) {
        ++handle->cold_start.mmap_fallbacks;
        handle->cold_start.last_reason = snap.mmap_fallback_reason;
    }
    return handle;
}

// -- ServeSession ------------------------------------------------------------

ServeSession::ServeSession(std::string id, std::shared_ptr<const Generation> gen,
                           std::shared_ptr<BaseAnalysis> base)
    : id_(std::move(id)), gen_(std::move(gen)), base_(std::move(base)) {}

ServeSession::ServeSession(std::string id, std::shared_ptr<const Generation> gen,
                           model::SystemModel own, const core::SessionOptions& options)
    : id_(std::move(id)), gen_(std::move(gen)),
      own_(std::make_unique<core::AnalysisSession>(std::move(own), gen_->engine, options)) {
    materialized_.store(true, std::memory_order_release);
}

void ServeSession::materialize(const core::SessionOptions& options) {
    std::lock_guard<std::mutex> lk(op_mutex_);
    if (own_ != nullptr) return;
    // The fork copies the *pristine* base model (immutable by contract —
    // the base analysis never commits), so no base-analysis lock is
    // needed; concurrent readers of the base keep going unharmed.
    own_ = std::make_unique<core::AnalysisSession>(*base_->base_model, gen_->engine, options);
    materialized_.store(true, std::memory_order_release);
}

// -- SessionRegistry ---------------------------------------------------------

SessionRegistry::SessionRegistry(std::shared_ptr<const core::SharedEngine> engine,
                                 model::SystemModel base_model, RegistryOptions options)
    : options_(std::move(options)),
      base_model_(std::make_shared<const model::SystemModel>(std::move(base_model))),
      current_(std::make_shared<const Generation>(Generation{1, std::move(engine), "<built>"})) {
    CYBOK_EXPECTS(current_->engine != nullptr &&
                  (current_->engine->engine != nullptr ||
                   current_->engine->segmented != nullptr));
    stats_.current_generation = 1;
}

core::SessionOptions SessionRegistry::session_options() const {
    core::SessionOptions opts;
    opts.engine = options_.engine;
    opts.assoc.threads = options_.session_threads;
    opts.assoc.cache_capacity = options_.session_cache_capacity;
    return opts;
}

std::shared_ptr<ServeSession::BaseAnalysis> SessionRegistry::base_analysis_for(
    const std::shared_ptr<const Generation>& gen) {
    // Lazily (re)build the base analysis for the live generation: after a
    // swap the old one keeps serving its pinned sessions, but new overlay
    // sessions must layer over the new engine. Caller holds mutex_.
    if (base_analysis_ == nullptr || base_analysis_generation_ != gen->id) {
        core::SessionOptions opts = session_options();
        // The base analysis serves every unforked session, so give it the
        // library-default cache rather than the small per-session one.
        opts.assoc.cache_capacity = search::AssocOptions{}.cache_capacity;
        base_analysis_ =
            std::make_shared<ServeSession::BaseAnalysis>(base_model_, gen->engine, opts);
        base_analysis_generation_ = gen->id;
    }
    return base_analysis_;
}

std::string SessionRegistry::open(const std::string& model_dsl) {
    CYBOK_FAULT_POINT("serve.session.open",
                      Error("injected: session construction failed"));
    // Parse outside the registry lock: DSL errors must not serialize other
    // opens, and nothing is allocated in the registry until the model is
    // known-good.
    std::optional<model::SystemModel> own;
    if (!model_dsl.empty()) {
        try {
            own = model::parse_dsl(model_dsl);
        } catch (const Error& e) {
            throw ProtocolError(ErrorCode::ModelInvalid,
                                std::string("model DSL rejected: ") + e.what());
        }
    }
    std::lock_guard<std::mutex> lk(mutex_);
    if (sessions_.size() >= options_.max_sessions) {
        ++stats_.session_limit_rejections;
        throw ProtocolError(ErrorCode::SessionLimit,
                            "session limit reached (" + std::to_string(options_.max_sessions) +
                                " open); close a session or raise --max-sessions");
    }
    std::string id = "s-" + std::to_string(next_session_++);
    std::shared_ptr<ServeSession> session;
    if (own.has_value()) {
        session = std::make_shared<ServeSession>(id, current_, std::move(*own), session_options());
    } else {
        session = std::make_shared<ServeSession>(id, current_, base_analysis_for(current_));
    }
    sessions_.emplace_back(id, std::move(session));
    ++stats_.total_opened;
    stats_.peak_sessions = std::max(stats_.peak_sessions, sessions_.size());
    return id;
}

std::shared_ptr<ServeSession> SessionRegistry::find(std::string_view id) const {
    std::lock_guard<std::mutex> lk(mutex_);
    for (const auto& [sid, session] : sessions_)
        if (sid == id) return session;
    throw ProtocolError(ErrorCode::UnknownSession, "no such session: " + std::string(id));
}

void SessionRegistry::close(std::string_view id) {
    std::lock_guard<std::mutex> lk(mutex_);
    auto it = std::find_if(sessions_.begin(), sessions_.end(),
                           [&](const auto& entry) { return entry.first == id; });
    if (it == sessions_.end())
        throw ProtocolError(ErrorCode::UnknownSession, "no such session: " + std::string(id));
    sessions_.erase(it);
}

std::vector<SessionInfo> SessionRegistry::list() const {
    std::lock_guard<std::mutex> lk(mutex_);
    std::vector<SessionInfo> infos;
    infos.reserve(sessions_.size());
    for (const auto& [sid, session] : sessions_)
        infos.push_back({sid, session->generation(), session->materialized(),
                         session->requests()});
    return infos;
}

RegistryStats SessionRegistry::stats() const {
    std::lock_guard<std::mutex> lk(mutex_);
    RegistryStats s = stats_;
    s.open_sessions = sessions_.size();
    s.current_generation = current_->id;
    s.current_segments = current_->engine->segmented != nullptr
                             ? current_->engine->segmented->segment_count()
                             : 0;
    return s;
}

std::uint64_t SessionRegistry::flip_generation(std::shared_ptr<const core::SharedEngine> fresh,
                                               std::string source, FlipKind kind) {
    // Publishing is one pointer store: requests in flight keep the
    // generation they pinned, so there is nothing to wait for. The old
    // generation and base analysis are released after the lock, so freeing
    // them (when nothing else pins them) never stalls find() or open().
    std::shared_ptr<const Generation> retired;
    std::shared_ptr<ServeSession::BaseAnalysis> retired_base;
    std::lock_guard<std::mutex> lk(mutex_);
    const std::uint64_t id = next_generation_++;
    retired = std::exchange(current_, std::make_shared<const Generation>(
                                          Generation{id, std::move(fresh), std::move(source)}));
    switch (kind) {
    case FlipKind::Swap: ++stats_.swaps; break;
    case FlipKind::Delta: ++stats_.deltas_applied; break;
    case FlipKind::Compact: ++stats_.compactions; break;
    }
    stats_.current_generation = id;
    // The old base analysis still serves sessions pinned to the old
    // generation; a fresh one is built lazily on the next base-overlay open.
    retired_base = std::move(base_analysis_);
    base_analysis_generation_ = 0;
    return id;
}

std::uint64_t SessionRegistry::swap(const std::string& snapshot_path) {
    std::lock_guard<std::mutex> admin(admin_mutex_);
    // Thaw the new generation before the flip: a corrupt blob must be
    // rejected while the old generation is still untouched.
    std::shared_ptr<const core::SharedEngine> fresh;
    try {
        fresh = load_generation(snapshot_path);
    } catch (const Error& e) {
        throw ProtocolError(ErrorCode::SwapFailed,
                            std::string("snapshot rejected: ") + e.what());
    }
    return flip_generation(std::move(fresh), snapshot_path, FlipKind::Swap);
}

std::uint64_t SessionRegistry::apply_delta(const std::string& delta_path) {
    std::lock_guard<std::mutex> admin(admin_mutex_);
    // Decode and apply before the flip: any failure — unreadable blob,
    // validation error, injected segment-build fault — leaves the live
    // generation untouched and authoritative. admin_mutex_ keeps a
    // concurrent swap/compact from flipping under us, so the overlay is
    // guaranteed to be built against the generation we publish over.
    std::shared_ptr<const core::SharedEngine> next;
    try {
        const std::string blob = util::read_file(delta_path);
        const kb::CorpusDelta delta = kb::thaw_corpus_delta(blob, delta_path);
        next = core::apply_corpus_delta(current()->engine, delta);
    } catch (const Error& e) {
        throw ProtocolError(ErrorCode::DeltaFailed,
                            std::string("delta rejected: ") + e.what());
    }
    return flip_generation(std::move(next), "<delta:" + delta_path + ">", FlipKind::Delta);
}

std::uint64_t SessionRegistry::compact() {
    std::lock_guard<std::mutex> admin(admin_mutex_);
    const std::shared_ptr<const Generation> gen = current();
    if (gen->engine->segmented == nullptr) return gen->id; // nothing to fold
    std::shared_ptr<const core::SharedEngine> folded;
    try {
        // Crash-consistency site: a fold that dies here publishes nothing —
        // the segmented generation stays authoritative and keeps serving.
        CYBOK_FAULT_POINT("serve.compact.fold", Error("injected: compaction fold failed"));
        folded = core::compact(gen->engine);
    } catch (const Error& e) {
        {
            std::lock_guard<std::mutex> lk(mutex_);
            ++stats_.compaction_failures;
            ++degrade_.compaction_failures;
            degrade_.last_reason = e.what();
        }
        throw ProtocolError(ErrorCode::CompactFailed,
                            std::string("compaction failed: ") + e.what());
    }
    return flip_generation(std::move(folded), "<compacted>", FlipKind::Compact);
}

search::AssocMetrics SessionRegistry::aggregate_metrics() const {
    std::vector<std::shared_ptr<ServeSession>> sessions;
    std::shared_ptr<ServeSession::BaseAnalysis> base;
    std::shared_ptr<const Generation> live;
    search::AssocMetrics total;
    {
        std::lock_guard<std::mutex> lk(mutex_);
        sessions.reserve(sessions_.size());
        for (const auto& [sid, session] : sessions_) sessions.push_back(session);
        base = base_analysis_;
        live = current_;
        // Registry-level absorbed failures (failed compaction folds).
        total.degrade.merge(degrade_);
    }
    // Each generation's cold-start degradations count once, no matter how
    // many sessions share the engine (SharedEngine::cold_start).
    std::vector<const core::SharedEngine*> counted_engines;
    auto count_engine = [&](const core::SharedEngine* engine) {
        if (engine == nullptr) return;
        if (std::find(counted_engines.begin(), counted_engines.end(), engine) !=
            counted_engines.end())
            return;
        counted_engines.push_back(engine);
        total.degrade.merge(engine->cold_start);
    };
    if (base != nullptr) {
        std::lock_guard<std::mutex> lk(base->mutex);
        total.merge(base->session.assoc_metrics());
        count_engine(base->session.engine_handle().get());
    }
    for (const auto& session : sessions) {
        if (session->materialized()) {
            ServeSession::AnalysisGuard guard(*session);
            total.merge(guard->assoc_metrics());
        }
        count_engine(session->generation_handle()->engine.get());
    }
    // Even with no sessions yet, surface the live generation's cold start
    // (e.g. a stale snapshot fallback at serve startup).
    count_engine(live->engine.get());
    return total;
}

} // namespace cybok::serve
