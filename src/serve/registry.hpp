// The serve-side session registry: one shared immutable engine
// generation, thousands of lightweight analyst sessions layered over it.
//
// Cost model. The expensive object is the engine (tokenized, finalized
// indexes + scorer tables over the whole corpus — megabytes, seconds to
// build cold); a session is cheap (a model overlay plus lazily computed
// association state). The registry therefore thaws/builds the engine
// exactly once per *generation* (core::make_shared_engine — the hoisted
// cold-start path, so the snapshot's signature/shape staleness check runs
// once, not once per session) and every session pins the generation it
// was opened against via shared_ptr.
//
// Copy-on-write overlays. Sessions opened without their own model share
// the generation's *base analysis* — one core::AnalysisSession over the
// base model whose lazily computed association map, posture, and query
// cache are shared by every unforked session (open 500 sessions, pay for
// one association pass). The first mutating operation (a whatif with
// commit=true) *materializes* the session: the base model is copied, a
// private AnalysisSession is built over the same shared engine, and the
// commit applies there — the base and every other session are untouched.
// Sessions opened with their own model DSL are materialized from birth.
//
// Hot swap. swap() installs a new engine generation from a snapshot blob:
// the blob is thawed *outside* any lock (seconds of work), then the
// registry's generation pointer is replaced under the registry lock — one
// pointer store. Generations are immutable, and every request and session
// pins the one it uses by shared_ptr, so a flip never waits for anyone: an
// in-flight request finishes on the generation it pinned, and a request
// that starts after the flip sees the new one. Sessions opened before the
// swap stay pinned to their original generation (their association state
// indexes the old corpus); new sessions get the new one. An old generation
// is freed when its last pin drops.
//
// Admission control. open() enforces max_sessions with a typed
// session_limit rejection; the server layers a bounded request queue with
// typed overloaded rejections on top (server.hpp).
//
// Thread-safety: every public member is safe to call from any number of
// server lanes concurrently. Per-session operations serialize on the
// session's own mutex (or the shared base-analysis mutex while unforked);
// the generation pointer and the registry bookkeeping are under one
// internal lock that is never held across analysis work.

#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/session.hpp"
#include "serve/protocol.hpp"

namespace cybok::serve {

/// Registry configuration.
struct RegistryOptions {
    /// Admission cap on concurrently open sessions; open() beyond it is
    /// rejected with ProtocolError(SessionLimit).
    std::size_t max_sessions = 4096;
    /// Associator lanes per session. Serve defaults to 1 (inline): request
    /// concurrency comes from the server's lanes, and one thread pool per
    /// session would oversubscribe the host at thousands of sessions.
    std::size_t session_threads = 1;
    /// Per-session query-cache entries (the base analysis uses the
    /// library default instead — it serves every unforked session).
    std::size_t session_cache_capacity = 1 << 10;
    /// Engine options for fresh builds and the snapshot staleness check.
    search::EngineOptions engine;
};

/// One sealed engine generation: the shared engine plus its identity.
struct Generation {
    std::uint64_t id = 0;
    std::shared_ptr<const core::SharedEngine> engine;
    std::string source; ///< snapshot path, or "<built>" for fresh builds
};

/// Load a generation's engine from a standalone snapshot blob (no
/// reference corpus needed — the blob carries its own). Throws
/// kb::SnapshotError / ValidationError on unusable blobs; swap() maps
/// those to ProtocolError(SwapFailed).
[[nodiscard]] std::shared_ptr<const core::SharedEngine> load_generation(
    const std::string& snapshot_path);

/// One open session: id, pinned generation, and the copy-on-write overlay
/// state. All access to the underlying AnalysisSession goes through an
/// AnalysisGuard, which takes the session's op mutex (serializing
/// pipelined requests against the same session) and, while the session is
/// an unforked overlay, the shared base-analysis mutex as well.
class ServeSession {
public:
    /// Shared state of a generation's base-model analysis: one
    /// AnalysisSession every unforked overlay session reads through,
    /// serialized by one mutex (lazy computations mutate it).
    struct BaseAnalysis {
        std::mutex mutex;
        std::shared_ptr<const model::SystemModel> base_model;
        core::AnalysisSession session;
        BaseAnalysis(std::shared_ptr<const model::SystemModel> base,
                     std::shared_ptr<const core::SharedEngine> engine,
                     const core::SessionOptions& options)
            : base_model(std::move(base)), session(*base_model, engine, options) {}
        BaseAnalysis(const BaseAnalysis&) = delete;
        BaseAnalysis& operator=(const BaseAnalysis&) = delete;
    };

    /// Unforked overlay over the generation's base analysis.
    ServeSession(std::string id, std::shared_ptr<const Generation> gen,
                 std::shared_ptr<BaseAnalysis> base);
    /// Materialized from birth over an own model.
    ServeSession(std::string id, std::shared_ptr<const Generation> gen, model::SystemModel own,
                 const core::SessionOptions& options);

    [[nodiscard]] const std::string& id() const noexcept { return id_; }
    [[nodiscard]] std::uint64_t generation() const noexcept { return gen_->id; }
    [[nodiscard]] const std::shared_ptr<const Generation>& generation_handle() const noexcept {
        return gen_;
    }
    /// True once this session owns a private model copy (COW fork done).
    /// Lock-free so session.list never blocks on a long analysis.
    [[nodiscard]] bool materialized() const noexcept {
        return materialized_.load(std::memory_order_acquire);
    }
    /// Requests dispatched to this session so far (monotonic).
    [[nodiscard]] std::uint64_t requests() const noexcept {
        return requests_.load(std::memory_order_relaxed);
    }
    void count_request() noexcept { requests_.fetch_add(1, std::memory_order_relaxed); }

    /// Copy-on-write fork: copy the pristine base model into a private
    /// AnalysisSession over the same shared engine. No-op when already
    /// materialized. Takes the op mutex itself — call *before*
    /// constructing an AnalysisGuard, never while holding one.
    void materialize(const core::SessionOptions& options);

    /// Scoped access to the session's AnalysisSession: op mutex always,
    /// plus the shared base mutex while unforked. Lock order is op-then-
    /// base everywhere, and the base mutex is always innermost, so guards
    /// on different sessions can never deadlock.
    class AnalysisGuard {
    public:
        explicit AnalysisGuard(ServeSession& sess) : op_(sess.op_mutex_) {
            if (sess.own_ == nullptr) base_ = std::unique_lock<std::mutex>(sess.base_->mutex);
            analysis_ = sess.own_ != nullptr ? sess.own_.get() : &sess.base_->session;
        }
        [[nodiscard]] core::AnalysisSession& operator*() const noexcept { return *analysis_; }
        [[nodiscard]] core::AnalysisSession* operator->() const noexcept { return analysis_; }

    private:
        std::unique_lock<std::mutex> op_;
        std::unique_lock<std::mutex> base_;
        core::AnalysisSession* analysis_;
    };

private:
    friend class AnalysisGuard;

    std::string id_;
    std::shared_ptr<const Generation> gen_;
    std::shared_ptr<BaseAnalysis> base_; ///< null when opened with an own model
    std::mutex op_mutex_;                ///< serializes requests on this session
    std::unique_ptr<core::AnalysisSession> own_; ///< guarded by op_mutex_
    std::atomic<bool> materialized_{false};
    std::atomic<std::uint64_t> requests_{0};
};

/// A session row for session.list / metrics.
struct SessionInfo {
    std::string id;
    std::uint64_t generation = 0;
    bool materialized = false;
    std::uint64_t requests = 0;
};

/// Registry-wide counters.
struct RegistryStats {
    std::size_t open_sessions = 0;
    std::size_t peak_sessions = 0;
    std::uint64_t total_opened = 0;
    std::uint64_t session_limit_rejections = 0;
    std::uint64_t swaps = 0;
    std::uint64_t deltas_applied = 0;       ///< delta.apply generation flips
    std::uint64_t compactions = 0;          ///< compact generation flips
    std::uint64_t compaction_failures = 0;  ///< folds that failed (old generation kept)
    std::uint64_t current_generation = 0;
    std::size_t current_segments = 0; ///< delta segments behind the live generation
};

class SessionRegistry {
public:
    /// Registry over an initial generation (from core::make_shared_engine
    /// or load_generation) and the base model new sessions overlay.
    SessionRegistry(std::shared_ptr<const core::SharedEngine> engine,
                    model::SystemModel base_model, RegistryOptions options);

    SessionRegistry(const SessionRegistry&) = delete;
    SessionRegistry& operator=(const SessionRegistry&) = delete;

    /// The live generation, pinned for as long as the caller holds it.
    [[nodiscard]] std::shared_ptr<const Generation> current() const {
        std::lock_guard<std::mutex> lk(mutex_);
        return current_;
    }

    /// Open a session. Empty `model_dsl` = copy-on-write overlay of the
    /// base model; otherwise the DSL is parsed + validated and the session
    /// is materialized from birth. Throws ProtocolError(SessionLimit) at
    /// the admission cap and ProtocolError(ModelInvalid) on bad DSL.
    [[nodiscard]] std::string open(const std::string& model_dsl);

    /// Look up a session; throws ProtocolError(UnknownSession).
    [[nodiscard]] std::shared_ptr<ServeSession> find(std::string_view id) const;

    /// Close a session; throws ProtocolError(UnknownSession).
    void close(std::string_view id);

    /// Fork a session's COW overlay before a commit (no-op when already
    /// materialized). Separate from ServeSession::materialize only to
    /// supply the registry's per-session options.
    void materialize(ServeSession& session) { session.materialize(session_options()); }

    [[nodiscard]] std::vector<SessionInfo> list() const;
    [[nodiscard]] RegistryStats stats() const;

    /// Install a new generation from a snapshot blob: thaw outside any
    /// lock, then flip. Returns the new generation id.
    /// Throws ProtocolError(SwapFailed) on an unusable blob; the old
    /// generation keeps serving in that case.
    std::uint64_t swap(const std::string& snapshot_path);

    /// Install the next generation by applying a frozen corpus delta
    /// (kb::freeze_corpus_delta blob at `delta_path`) over the live
    /// generation in O(delta) — the feed-tick path. Same pointer flip as
    /// swap(); sessions opened before the apply stay pinned to their
    /// generation. Throws ProtocolError(DeltaFailed) on an unreadable
    /// blob, a validation failure, or a non-BM25 engine; the old
    /// generation keeps serving and nothing is published.
    std::uint64_t apply_delta(const std::string& delta_path);

    /// Fold the live generation's delta segments into a fresh from-scratch
    /// base generation (core::compact) and flip to it. Queries against the
    /// result are bit-identical; the win is dropped tombstone masks and
    /// merge overhead. No-op (returns the live id) when the generation has
    /// no segments. A failed fold — crash-consistency fault site
    /// "serve.compact.fold" — leaves the segmented generation authoritative,
    /// counts a compaction failure, and throws ProtocolError(CompactFailed).
    std::uint64_t compact();

    /// Sum of AssocMetrics over the base analysis and every materialized
    /// session, plus each live generation's cold-start degradations
    /// (counted once per generation — see core::SharedEngine::cold_start).
    [[nodiscard]] search::AssocMetrics aggregate_metrics() const;

    [[nodiscard]] const RegistryOptions& options() const noexcept { return options_; }

private:
    [[nodiscard]] core::SessionOptions session_options() const;
    /// What kind of generation flip a counter should attribute.
    enum class FlipKind : std::uint8_t { Swap, Delta, Compact };
    /// The pointer flip behind swap/apply_delta/compact: publish `fresh`
    /// and drop the old base analysis. The expensive/fallible construction
    /// of `fresh` has already happened outside the lock.
    std::uint64_t flip_generation(std::shared_ptr<const core::SharedEngine> fresh,
                                  std::string source, FlipKind kind);
    /// The base analysis for `gen`, created lazily on the first
    /// base-overlay open after construction or a swap. Caller holds mutex_.
    [[nodiscard]] std::shared_ptr<ServeSession::BaseAnalysis> base_analysis_for(
        const std::shared_ptr<const Generation>& gen);

    RegistryOptions options_;
    std::shared_ptr<const model::SystemModel> base_model_;

    /// Serializes generation *mutators* (swap/apply_delta/compact) against
    /// each other, so an apply computed against generation G can never
    /// clobber a flip that landed in between. Never blocks requests.
    /// Lock order: admin_mutex_ -> mutex_.
    std::mutex admin_mutex_;

    mutable std::mutex mutex_; ///< current_ + sessions_ + counters + base_analysis_
    std::shared_ptr<const Generation> current_;
    std::vector<std::pair<std::string, std::shared_ptr<ServeSession>>> sessions_;
    std::shared_ptr<ServeSession::BaseAnalysis> base_analysis_; ///< for current_ generation
    std::uint64_t base_analysis_generation_ = 0;
    std::uint64_t next_session_ = 1;
    std::uint64_t next_generation_ = 2; ///< generation 1 is the construction one
    RegistryStats stats_;
    search::DegradeCounts degrade_; ///< registry-level absorbed failures (compaction)
};

} // namespace cybok::serve
