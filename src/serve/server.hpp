// The cybok analysis server: one shared immutable engine, many cheap
// concurrent analyst sessions, served over the length-prefixed JSON-line
// protocol in protocol.hpp.
//
// Architecture (one box per thread role):
//
//            ┌────────────┐   bounded    ┌───────────────────────────┐
//   sockets →│  IO thread │── request ──→│ worker lanes              │
//            │ poll(2):   │   queue      │ (util::ThreadPool —       │
//            │ accept,    │              │  each lane pops requests, │
//            │ read,      │←─ responses ─│  executes on a pinned     │
//            │ frame      │   written    │  generation, writes the   │
//            │ decode     │   directly   │  response)                │
//            └────────────┘      ↑       └─────────────┬─────────────┘
//                                │           swap/delta/compact
//                                │           (admin backlog)
//                                │       ┌─────────────▼─────────────┐
//                                └───────│ admin thread              │
//                                        │ (one at a time, arrival   │
//                                        │  order: builds and flips  │
//                                        │  generations, writes the  │
//                                        │  response)                │
//                                        └───────────────────────────┘
//
// One IO thread owns every socket read: it accepts connections, feeds
// bytes into each connection's FrameDecoder, and enqueues complete frames
// onto a bounded request queue. Worker lanes — the existing
// util::ThreadPool, entered once via parallel_for(lanes, consume-loop) —
// pop frames, decode, execute against the SessionRegistry, and write the
// response themselves under a per-connection write mutex (responses to
// pipelined requests on one connection may interleave in any order;
// clients correlate by `id`).
//
// Admin thread: a lane that decodes snapshot.swap, delta.apply or compact
// hands it to one admin thread instead of executing it, so a compaction
// rebuild (hundreds of milliseconds) or a snapshot thaw never holds a lane
// while queries queue behind it. The admin thread executes these requests
// one at a time in the order they reach it and writes each response. A
// request pipelined after an admin request may therefore be answered
// before it, even with one lane.
//
// Admission control: when the request queue and the admin backlog
// together hold queue_capacity requests, the IO thread rejects the frame
// immediately with a typed `overloaded` error response — the request never
// enters the system, so an overloaded server stays responsive and sheds
// load instead of building an unbounded backlog.
//
// Graceful shutdown: `shutdown` (or stop()) stops the accept loop,
// rejects queued-but-new work with `shutting_down`, drains the request
// queue and then the admin backlog, and joins every thread. In-flight
// requests complete and their responses are written before the sockets
// close.
//
// Fault sites (ARCHITECTURE.md §6): serve.accept (a failed accept drops
// that connection, the listener keeps accepting) and serve.response.write
// (the response is abandoned and the connection closed; the request
// itself already executed). The protocol and registry layers carry their
// own sites (serve.frame.decode, serve.request.decode,
// serve.session.open, serve.swap.load).

#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/registry.hpp"
#include "util/thread_pool.hpp"

namespace cybok::serve {

/// Server configuration.
struct ServerOptions {
    /// Bind address. The default is loopback-only: the protocol has no
    /// authentication, so exposing it wider is an explicit operator act.
    std::string bind = "127.0.0.1";
    /// TCP port; 0 binds an ephemeral port (read it back with port()).
    std::uint16_t port = 0;
    /// Worker lanes executing requests (0 = hardware concurrency).
    std::size_t lanes = 0;
    /// Bounded request-queue capacity, shared with the admin backlog;
    /// frames beyond it are rejected with a typed `overloaded` response
    /// (admission control, not buffering).
    std::size_t queue_capacity = 256;
    /// Per-frame payload ceiling handed to each connection's FrameDecoder.
    std::size_t max_frame_bytes = kDefaultMaxFrameBytes;
    /// Registry (session) configuration.
    RegistryOptions registry;
};

/// Monotonic server counters (all atomics: read them live from any thread).
struct ServerStats {
    std::atomic<std::uint64_t> connections_accepted{0};
    std::atomic<std::uint64_t> connections_open{0};
    std::atomic<std::uint64_t> requests_received{0};
    std::atomic<std::uint64_t> responses_sent{0};
    std::atomic<std::uint64_t> overload_rejections{0};
    std::atomic<std::uint64_t> bad_frames{0};      ///< framing violations (connection closed)
    std::atomic<std::uint64_t> error_responses{0}; ///< typed failure responses written
    std::atomic<std::uint64_t> write_failures{0};  ///< responses lost to dead peers / faults
};

/// The analysis server. Construct with a shared engine + base model,
/// start(), then stop() (or let a `shutdown` request do it) and wait().
class Server {
public:
    Server(std::shared_ptr<const core::SharedEngine> engine, model::SystemModel base_model,
           ServerOptions options);
    ~Server();

    Server(const Server&) = delete;
    Server& operator=(const Server&) = delete;

    /// Bind, listen, and spawn the IO thread, the worker lanes and the
    /// admin thread. Throws IoError when the address cannot be bound.
    void start();

    /// The bound TCP port (valid after start(); resolves port 0).
    [[nodiscard]] std::uint16_t port() const noexcept { return bound_port_; }

    /// Begin graceful shutdown: stop accepting, drain in-flight work.
    /// Safe to call from any thread, including a worker lane. Idempotent.
    void stop();

    /// Block until every thread has exited (after stop() or `shutdown`).
    /// Admin requests still queued when stop() was called run first.
    void wait();

    [[nodiscard]] bool running() const noexcept {
        return running_.load(std::memory_order_acquire);
    }

    [[nodiscard]] const ServerStats& stats() const noexcept { return stats_; }
    [[nodiscard]] SessionRegistry& registry() noexcept { return registry_; }
    [[nodiscard]] const ServerOptions& options() const noexcept { return options_; }

private:
    /// One accepted connection. The fd closes when the last reference
    /// drops, so a worker writing a response can never race fd reuse.
    struct Connection {
        explicit Connection(int socket_fd, std::size_t max_frame)
            : fd(socket_fd), decoder(max_frame) {}
        ~Connection();
        Connection(const Connection&) = delete;
        Connection& operator=(const Connection&) = delete;

        int fd;
        FrameDecoder decoder;
        std::mutex write_mutex;            ///< serializes response writes
        std::atomic<bool> dead{false};     ///< peer gone / framing violated
    };

    struct WorkItem {
        std::shared_ptr<Connection> conn;
        std::string payload;
    };

    /// A decoded generation-changing request waiting for the admin thread.
    struct AdminItem {
        std::shared_ptr<Connection> conn;
        Request req;
    };

    void io_loop();
    void consume_loop();
    void admin_loop();
    /// Read-ready: drain the socket into the decoder, enqueue frames.
    /// Returns false when the connection must be dropped.
    [[nodiscard]] bool drain_connection(const std::shared_ptr<Connection>& conn);
    void enqueue(const std::shared_ptr<Connection>& conn, std::string payload);
    void handle(const WorkItem& item);
    /// Execute one decoded request (worker lane or admin thread). Returns
    /// the response.
    [[nodiscard]] json::Value execute(const Request& req);

    json::Value handle_hello();
    json::Value handle_query(const Request& req);
    json::Value handle_fleet(const Request& req);
    json::Value handle_session_open(const Request& req);
    json::Value handle_session_list();
    json::Value handle_associate(const Request& req);
    json::Value handle_whatif(const Request& req);
    json::Value handle_posture(const Request& req);
    json::Value handle_flow(const Request& req);
    json::Value handle_metrics(const Request& req);
    json::Value handle_swap(const Request& req);
    json::Value handle_delta_apply(const Request& req);
    json::Value handle_compact(const Request& req);

    /// Frame + write a response payload under the connection's write
    /// mutex. Failures mark the connection dead and are counted.
    void write_response(const std::shared_ptr<Connection>& conn, const json::Value& response);
    void wake_io() noexcept;

    ServerOptions options_;
    SessionRegistry registry_;

    int listen_fd_ = -1;
    int wake_pipe_[2] = {-1, -1}; ///< self-pipe: stop() wakes the poll loop
    std::uint16_t bound_port_ = 0;

    std::mutex queue_mutex_; ///< guards both queues and lanes_done_
    std::condition_variable queue_cv_;
    std::deque<WorkItem> queue_;
    std::condition_variable admin_cv_;
    std::deque<AdminItem> admin_queue_; ///< counts against queue_capacity
    bool lanes_done_ = false;           ///< set by wait() once every lane has exited

    std::atomic<bool> running_{false};
    std::atomic<bool> stopping_{false};

    std::unique_ptr<util::ThreadPool> pool_;
    std::thread io_thread_;
    std::thread dispatch_thread_; ///< enters pool_->parallel_for(lanes, consume_loop)
    std::thread admin_thread_;    ///< runs snapshot.swap / delta.apply / compact in order

    ServerStats stats_;
};

} // namespace cybok::serve
