#include "serve/server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "analysis/fleet.hpp"
#include "model/dsl.hpp"
#include "util/fault.hpp"

namespace cybok::serve {

namespace {

void set_nonblocking(int fd) {
    const int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags >= 0) (void)::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

/// Best-effort extraction of the client correlation id from a raw frame
/// payload, for rejections issued before the request is decoded (overload,
/// shutdown). A payload too broken to parse gets id 0 — the client can
/// still match the rejection by elimination, and the code tells the story.
std::int64_t peek_id(std::string_view payload) noexcept {
    try {
        const json::Value doc = json::parse(payload);
        if (doc.is_object() && doc.contains("id") && doc.at("id").is_number())
            return doc.at("id").as_int();
    } catch (...) { // NOLINT(bugprone-empty-catch): id is advisory here
    }
    return 0;
}

/// The generation-changing requests: they run on the admin thread, never
/// on a request lane.
bool is_admin(MsgType type) noexcept {
    return type == MsgType::SnapshotSwap || type == MsgType::DeltaApply ||
           type == MsgType::Compact;
}

/// Run `fn` and map any failure to a typed error response for `id`.
template <class Fn>
json::Value guarded(std::int64_t id, Fn&& fn) {
    try {
        return fn();
    } catch (const ProtocolError& e) {
        return error_response(id, e.code(), e.what());
    } catch (const Error& e) {
        return error_response(id, ErrorCode::Internal, e.what());
    } catch (const std::exception& e) {
        return error_response(id, ErrorCode::Internal, std::string("unexpected: ") + e.what());
    }
}

json::Value posture_row(const analysis::ComponentPosture& p) {
    json::Value row;
    row["component"] = p.component;
    row["attack_patterns"] = p.attack_patterns;
    row["weaknesses"] = p.weaknesses;
    row["vulnerabilities"] = p.vulnerabilities;
    row["total"] = p.total_vectors();
    if (p.max_severity >= 0.0) row["max_severity"] = p.max_severity;
    row["centrality"] = p.centrality;
    if (p.exposure_hops != UINT32_MAX) row["exposure_hops"] = std::uint64_t{p.exposure_hops};
    return row;
}

} // namespace

// -- Connection --------------------------------------------------------------

Server::Connection::~Connection() {
    if (fd >= 0) ::close(fd);
}

// -- lifecycle ---------------------------------------------------------------

Server::Server(std::shared_ptr<const core::SharedEngine> engine, model::SystemModel base_model,
               ServerOptions options)
    : options_(std::move(options)),
      registry_(std::move(engine), std::move(base_model), options_.registry) {
    if (options_.lanes == 0) options_.lanes = util::ThreadPool::default_thread_count();
}

Server::~Server() {
    stop();
    wait();
}

void Server::start() {
    CYBOK_EXPECTS(!running_.load());
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0) throw IoError("serve: socket() failed: " + std::string(strerror(errno)));
    const int one = 1;
    (void)::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(options_.port);
    if (::inet_pton(AF_INET, options_.bind.c_str(), &addr.sin_addr) != 1) {
        ::close(listen_fd_);
        listen_fd_ = -1;
        throw IoError("serve: bad bind address: " + options_.bind);
    }
    if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0 ||
        ::listen(listen_fd_, SOMAXCONN) != 0) {
        const std::string why = strerror(errno);
        ::close(listen_fd_);
        listen_fd_ = -1;
        throw IoError("serve: cannot listen on " + options_.bind + ":" +
                      std::to_string(options_.port) + ": " + why);
    }
    sockaddr_in bound{};
    socklen_t len = sizeof bound;
    (void)::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
    bound_port_ = ntohs(bound.sin_port);
    set_nonblocking(listen_fd_);

    if (::pipe(wake_pipe_) != 0) {
        ::close(listen_fd_);
        listen_fd_ = -1;
        throw IoError("serve: pipe() failed: " + std::string(strerror(errno)));
    }
    set_nonblocking(wake_pipe_[0]);
    set_nonblocking(wake_pipe_[1]);

    running_.store(true, std::memory_order_release);
    stopping_.store(false, std::memory_order_release);
    lanes_done_ = false;
    pool_ = std::make_unique<util::ThreadPool>(options_.lanes);
    io_thread_ = std::thread([this] { io_loop(); });
    admin_thread_ = std::thread([this] { admin_loop(); });
    // One parallel_for over `lanes` indices with one index per lane: each
    // pool thread (plus this dispatcher) parks in consume_loop until
    // shutdown — the pool IS the worker-lane set.
    dispatch_thread_ = std::thread(
        [this] { pool_->parallel_for(options_.lanes, [this](std::size_t) { consume_loop(); }); });
}

void Server::stop() {
    if (!running_.load(std::memory_order_acquire)) return;
    {
        // Set under queue_mutex_: a lane that has just evaluated the
        // consume_loop predicate cannot sleep through this notify.
        std::lock_guard<std::mutex> lk(queue_mutex_);
        stopping_.store(true, std::memory_order_release);
    }
    queue_cv_.notify_all();
    wake_io();
}

void Server::wait() {
    if (io_thread_.joinable()) io_thread_.join();
    if (dispatch_thread_.joinable()) dispatch_thread_.join();
    // The lanes have drained the request queue, so nothing can join the
    // admin backlog any more; the admin thread finishes it and exits.
    {
        std::lock_guard<std::mutex> lk(queue_mutex_);
        lanes_done_ = true;
    }
    admin_cv_.notify_all();
    if (admin_thread_.joinable()) admin_thread_.join();
    pool_.reset();
    if (listen_fd_ >= 0) {
        ::close(listen_fd_);
        listen_fd_ = -1;
    }
    for (int& fd : wake_pipe_) {
        if (fd >= 0) ::close(fd);
        fd = -1;
    }
    running_.store(false, std::memory_order_release);
}

void Server::wake_io() noexcept {
    if (wake_pipe_[1] >= 0) {
        const char byte = 'w';
        (void)!::write(wake_pipe_[1], &byte, 1);
    }
}

// -- IO thread ---------------------------------------------------------------

void Server::io_loop() {
    std::vector<std::shared_ptr<Connection>> conns;
    while (!stopping_.load(std::memory_order_acquire)) {
        std::vector<pollfd> fds;
        fds.reserve(conns.size() + 2);
        fds.push_back({wake_pipe_[0], POLLIN, 0});
        fds.push_back({listen_fd_, POLLIN, 0});
        for (const auto& conn : conns) fds.push_back({conn->fd, POLLIN, 0});

        const int rc = ::poll(fds.data(), static_cast<nfds_t>(fds.size()), 500);
        if (rc < 0) {
            if (errno == EINTR) continue;
            break; // unrecoverable poll failure; shut the server down
        }
        if ((fds[0].revents & POLLIN) != 0) {
            char buf[64];
            while (::read(wake_pipe_[0], buf, sizeof buf) > 0) {}
        }
        if ((fds[1].revents & POLLIN) != 0) {
            for (;;) {
                const int cfd = ::accept(listen_fd_, nullptr, nullptr);
                if (cfd < 0) break; // EAGAIN / transient: poll signals again
                try {
                    CYBOK_FAULT_POINT("serve.accept", IoError("injected: accept failed"));
                } catch (const Error&) {
                    // Degradation contract: this connection is dropped; the
                    // listener keeps accepting.
                    ::close(cfd);
                    continue;
                }
                set_nonblocking(cfd);
                conns.push_back(std::make_shared<Connection>(cfd, options_.max_frame_bytes));
                ++stats_.connections_accepted;
                ++stats_.connections_open;
            }
        }
        // fds[i + 2] is conns[i] for the connections that existed when fds
        // was built; ones accepted above were never polled, so they carry
        // no events this round (the next poll() covers them).
        const std::size_t polled = fds.size() - 2;
        std::vector<std::shared_ptr<Connection>> alive;
        alive.reserve(conns.size());
        for (std::size_t i = 0; i < conns.size(); ++i) {
            const short revents = i < polled ? fds[i + 2].revents : short{0};
            bool keep = !conns[i]->dead.load(std::memory_order_acquire);
            if (keep && (revents & (POLLIN | POLLHUP | POLLERR)) != 0)
                keep = drain_connection(conns[i]);
            if (keep)
                alive.push_back(std::move(conns[i]));
            else
                --stats_.connections_open;
        }
        conns = std::move(alive);
    }
    // Graceful exit: drop our references. Connections with responses still
    // in flight stay open until the owning worker writes and releases them.
    stats_.connections_open -= conns.size();
    conns.clear();
}

bool Server::drain_connection(const std::shared_ptr<Connection>& conn) {
    char buf[65536];
    const ssize_t n = ::recv(conn->fd, buf, sizeof buf, 0);
    if (n == 0) return false;                               // peer closed
    if (n < 0) return errno == EAGAIN || errno == EINTR;    // transient
    conn->decoder.feed(std::string_view(buf, static_cast<std::size_t>(n)));
    try {
        while (std::optional<std::string> payload = conn->decoder.next())
            enqueue(conn, std::move(*payload));
    } catch (const ProtocolError& e) {
        // Framing violation: the stream has no resynchronization point.
        // Tell the client why (best effort), then drop the connection.
        ++stats_.bad_frames;
        write_response(conn, error_response(0, e.code(), e.what()));
        conn->dead.store(true, std::memory_order_release);
        return false;
    }
    return true;
}

void Server::enqueue(const std::shared_ptr<Connection>& conn, std::string payload) {
    ++stats_.requests_received;
    if (stopping_.load(std::memory_order_acquire)) {
        write_response(conn, error_response(peek_id(payload), ErrorCode::ShuttingDown,
                                            "server is draining; no new work accepted"));
        return;
    }
    {
        std::unique_lock<std::mutex> lk(queue_mutex_);
        if (queue_.size() + admin_queue_.size() >= options_.queue_capacity) {
            lk.unlock();
            // Admission control: reject at the door instead of buffering —
            // the IO thread stays responsive and the client gets a typed
            // signal to back off.
            ++stats_.overload_rejections;
            write_response(conn, error_response(peek_id(payload), ErrorCode::Overloaded,
                                                "request queue full (" +
                                                    std::to_string(options_.queue_capacity) +
                                                    "); retry with backoff"));
            return;
        }
        queue_.push_back(WorkItem{conn, std::move(payload)});
    }
    queue_cv_.notify_one();
}

// -- worker lanes ------------------------------------------------------------

void Server::consume_loop() {
    for (;;) {
        WorkItem item;
        {
            std::unique_lock<std::mutex> lk(queue_mutex_);
            queue_cv_.wait(lk, [this] {
                return !queue_.empty() || stopping_.load(std::memory_order_acquire);
            });
            if (queue_.empty()) return; // stopping and drained
            item = std::move(queue_.front());
            queue_.pop_front();
        }
        handle(item);
    }
}

void Server::handle(const WorkItem& item) {
    Request req;
    bool decoded = false;
    json::Value response = guarded(0, [&] {
        req = decode_request(item.payload);
        decoded = true;
        return json::Value();
    });
    if (decoded && is_admin(req.type)) {
        // A generation change can take a full rebuild (compact); it runs
        // on the admin thread so this lane goes straight back to requests.
        // The item was admitted against queue_capacity and still counts
        // against it while it waits in the backlog.
        {
            std::lock_guard<std::mutex> lk(queue_mutex_);
            admin_queue_.push_back(AdminItem{item.conn, std::move(req)});
        }
        admin_cv_.notify_one();
        return;
    }
    if (decoded) response = guarded(req.id, [&] { return execute(req); });
    write_response(item.conn, response);
    // Shutdown stops *after* its own response is on the wire, so the
    // requesting client always sees the acknowledgement.
    if (decoded && req.type == MsgType::Shutdown) stop();
}

// -- admin thread ------------------------------------------------------------

void Server::admin_loop() {
    for (;;) {
        AdminItem item;
        {
            std::unique_lock<std::mutex> lk(queue_mutex_);
            admin_cv_.wait(lk, [this] { return !admin_queue_.empty() || lanes_done_; });
            if (admin_queue_.empty()) return; // lanes gone and backlog drained
            item = std::move(admin_queue_.front());
            admin_queue_.pop_front();
        }
        write_response(item.conn, guarded(item.req.id, [&] { return execute(item.req); }));
    }
}

json::Value Server::execute(const Request& req) {
    // Sessionless handlers pin registry_.current() for the call; session
    // handlers use the generation their session pinned at open. A
    // concurrent generation flip never waits for either.
    switch (req.type) {
    case MsgType::Hello: return ok_response(req.id, req.type, handle_hello());
    case MsgType::Ping: {
        json::Value r;
        r["echo"] = req.text;
        return ok_response(req.id, req.type, std::move(r));
    }
    case MsgType::Query: return ok_response(req.id, req.type, handle_query(req));
    case MsgType::SessionOpen: return ok_response(req.id, req.type, handle_session_open(req));
    case MsgType::SessionClose: {
        registry_.close(req.session);
        json::Value r;
        r["closed"] = req.session;
        return ok_response(req.id, req.type, std::move(r));
    }
    case MsgType::SessionList: return ok_response(req.id, req.type, handle_session_list());
    case MsgType::Associate: return ok_response(req.id, req.type, handle_associate(req));
    case MsgType::WhatIf: return ok_response(req.id, req.type, handle_whatif(req));
    case MsgType::Posture: return ok_response(req.id, req.type, handle_posture(req));
    case MsgType::FlowAnalyze: return ok_response(req.id, req.type, handle_flow(req));
    case MsgType::Metrics: return ok_response(req.id, req.type, handle_metrics(req));
    case MsgType::FleetAnalyze: return ok_response(req.id, req.type, handle_fleet(req));
    case MsgType::SnapshotSwap: return ok_response(req.id, req.type, handle_swap(req));
    case MsgType::DeltaApply: return ok_response(req.id, req.type, handle_delta_apply(req));
    case MsgType::Compact: return ok_response(req.id, req.type, handle_compact(req));
    case MsgType::Shutdown: {
        json::Value r;
        r["stopping"] = true;
        return ok_response(req.id, req.type, std::move(r));
    }
    }
    throw ProtocolError(ErrorCode::Internal, "unhandled message type");
}

// -- handlers ----------------------------------------------------------------

json::Value Server::handle_hello() {
    const std::shared_ptr<const Generation> gen = registry_.current();
    json::Value result;
    result["server"] = "cybok-serve";
    result["version"] = std::string(core::version());
    result["protocol"] = std::uint64_t{kProtocolVersion};
    result["generation"] = gen->id;
    result["source"] = gen->source;
    const kb::Corpus& corpus = gen->engine->corpus();
    json::Value shape;
    shape["patterns"] = corpus.patterns().size();
    shape["weaknesses"] = corpus.weaknesses().size();
    shape["vulnerabilities"] = corpus.vulnerabilities().size();
    result["corpus"] = std::move(shape);
    result["open_sessions"] = registry_.stats().open_sessions;
    result["max_frame_bytes"] = options_.max_frame_bytes;
    return result;
}

json::Value Server::handle_query(const Request& req) {
    const std::shared_ptr<const Generation> gen = registry_.current();
    const search::QueryEngine& engine = gen->engine->query();
    std::vector<search::VectorClass> classes;
    if (req.cls == "pattern")
        classes = {search::VectorClass::AttackPattern};
    else if (req.cls == "weakness")
        classes = {search::VectorClass::Weakness};
    else if (req.cls == "vulnerability")
        classes = {search::VectorClass::Vulnerability};
    else
        classes = {search::VectorClass::AttackPattern, search::VectorClass::Weakness,
                   search::VectorClass::Vulnerability};
    json::Array hits;
    for (const search::VectorClass cls : classes) {
        const std::vector<search::Match> matches = engine.query_text(req.text, cls);
        const std::size_t n = std::min(req.limit, matches.size());
        for (std::size_t i = 0; i < n; ++i) {
            const search::Match& m = matches[i];
            json::Value hit;
            hit["class"] = search::vector_class_name(m.cls);
            hit["id"] = m.id;
            hit["title"] = m.title;
            hit["score"] = m.score;
            hit["via"] = search::match_via_name(m.via);
            if (m.severity >= 0.0) hit["severity"] = m.severity;
            hits.push_back(std::move(hit));
        }
    }
    json::Value result;
    result["count"] = hits.size();
    result["hits"] = std::move(hits);
    return result;
}

json::Value Server::handle_fleet(const Request& req) {
    analysis::FleetOptions options;
    options.systems = req.systems;
    options.base_seed = req.seed;
    options.components = req.components;
    // A server lane is already one of N concurrent workers; fanning each
    // fleet request across the full machine would oversubscribe it.
    options.threads = 1;
    std::string_view csv = req.domains;
    while (!csv.empty()) {
        const std::size_t comma = csv.find(',');
        const std::string_view name = csv.substr(0, comma);
        if (!name.empty()) {
            const std::optional<synth::ZooDomain> d = synth::parse_zoo_domain(name);
            if (!d)
                throw ProtocolError(ErrorCode::BadRequest,
                                    "unknown zoo domain: " + std::string(name));
            options.domains.push_back(*d);
        }
        if (comma == std::string_view::npos) break;
        csv.remove_prefix(comma + 1);
    }
    const std::shared_ptr<const Generation> gen = registry_.current();
    return analysis::analyze_fleet(gen->engine->query(), options).to_json();
}

json::Value Server::handle_session_open(const Request& req) {
    const std::string id = registry_.open(req.model_dsl); // serve.session.open fires inside

    const std::shared_ptr<ServeSession> session = registry_.find(id);
    json::Value result;
    result["session"] = id;
    result["generation"] = session->generation();
    result["materialized"] = session->materialized();
    return result;
}

json::Value Server::handle_session_list() {
    json::Array rows;
    for (const SessionInfo& info : registry_.list()) {
        json::Value row;
        row["session"] = info.id;
        row["generation"] = info.generation;
        row["materialized"] = info.materialized;
        row["requests"] = info.requests;
        rows.push_back(std::move(row));
    }
    json::Value result;
    result["count"] = rows.size();
    result["sessions"] = std::move(rows);
    return result;
}

json::Value Server::handle_associate(const Request& req) {
    const std::shared_ptr<ServeSession> session = registry_.find(req.session);
    session->count_request();
    ServeSession::AnalysisGuard guard(*session);
    const search::AssociationMap& assoc = guard->associations();
    json::Array rows;
    for (const search::AssociationMap::TableRow& row : assoc.attribute_table()) {
        json::Value r;
        r["attribute"] = row.attribute;
        r["attack_patterns"] = row.attack_patterns;
        r["weaknesses"] = row.weaknesses;
        r["vulnerabilities"] = row.vulnerabilities;
        rows.push_back(std::move(r));
    }
    json::Value result;
    result["rows"] = std::move(rows);
    result["attack_patterns"] = assoc.total(search::VectorClass::AttackPattern);
    result["weaknesses"] = assoc.total(search::VectorClass::Weakness);
    result["vulnerabilities"] = assoc.total(search::VectorClass::Vulnerability);
    result["total"] = assoc.total();
    return result;
}

json::Value Server::handle_whatif(const Request& req) {
    model::SystemModel candidate;
    try {
        candidate = model::parse_dsl(req.model_dsl);
    } catch (const Error& e) {
        throw ProtocolError(ErrorCode::ModelInvalid,
                            std::string("candidate model rejected: ") + e.what());
    }
    const std::shared_ptr<ServeSession> session = registry_.find(req.session);
    session->count_request();
    // A commit mutates session state, so the COW fork must happen first —
    // the shared base analysis is never committed to.
    if (req.commit) registry_.materialize(*session);
    ServeSession::AnalysisGuard guard(*session);
    const analysis::WhatIfResult r = guard->propose(candidate);
    json::Value result;
    result["verdict"] = analysis::verdict_name(r.comparison.verdict);
    result["delta_total"] = r.comparison.delta_total;
    json::Array rows;
    for (const analysis::PostureComparison::Row& row : r.comparison.rows) {
        json::Value c;
        c["component"] = row.component;
        c["delta_patterns"] = row.delta_patterns;
        c["delta_weaknesses"] = row.delta_weaknesses;
        c["delta_vulnerabilities"] = row.delta_vulnerabilities;
        rows.push_back(std::move(c));
    }
    result["rows"] = std::move(rows);
    result["after_total"] = r.after_associations.total();
    result["committed"] = req.commit;
    if (req.commit) (void)guard->commit(std::move(candidate));
    return result;
}

json::Value Server::handle_posture(const Request& req) {
    const std::shared_ptr<ServeSession> session = registry_.find(req.session);
    session->count_request();
    ServeSession::AnalysisGuard guard(*session);
    const analysis::SecurityPosture& posture = guard->posture();
    json::Array rows;
    for (const analysis::ComponentPosture& p : posture.components)
        rows.push_back(posture_row(p));
    json::Value result;
    result["components"] = std::move(rows);
    result["total_vectors"] = posture.total_vectors();
    return result;
}

json::Value Server::handle_flow(const Request& req) {
    const std::shared_ptr<ServeSession> session = registry_.find(req.session);
    session->count_request();
    ServeSession::AnalysisGuard guard(*session);
    // The session caches the FlowResult and re-analyzes incrementally
    // across whatif commits, so repeated flow.analyze calls are cheap.
    return guard->flow().to_json();
}

json::Value Server::handle_metrics(const Request& req) {
    json::Value result;
    if (!req.session.empty()) {
        const std::shared_ptr<ServeSession> session = registry_.find(req.session);
        ServeSession::AnalysisGuard guard(*session);
        result["session"] = req.session;
        result["assoc"] = guard->assoc_metrics().to_json();
        return result;
    }
    json::Value server;
    server["connections_accepted"] = stats_.connections_accepted.load();
    server["connections_open"] = stats_.connections_open.load();
    server["requests_received"] = stats_.requests_received.load();
    server["responses_sent"] = stats_.responses_sent.load();
    server["overload_rejections"] = stats_.overload_rejections.load();
    server["bad_frames"] = stats_.bad_frames.load();
    server["error_responses"] = stats_.error_responses.load();
    server["write_failures"] = stats_.write_failures.load();
    result["server"] = std::move(server);
    const RegistryStats reg = registry_.stats();
    json::Value registry;
    registry["open_sessions"] = reg.open_sessions;
    registry["peak_sessions"] = reg.peak_sessions;
    registry["total_opened"] = reg.total_opened;
    registry["session_limit_rejections"] = reg.session_limit_rejections;
    registry["swaps"] = reg.swaps;
    registry["deltas_applied"] = reg.deltas_applied;
    registry["compactions"] = reg.compactions;
    registry["compaction_failures"] = reg.compaction_failures;
    registry["current_generation"] = reg.current_generation;
    registry["current_segments"] = reg.current_segments;
    result["registry"] = std::move(registry);
    result["assoc"] = registry_.aggregate_metrics().to_json();
    return result;
}

json::Value Server::handle_swap(const Request& req) {
    const std::uint64_t previous = registry_.current()->id;
    const std::uint64_t generation = registry_.swap(req.snapshot);
    json::Value result;
    result["generation"] = generation;
    result["previous"] = previous;
    result["source"] = req.snapshot;
    return result;
}

json::Value Server::handle_delta_apply(const Request& req) {
    const std::uint64_t previous = registry_.current()->id;
    const std::uint64_t generation = registry_.apply_delta(req.delta);
    json::Value result;
    result["generation"] = generation;
    result["previous"] = previous;
    result["source"] = req.delta;
    // The apply succeeded, so the live generation is the segmented one we
    // just installed (admin requests serialize on the registry).
    const std::shared_ptr<const Generation> gen = registry_.current();
    if (gen->engine->segmented != nullptr) {
        const search::DeltaApplyMetrics& m = gen->engine->segmented->apply_metrics();
        json::Value applied;
        applied["records"] = m.report.total();
        applied["segment_docs"] = m.segment_docs;
        applied["segments"] = m.segments;
        applied["apply_ns"] = m.apply_ns;
        result["applied"] = std::move(applied);
    }
    return result;
}

json::Value Server::handle_compact(const Request& /*req*/) {
    const std::uint64_t previous = registry_.current()->id;
    const std::uint64_t generation = registry_.compact();
    json::Value result;
    result["generation"] = generation;
    result["previous"] = previous;
    result["folded"] = generation != previous;
    return result;
}

// -- response writing --------------------------------------------------------

void Server::write_response(const std::shared_ptr<Connection>& conn,
                            const json::Value& response) {
    if (response.is_object() && !response.get_bool("ok", true)) ++stats_.error_responses;
    std::lock_guard<std::mutex> lk(conn->write_mutex);
    if (conn->dead.load(std::memory_order_acquire)) {
        ++stats_.write_failures;
        return;
    }
    try {
        CYBOK_FAULT_POINT("serve.response.write", IoError("injected: response write failed"));
    } catch (const Error&) {
        // Degradation contract: the request already executed; the response
        // is abandoned and the connection closed (the client sees EOF and
        // retries against a live connection).
        conn->dead.store(true, std::memory_order_release);
        ++stats_.write_failures;
        return;
    }
    const std::string frame = encode_frame(response);
    std::size_t sent = 0;
    while (sent < frame.size()) {
        // MSG_NOSIGNAL: a dead peer yields EPIPE, not SIGPIPE.
        const ssize_t n =
            ::send(conn->fd, frame.data() + sent, frame.size() - sent, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR) continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK) {
                // Nonblocking fd with a full send buffer: wait for
                // writability instead of spinning.
                pollfd pfd{conn->fd, POLLOUT, 0};
                (void)::poll(&pfd, 1, 1000);
                continue;
            }
            conn->dead.store(true, std::memory_order_release);
            ++stats_.write_failures;
            return;
        }
        sent += static_cast<std::size_t>(n);
    }
    ++stats_.responses_sent;
}

} // namespace cybok::serve
