// Serve-layer tests: the session registry's copy-on-write overlays,
// admission control, and hot swap (a flip never waits for a pinned
// generation); the server end to end over real sockets (typed errors on
// the wire, pipelining, graceful shutdown); hot swap under load (zero
// lost in-flight requests); and every serve.* fault site forced to fire
// its documented degradation.
// The Serve* suite names put the concurrency tests in the CI tsan net.

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <functional>
#include <future>
#include <latch>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "analysis/fleet.hpp"
#include "kb/delta.hpp"
#include "model/dsl.hpp"
#include "serve/client.hpp"
#include "util/bytes.hpp"
#include "serve/server.hpp"
#include "synth/corpus_gen.hpp"
#include "synth/scada.hpp"
#include "util/fault.hpp"

using namespace cybok;
using namespace cybok::serve;

namespace {

/// Small corpus (a few hundred records) so server start is milliseconds.
const kb::Corpus& serve_corpus() {
    static const kb::Corpus corpus =
        synth::generate_corpus(synth::CorpusProfile::scaled(0.05, 42));
    return corpus;
}

std::shared_ptr<const core::SharedEngine> serve_engine() {
    static const std::shared_ptr<const core::SharedEngine> engine =
        core::make_shared_engine(serve_corpus(), core::SessionOptions{});
    return engine;
}

RegistryOptions small_registry(std::size_t max_sessions = 64) {
    RegistryOptions opts;
    opts.max_sessions = max_sessions;
    return opts;
}

/// A registry over the shared test engine and the centrifuge base model.
std::unique_ptr<SessionRegistry> make_registry(std::size_t max_sessions = 64) {
    return std::make_unique<SessionRegistry>(serve_engine(), synth::centrifuge_model(),
                                             small_registry(max_sessions));
}

/// Write a thawable engine snapshot to a temp path and return it.
std::string write_snapshot(const std::string& name) {
    const std::string path = (std::filesystem::temp_directory_path() / name).string();
    search::save_engine_snapshot(*serve_engine()->engine, path);
    return path;
}

/// A frozen one-record feed tick: a probe weakness whose vocabulary no
/// base query hits.
std::string probe_delta_bytes() {
    kb::CorpusDelta delta;
    kb::Weakness probe;
    probe.id = kb::WeaknessId{900001};
    probe.name = "Unverified glimmerwick frame origin";
    probe.description =
        "Relay accepts glimmerwick maintenance frames without verifying origin.";
    delta.weaknesses.push_back(std::move(probe));
    return kb::freeze_corpus_delta(delta);
}

/// Write the probe feed tick to a temp path and return it.
std::string write_probe_delta(const std::string& name) {
    const std::string path = (std::filesystem::temp_directory_path() / name).string();
    util::write_file(path, probe_delta_bytes());
    return path;
}

/// Every hit's id and exact score: equal strings mean identical answers.
std::string hits_fingerprint(const std::vector<search::Match>& hits) {
    std::ostringstream out;
    out << std::hexfloat;
    for (const search::Match& m : hits) out << m.id << ' ' << m.score << '\n';
    return out.str();
}

struct ServerFixture {
    explicit ServerFixture(ServerOptions options = {}) {
        options.port = 0; // ephemeral
        server = std::make_unique<Server>(serve_engine(), synth::centrifuge_model(),
                                          std::move(options));
        server->start();
    }
    ~ServerFixture() {
        server->stop();
        server->wait();
    }
    [[nodiscard]] BlockingClient connect() const {
        return BlockingClient("127.0.0.1", server->port());
    }
    std::unique_ptr<Server> server;
};

Request make_request(MsgType type) {
    Request req;
    req.type = type;
    return req;
}

} // namespace

// -- registry: copy-on-write overlays -----------------------------------------

TEST(ServeRegistry, OverlaySessionsShareTheBaseAnalysis) {
    auto registry = make_registry();
    const std::string a = registry->open("");
    const std::string b = registry->open("");
    EXPECT_FALSE(registry->find(a)->materialized());
    EXPECT_FALSE(registry->find(b)->materialized());
    // Both overlays read the same lazily computed base association map.
    std::size_t total_a = 0;
    {
        ServeSession::AnalysisGuard guard(*registry->find(a));
        total_a = guard->associations().total();
    }
    {
        ServeSession::AnalysisGuard guard(*registry->find(b));
        EXPECT_EQ(guard->associations().total(), total_a);
    }
}

TEST(ServeRegistry, MaterializeForksWithoutDisturbingTheBase) {
    auto registry = make_registry();
    const std::string cow = registry->open("");
    const std::string witness = registry->open("");
    std::size_t base_total = 0;
    {
        ServeSession::AnalysisGuard guard(*registry->find(witness));
        base_total = guard->associations().total();
    }
    // Fork + commit a hardened candidate on the COW session.
    const std::shared_ptr<ServeSession> session = registry->find(cow);
    registry->materialize(*session);
    EXPECT_TRUE(session->materialized());
    {
        ServeSession::AnalysisGuard guard(*session);
        (void)guard->commit(synth::centrifuge_model_hardened());
    }
    // The witness overlay still sees the untouched base model's map.
    ServeSession::AnalysisGuard guard(*registry->find(witness));
    EXPECT_EQ(guard->associations().total(), base_total);
    EXPECT_FALSE(registry->find(witness)->materialized());
}

TEST(ServeRegistry, OwnModelSessionsAreMaterializedFromBirth) {
    auto registry = make_registry();
    const std::string id = registry->open(model::to_dsl(synth::uav_model()));
    EXPECT_TRUE(registry->find(id)->materialized());
    ServeSession::AnalysisGuard guard(*registry->find(id));
    EXPECT_EQ(guard->model().name(), synth::uav_model().name());
}

TEST(ServeRegistry, BadModelDslIsATypedRejection) {
    auto registry = make_registry();
    try {
        (void)registry->open("this is not the DSL");
        FAIL() << "expected ProtocolError";
    } catch (const ProtocolError& e) {
        EXPECT_EQ(e.code(), ErrorCode::ModelInvalid);
    }
    EXPECT_EQ(registry->stats().open_sessions, 0u); // nothing leaked
}

TEST(ServeRegistry, SessionLimitIsEnforcedWithTypedRejection) {
    auto registry = make_registry(2);
    (void)registry->open("");
    (void)registry->open("");
    try {
        (void)registry->open("");
        FAIL() << "expected ProtocolError";
    } catch (const ProtocolError& e) {
        EXPECT_EQ(e.code(), ErrorCode::SessionLimit);
    }
    const RegistryStats stats = registry->stats();
    EXPECT_EQ(stats.open_sessions, 2u);
    EXPECT_EQ(stats.session_limit_rejections, 1u);
    // Closing frees capacity.
    registry->close("s-1");
    EXPECT_NO_THROW((void)registry->open(""));
}

TEST(ServeRegistry, UnknownSessionIsTyped) {
    auto registry = make_registry();
    try {
        (void)registry->find("s-404");
        FAIL() << "expected ProtocolError";
    } catch (const ProtocolError& e) {
        EXPECT_EQ(e.code(), ErrorCode::UnknownSession);
    }
    EXPECT_THROW(registry->close("s-404"), ProtocolError);
}

// -- registry: hot swap -------------------------------------------------------

TEST(ServeRegistry, SwapInstallsANewGenerationAndPinsOldSessions) {
    auto registry = make_registry();
    const std::string old_session = registry->open("");
    EXPECT_EQ(registry->find(old_session)->generation(), 1u);

    const std::string path = write_snapshot("serve_swap_gen2.snap");
    const std::uint64_t gen = registry->swap(path);
    EXPECT_EQ(gen, 2u);
    EXPECT_EQ(registry->current()->id, 2u);
    EXPECT_EQ(registry->current()->source, path);

    // The pre-swap session stays pinned to generation 1 and still answers.
    EXPECT_EQ(registry->find(old_session)->generation(), 1u);
    {
        ServeSession::AnalysisGuard guard(*registry->find(old_session));
        EXPECT_GT(guard->associations().total(), 0u);
    }
    // New sessions land on generation 2.
    const std::string fresh = registry->open("");
    EXPECT_EQ(registry->find(fresh)->generation(), 2u);
    std::filesystem::remove(path);
}

TEST(ServeRegistry, FailedSwapKeepsTheOldGenerationServing) {
    auto registry = make_registry();
    try {
        (void)registry->swap("/nonexistent/gen.snap");
        FAIL() << "expected ProtocolError";
    } catch (const ProtocolError& e) {
        EXPECT_EQ(e.code(), ErrorCode::SwapFailed);
    }
    EXPECT_EQ(registry->current()->id, 1u);
    EXPECT_NO_THROW((void)registry->open(""));
}

TEST(ServeRegistry, FlipDoesNotWaitForPinnedGeneration) {
    auto registry = make_registry();
    const std::string delta = write_probe_delta("serve_flip_pinned.delta");
    const std::string snapshot = write_snapshot("serve_flip_pinned.snap");
    // Pin a generation that only the pin keeps alive once the flips have
    // replaced it, rather than the shared test engine.
    ASSERT_EQ(registry->swap(snapshot), 2u);
    const auto answer = [](const Generation& gen) {
        return hits_fingerprint(gen.engine->query().query_text(
            "control network overflow", search::VectorClass::Weakness));
    };

    // A request in the middle of a query: it holds the live generation and
    // blocks on a latch until the flips are done.
    std::latch pinned(1);
    std::latch release(1);
    std::string before;
    std::string after;
    std::thread request([&] {
        const std::shared_ptr<const Generation> gen = registry->current();
        before = answer(*gen);
        pinned.count_down();
        release.wait();
        after = answer(*gen);
    });
    pinned.wait();

    // Each flip must return while the pin is held. Should one wait for the
    // pin, the pin is released, so the test fails instead of hanging.
    bool released = false;
    const auto returns_while_pinned = [&](const std::function<std::uint64_t()>& flip) {
        std::future<std::uint64_t> done = std::async(std::launch::async, flip);
        if (done.wait_for(std::chrono::seconds(10)) == std::future_status::ready) return true;
        if (!released) {
            released = true;
            release.count_down();
        }
        done.wait();
        return false;
    };
    EXPECT_TRUE(returns_while_pinned([&] { return registry->apply_delta(delta); }));
    EXPECT_TRUE(returns_while_pinned([&] { return registry->compact(); }));
    EXPECT_TRUE(returns_while_pinned([&] { return registry->swap(snapshot); }));
    EXPECT_EQ(registry->current()->id, 5u);

    if (!released) release.count_down();
    request.join();
    // The pinned generation answered the same before and after the flips.
    EXPECT_FALSE(before.empty());
    EXPECT_EQ(after, before);
    std::filesystem::remove(delta);
    std::filesystem::remove(snapshot);
}

TEST(ServeRegistry, AggregateMetricsCountsColdStartOncePerGeneration) {
    auto registry = make_registry();
    const std::string first = registry->open("");
    (void)registry->open("");
    (void)registry->open(model::to_dsl(synth::uav_model()));
    {
        // Associations are lazy; drive one so the aggregate has content.
        ServeSession::AnalysisGuard guard(*registry->find(first));
        (void)guard->associations().total();
    }
    const search::AssocMetrics total = registry->aggregate_metrics();
    // The shared test engine was built fresh (no snapshot), so shared
    // cold-start degradations must be zero — not multiplied per session.
    EXPECT_EQ(total.degrade.snapshot_fallbacks, 0u);
    EXPECT_GE(total.components, 1u);
}

// -- registry: concurrency (tsan) ---------------------------------------------

TEST(ServeConcurrency, ConcurrentOpenQueryCloseIsRaceFree) {
    auto registry = make_registry(256);
    std::atomic<int> failures{0};
    std::vector<std::thread> threads;
    threads.reserve(8);
    for (int t = 0; t < 8; ++t) {
        threads.emplace_back([&, t] {
            for (int i = 0; i < 12; ++i) {
                try {
                    const std::string id = registry->open("");
                    {
                        ServeSession::AnalysisGuard guard(*registry->find(id));
                        (void)guard->associations().total();
                    }
                    if ((t + i) % 2 == 0) registry->close(id);
                } catch (const Error&) {
                    ++failures;
                }
            }
        });
    }
    for (std::thread& t : threads) t.join();
    EXPECT_EQ(failures.load(), 0);
    const RegistryStats stats = registry->stats();
    EXPECT_EQ(stats.total_opened, 96u);
    EXPECT_EQ(stats.open_sessions, stats.total_opened - 48u);
}

TEST(ServeConcurrency, SwapUnderLoadLosesNoRequests) {
    auto registry = make_registry(256);
    const std::string path = write_snapshot("serve_swap_load.snap");
    std::atomic<bool> stop{false};
    std::atomic<std::uint64_t> completed{0};
    std::atomic<int> failures{0};
    std::vector<std::thread> workers;
    workers.reserve(4);
    for (int t = 0; t < 4; ++t) {
        workers.emplace_back([&] {
            while (!stop.load(std::memory_order_acquire)) {
                try {
                    // Pin a generation exactly as a server lane would, and
                    // run a query against it; the pin must always observe
                    // a fully formed generation.
                    const std::shared_ptr<const Generation> gen = registry->current();
                    const auto hits = gen->engine->engine->query_text(
                        "control network overflow", search::VectorClass::Weakness);
                    (void)hits;
                    ++completed;
                } catch (const Error&) {
                    ++failures;
                }
            }
        });
    }
    std::uint64_t swaps = 0;
    for (int i = 0; i < 5; ++i) {
        (void)registry->swap(path);
        ++swaps;
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    stop.store(true, std::memory_order_release);
    for (std::thread& t : workers) t.join();
    EXPECT_EQ(failures.load(), 0);
    EXPECT_GT(completed.load(), 0u);
    EXPECT_EQ(registry->stats().swaps, swaps);
    EXPECT_EQ(registry->current()->id, 1u + swaps);
    std::filesystem::remove(path);
}

// -- server: end to end over sockets ------------------------------------------

TEST(ServeServer, HelloPingQueryOverTheWire) {
    ServerFixture fixture;
    BlockingClient client = fixture.connect();

    const Response hello = client.call(make_request(MsgType::Hello));
    ASSERT_TRUE(hello.ok);
    EXPECT_EQ(hello.body.get_int("protocol"), kProtocolVersion);
    EXPECT_EQ(hello.body.get_int("generation"), 1);
    EXPECT_EQ(hello.body.at("corpus").get_int("patterns"),
              static_cast<std::int64_t>(serve_corpus().patterns().size()));

    Request ping = make_request(MsgType::Ping);
    ping.text = "hi";
    const Response pong = client.call(ping);
    ASSERT_TRUE(pong.ok);
    EXPECT_EQ(pong.body.get_string("echo"), "hi");

    Request query = make_request(MsgType::Query);
    query.text = "buffer overflow";
    query.limit = 3;
    const Response hits = client.call(query);
    ASSERT_TRUE(hits.ok);
    EXPECT_GT(hits.body.get_int("count"), 0);
}

TEST(ServeServer, SessionLifecycleAndWhatIfCommit) {
    ServerFixture fixture;
    BlockingClient client = fixture.connect();

    const Response open = client.call(make_request(MsgType::SessionOpen));
    ASSERT_TRUE(open.ok);
    const std::string sid = open.body.get_string("session");
    EXPECT_FALSE(open.body.get_bool("materialized"));

    Request assoc = make_request(MsgType::Associate);
    assoc.session = sid;
    const Response table = client.call(assoc);
    ASSERT_TRUE(table.ok);
    EXPECT_GT(table.body.get_int("total"), 0);

    Request whatif = make_request(MsgType::WhatIf);
    whatif.session = sid;
    whatif.model_dsl = model::to_dsl(synth::centrifuge_model_hardened());
    whatif.commit = true;
    const Response verdict = client.call(whatif);
    ASSERT_TRUE(verdict.ok);
    EXPECT_TRUE(verdict.body.get_bool("committed"));
    EXPECT_LE(verdict.body.get_int("delta_total"), 0); // hardening helps

    const Response list = client.call(make_request(MsgType::SessionList));
    ASSERT_TRUE(list.ok);
    EXPECT_EQ(list.body.get_int("count"), 1);
    EXPECT_TRUE(list.body.at("sessions").as_array()[0].get_bool("materialized"));

    Request close = make_request(MsgType::SessionClose);
    close.session = sid;
    ASSERT_TRUE(client.call(close).ok);
    const Response again = client.call(close);
    EXPECT_FALSE(again.ok);
    EXPECT_EQ(again.error_code, "unknown_session");
}

TEST(ServeServer, DeltaApplyMakesRecordsVisibleAndCompactKeepsThem) {
    ServerFixture fixture;
    BlockingClient client = fixture.connect();

    // One feed tick: a probe record whose vocabulary no base query hits.
    const std::string path = write_probe_delta("serve_tick.delta");

    Request query = make_request(MsgType::Query);
    query.text = "glimmerwick maintenance frames";
    query.cls = "weakness";
    EXPECT_EQ(client.call(query).body.get_int("count"), 0);

    Request apply = make_request(MsgType::DeltaApply);
    apply.delta = path;
    const Response applied = client.call(apply);
    ASSERT_TRUE(applied.ok);
    EXPECT_EQ(applied.body.get_int("generation"), 2);
    EXPECT_EQ(applied.body.at("applied").get_int("records"), 1);
    EXPECT_EQ(applied.body.at("applied").get_int("segments"), 1);

    // Staleness-to-visibility: the very next sessionless query sees it.
    const Response hit = client.call(query);
    ASSERT_TRUE(hit.ok);
    EXPECT_GT(hit.body.get_int("count"), 0);

    // Compaction folds the segment into a fresh sealed base generation
    // and the record survives the flip.
    const Response folded = client.call(make_request(MsgType::Compact));
    ASSERT_TRUE(folded.ok);
    EXPECT_TRUE(folded.body.get_bool("folded"));
    EXPECT_EQ(folded.body.get_int("generation"), 3);
    EXPECT_GT(client.call(query).body.get_int("count"), 0);

    // Compacting a sealed base is the identity: no generation flip.
    const Response noop = client.call(make_request(MsgType::Compact));
    ASSERT_TRUE(noop.ok);
    EXPECT_FALSE(noop.body.get_bool("folded"));
    EXPECT_EQ(noop.body.get_int("generation"), 3);

    std::filesystem::remove(path);
}

TEST(ServeServer, QueryIsAnsweredWhileAnAdminRequestRuns) {
    // One lane. A delta.apply whose path is a FIFO blocks in open() until
    // this test opens the write end, which it does only after the query
    // pipelined behind it has been answered. The query can only come back
    // first if the admin request runs off the request lane.
    const std::string fifo =
        (std::filesystem::temp_directory_path() /
         ("serve_admin_hold_" + std::to_string(::getpid()) + ".fifo"))
            .string();
    std::filesystem::remove(fifo);
    ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0);

    ServerOptions options;
    options.lanes = 1;
    ServerFixture fixture(options);
    BlockingClient client = fixture.connect();
    Request apply = make_request(MsgType::DeltaApply);
    apply.delta = fifo;
    client.send(std::move(apply));
    const std::int64_t apply_id = client.last_id();
    Request query = make_request(MsgType::Query);
    query.text = "buffer overflow";
    query.limit = 3;
    client.send(std::move(query));
    const std::int64_t query_id = client.last_id();

    std::future<Response> first = std::async(std::launch::async, [&] { return client.receive(); });
    const bool in_time = first.wait_for(std::chrono::seconds(10)) == std::future_status::ready;
    EXPECT_TRUE(in_time) << "the query waited behind the admin request";

    // Release the admin request: write the feed tick into the FIFO.
    const int fd = ::open(fifo.c_str(), O_WRONLY);
    ASSERT_GE(fd, 0);
    const std::string blob = probe_delta_bytes();
    EXPECT_EQ(::write(fd, blob.data(), blob.size()), static_cast<ssize_t>(blob.size()));
    ::close(fd);

    const Response r1 = first.get();
    const Response r2 = client.receive();
    EXPECT_EQ(r1.id, query_id);
    EXPECT_TRUE(r1.ok);
    EXPECT_EQ(r2.id, apply_id);
    ASSERT_TRUE(r2.ok) << r2.error_message;
    EXPECT_EQ(r2.body.get_int("generation"), 2);
    std::filesystem::remove(fifo);
}

TEST(ServeServer, EqualFleetRequestsAnswerByteEqual) {
    // PROTOCOL promises byte-deterministic fleet.analyze output: counts
    // (queries_run included) may not depend on which lane ran the request
    // or on what else shared the fleet's cache.
    ServerOptions options;
    options.lanes = 2;
    ServerFixture fixture(options);
    BlockingClient client = fixture.connect();
    for (int i = 0; i < 2; ++i) {
        Request fleet = make_request(MsgType::FleetAnalyze);
        fleet.systems = 6;
        fleet.components = 12;
        fleet.seed = 5;
        client.send(std::move(fleet));
    }
    const Response a = client.receive();
    const Response b = client.receive();
    ASSERT_TRUE(a.ok) << a.error_message;
    ASSERT_TRUE(b.ok) << b.error_message;
    EXPECT_EQ(json::dump(a.body), json::dump(b.body));
    EXPECT_GT(a.body.at("metrics").get_int("queries_run"), 0);
    EXPECT_LT(a.body.at("metrics").get_int("queries_run"),
              a.body.at("metrics").get_int("attributes"));

    // In process, the same counts at any thread count (`threads` itself
    // echoes the option).
    const auto counts = [](std::size_t threads) {
        analysis::FleetOptions fleet;
        fleet.systems = 6;
        fleet.components = 12;
        fleet.base_seed = 5;
        fleet.threads = threads;
        search::AssocMetrics m = analysis::analyze_fleet(serve_engine()->query(), fleet).metrics;
        m.threads = 1;
        return json::dump(m.to_json());
    };
    EXPECT_EQ(counts(4), counts(1));
}

TEST(ServeServer, SixtyFourConcurrentSessionsServeConcurrently) {
    ServerOptions options;
    options.registry.max_sessions = 128;
    ServerFixture fixture(options);

    // 8 client threads x 8 sessions each: open, then posture every one.
    std::atomic<int> failures{0};
    std::vector<std::thread> threads;
    threads.reserve(8);
    for (int t = 0; t < 8; ++t) {
        threads.emplace_back([&] {
            try {
                BlockingClient client = fixture.connect();
                std::vector<std::string> mine;
                for (int i = 0; i < 8; ++i) {
                    const Response open = client.call(make_request(MsgType::SessionOpen));
                    if (!open.ok) throw Error("open failed: " + open.error_message);
                    mine.push_back(open.body.get_string("session"));
                }
                for (const std::string& sid : mine) {
                    Request posture = make_request(MsgType::Posture);
                    posture.session = sid;
                    if (!client.call(posture).ok) throw Error("posture failed");
                }
            } catch (const Error&) {
                ++failures;
            }
        });
    }
    for (std::thread& t : threads) t.join();
    EXPECT_EQ(failures.load(), 0);
    BlockingClient client = fixture.connect();
    const Response list = client.call(make_request(MsgType::SessionList));
    ASSERT_TRUE(list.ok);
    EXPECT_EQ(list.body.get_int("count"), 64);
}

TEST(ServeServer, PipelinedRequestsAllComeBackCorrelated) {
    ServerFixture fixture;
    BlockingClient client = fixture.connect();
    constexpr int kInFlight = 32;
    for (int i = 0; i < kInFlight; ++i) {
        Request ping = make_request(MsgType::Ping);
        ping.text = "m" + std::to_string(i);
        client.send(std::move(ping));
    }
    std::set<std::int64_t> seen;
    for (int i = 0; i < kInFlight; ++i) {
        const Response resp = client.receive();
        EXPECT_TRUE(resp.ok);
        seen.insert(resp.id);
    }
    EXPECT_EQ(seen.size(), static_cast<std::size_t>(kInFlight)); // every id exactly once
}

TEST(ServeServer, BadFrameGetsTypedErrorThenConnectionCloses) {
    // Drive a framing violation through a server whose frame ceiling is
    // tiny: the oversized length prefix is a BadFrame on arrival.
    ServerOptions small;
    small.max_frame_bytes = 64;
    ServerFixture tiny(small);
    BlockingClient tiny_client = tiny.connect();
    Request big = make_request(MsgType::Ping);
    big.text = std::string(256, 'x');
    tiny_client.send(std::move(big));
    const Response err = tiny_client.receive();
    EXPECT_FALSE(err.ok);
    EXPECT_EQ(err.error_code, "bad_frame");
    // The server then closes the stream: the next receive sees EOF.
    EXPECT_THROW((void)tiny_client.receive(), IoError);
}

TEST(ServeServer, ZeroCapacityQueueShedsLoadWithTypedRejection) {
    ServerOptions options;
    options.queue_capacity = 0; // admission control in its tightest setting
    ServerFixture fixture(options);
    BlockingClient client = fixture.connect();
    client.send(make_request(MsgType::Ping));
    const Response resp = client.receive();
    EXPECT_FALSE(resp.ok);
    EXPECT_EQ(resp.error_code, "overloaded");
    EXPECT_GE(fixture.server->stats().overload_rejections.load(), 1u);
}

TEST(ServeServer, StopRightAfterStartAlwaysJoins) {
    // stop() races the lanes entering consume_loop: a lane that has just
    // found the queue empty must still see the stop, or wait() never joins.
    ServerOptions options;
    options.lanes = 2;
    for (int cycle = 0; cycle < 200; ++cycle) {
        Server server(serve_engine(), synth::centrifuge_model(), options);
        server.start();
        server.stop();
        std::future<void> joined = std::async(std::launch::async, [&server] { server.wait(); });
        if (joined.wait_for(std::chrono::seconds(10)) != std::future_status::ready) {
            ADD_FAILURE() << "wait() did not join after stop() in cycle " << cycle;
            server.stop(); // a second notify wakes the lane that slept through the first
            joined.wait();
            break;
        }
    }
}

TEST(ServeServer, GracefulShutdownAcknowledgesThenStops) {
    ServerFixture fixture;
    BlockingClient client = fixture.connect();
    const Response resp = client.call(make_request(MsgType::Shutdown));
    ASSERT_TRUE(resp.ok);
    EXPECT_TRUE(resp.body.get_bool("stopping"));
    fixture.server->wait();
    EXPECT_FALSE(fixture.server->running());
}

TEST(ServeConcurrency, HotSwapUnderLoadLosesNoInFlightRequests) {
    ServerOptions options;
    options.queue_capacity = 4096; // no overload shedding in this test
    ServerFixture fixture(options);
    const std::string path = write_snapshot("serve_e2e_swap.snap");

    // A pre-swap session must keep answering from its pinned generation.
    BlockingClient setup = fixture.connect();
    const Response open = setup.call(make_request(MsgType::SessionOpen));
    ASSERT_TRUE(open.ok);
    const std::string pinned = open.body.get_string("session");

    std::atomic<bool> stop{false};
    std::atomic<std::uint64_t> ok_count{0};
    std::atomic<int> failures{0};
    std::vector<std::thread> hammers;
    hammers.reserve(4);
    for (int t = 0; t < 4; ++t) {
        hammers.emplace_back([&] {
            try {
                BlockingClient client = fixture.connect();
                while (!stop.load(std::memory_order_acquire)) {
                    Request query = make_request(MsgType::Query);
                    query.text = "firmware tamper network";
                    query.limit = 2;
                    const Response resp = client.call(std::move(query));
                    if (resp.ok)
                        ++ok_count;
                    else
                        ++failures;
                }
            } catch (const Error&) {
                ++failures;
            }
        });
    }
    // Swap generations twice while the hammers run.
    for (int i = 0; i < 2; ++i) {
        Request swap = make_request(MsgType::SnapshotSwap);
        swap.snapshot = path;
        const Response resp = setup.call(std::move(swap));
        ASSERT_TRUE(resp.ok) << resp.error_message;
        std::this_thread::sleep_for(std::chrono::milliseconds(30));
    }
    stop.store(true, std::memory_order_release);
    for (std::thread& t : hammers) t.join();

    // Zero losses: every request either completed ok (against whichever
    // generation it pinned) — none vanished or failed.
    EXPECT_EQ(failures.load(), 0);
    EXPECT_GT(ok_count.load(), 0u);
    // The pre-swap session still answers, pinned to generation 1.
    Request posture = make_request(MsgType::Posture);
    posture.session = pinned;
    EXPECT_TRUE(setup.call(posture).ok);
    const Response hello = setup.call(make_request(MsgType::Hello));
    EXPECT_EQ(hello.body.get_int("generation"), 3);
    std::filesystem::remove(path);
}

// -- fault sites --------------------------------------------------------------

TEST(ServeFaults, FrameDecodeFaultIsTypedBadFrame) {
    util::FaultScope scope("serve.frame.decode");
    FrameDecoder decoder;
    decoder.feed(encode_frame(std::string_view("{}")));
    try {
        (void)decoder.next();
        FAIL() << "expected ProtocolError";
    } catch (const ProtocolError& e) {
        EXPECT_EQ(e.code(), ErrorCode::BadFrame);
    }
}

TEST(ServeFaults, RequestDecodeFaultIsTypedBadRequest) {
    util::FaultScope scope("serve.request.decode");
    try {
        (void)decode_request(R"({"type":"ping"})");
        FAIL() << "expected ProtocolError";
    } catch (const ProtocolError& e) {
        EXPECT_EQ(e.code(), ErrorCode::BadRequest);
    }
}

TEST(ServeFaults, SessionOpenFaultLeaksNoSession) {
    auto registry = make_registry();
    {
        util::FaultScope scope("serve.session.open");
        EXPECT_THROW((void)registry->open(""), Error);
    }
    EXPECT_EQ(registry->stats().open_sessions, 0u);
    EXPECT_NO_THROW((void)registry->open("")); // healthy after disarm
}

TEST(ServeFaults, SwapLoadFaultKeepsOldGeneration) {
    auto registry = make_registry();
    const std::string path = write_snapshot("serve_fault_swap.snap");
    {
        util::FaultScope scope("serve.swap.load");
        try {
            (void)registry->swap(path);
            FAIL() << "expected ProtocolError";
        } catch (const ProtocolError& e) {
            EXPECT_EQ(e.code(), ErrorCode::SwapFailed);
        }
    }
    EXPECT_EQ(registry->current()->id, 1u);
    EXPECT_EQ(registry->swap(path), 2u); // healthy after disarm
    std::filesystem::remove(path);
}

TEST(ServeFaults, AcceptFaultDropsOneConnectionListenerSurvives) {
    ServerFixture fixture;
    {
        util::FaultScope scope("serve.accept=nth:1");
        // The first accept is injected to fail: that connection is dropped
        // (the client sees EOF on its first read), later ones are fine.
        try {
            BlockingClient dropped = fixture.connect();
            (void)dropped.call(make_request(MsgType::Ping));
            // Acceptable alternate outcome: connect raced ahead of the
            // injected accept; either way the server must still serve.
        } catch (const Error&) {
            // expected: server dropped the connection
        }
        BlockingClient healthy = fixture.connect();
        EXPECT_TRUE(healthy.call(make_request(MsgType::Ping)).ok);
    }
}

TEST(ServeFaults, ResponseWriteFaultClosesConnectionAfterExecution) {
    ServerFixture fixture;
    BlockingClient client = fixture.connect();
    ASSERT_TRUE(client.call(make_request(MsgType::Ping)).ok);
    {
        util::FaultScope scope("serve.response.write=nth:1");
        client.send(make_request(MsgType::Ping));
        // The request executed but its response was abandoned; the server
        // closes the connection, so the client sees EOF.
        EXPECT_THROW((void)client.receive(), IoError);
    }
    EXPECT_GE(fixture.server->stats().write_failures.load(), 1u);
    BlockingClient fresh = fixture.connect();
    EXPECT_TRUE(fresh.call(make_request(MsgType::Ping)).ok);
}
