// serve_analyst and serve_feed: the in-process serve::Server driven over
// loopback by serve::BlockingClient connections, one thread each.
#include <algorithm>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <thread>

#include "kb/serialize.hpp"
#include "model/dsl.hpp"
#include "serve/client.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace cybok;

ServeSetup::~ServeSetup() {
    if (server) {
        server->stop();
        server->wait();
    }
}

std::unique_ptr<ServeSetup> start_server(const Inputs& in) {
    auto s = std::make_unique<ServeSetup>();
    s->corpus = std::make_unique<kb::Corpus>(kb::load_corpus(in.corpus()));
    s->engine = core::make_shared_engine(*s->corpus, engine_options(in.snapshot()));
    serve::ServerOptions o;
    o.lanes = kLanes;
    s->server = std::make_unique<serve::Server>(s->engine, model::load_dsl(in.base_model()), o);
    s->server->start();
    return s;
}

std::unique_ptr<ServeSetup> setup_serve(const Inputs& in, Result& r) {
    std::unique_ptr<ServeSetup> s;
    std::vector<double> setups;
    for (std::size_t rep = 0; rep < kSetupRepeats; ++rep) {
        s.reset();
        const Clock::time_point t0 = Clock::now();
        s = start_server(in);
        setups.push_back(seconds_since(t0));
        if (!s->engine->query().build_metrics().from_snapshot)
            r.wrong("serve set-up rebuilt the engine instead of restarting from the snapshot");
    }
    r.metric("setup_s", percentile(setups, 0.5), "s");
    r.note(describe("setup_s", percentile(setups, 0.5), "s", setups.size()));
    return s;
}

namespace {

serve::Request query_req(const std::string& text, std::size_t limit, const std::string& cls = "") {
    serve::Request q;
    q.type = serve::MsgType::Query;
    q.text = text;
    q.limit = limit;
    q.cls = cls;
    return q;
}

serve::Request session_req(serve::MsgType type, const std::string& session) {
    serve::Request q;
    q.type = type;
    q.session = session;
    return q;
}

/// The response body with session and generation ids removed, as bytes —
/// what must repeat exactly between the warm-up pass and the timed runs.
void strip_ids(json::Value& v) {
    if (v.is_object()) {
        json::Object& o = v.as_object();
        o.erase("session");
        o.erase("generation");
        o.erase("closed");
        for (auto& [k, child] : o) strip_ids(child);
    } else if (v.is_array()) {
        for (json::Value& child : v.as_array()) strip_ids(child);
    }
}
std::string normalized(const serve::Response& resp) {
    json::Value body = resp.body;
    strip_ids(body);
    return hex_digest(json::dump(body));
}

bool has_hit(const serve::Response& resp, const std::string& id) {
    if (!resp.ok || !resp.body.contains("hits")) return false;
    for (const json::Value& h : resp.body.at("hits").as_array())
        if (h.get_string("id") == id) return true;
    return false;
}

/// Run one script on `client`. Queries use pool entries `picks`. With
/// `record`, each normalized response is stored; with `expect`, each must
/// equal the stored one (queries always compare against `pool_expect`);
/// with neither, outputs are not checked.
void run_script(serve::BlockingClient& client, const Script& script,
                const std::vector<PoolQuery>& pool, const std::vector<std::size_t>& picks,
                const std::vector<std::string>* expect, std::vector<std::string>* record,
                const std::vector<std::string>& pool_expect, AnalystSamples& s, Result& r,
                std::mutex& r_mutex) {
    std::string session;
    std::size_t qi = 0;
    for (std::size_t k = 0; k < script.requests.size(); ++k) {
        serve::Request req = script.requests[k];
        std::size_t pool_index = 0;
        if (req.type == serve::MsgType::Query) {
            pool_index = picks[qi++];
            req.text = pool[pool_index].text;
            req.limit = pool[pool_index].limit;
        } else if (req.type != serve::MsgType::SessionOpen) {
            req.session = session;
        }
        ++s.ops.attempted;
        const Clock::time_point t0 = Clock::now();
        const serve::Response resp = client.call(req);
        const double ms = ms_since(t0);
        if (!resp.ok) {
            ++(resp.error_code == "overloaded" ? s.ops.refused : s.ops.failed);
            std::lock_guard<std::mutex> lk(r_mutex);
            r.note("request failed: " + resp.error_code + " " + resp.error_message);
            if (req.type == serve::MsgType::SessionOpen) return;
            continue;
        }
        ++s.completed;
        if (req.type == serve::MsgType::SessionOpen) session = resp.body.get_string("session");
        if (req.type == serve::MsgType::Query) s.query.push_back(ms);
        if (req.type == serve::MsgType::WhatIf) s.whatif.push_back(ms);
        // The first, full associate of each session: own-model sessions
        // compute it; overlays read the shared base analysis.
        if (req.type == serve::MsgType::Associate && script.own_model) s.associate.push_back(ms);
        if (s.bodies.size() < 64) s.bodies.push_back(resp.body);

        if (expect == nullptr && record == nullptr) continue;
        const std::string got = normalized(resp);
        if (req.type != serve::MsgType::Query && record != nullptr) {
            (*record)[k] = got;
            continue;
        }
        const std::string& want =
            req.type == serve::MsgType::Query ? pool_expect[pool_index] : (*expect)[k];
        if (got != want) {
            std::lock_guard<std::mutex> lk(r_mutex);
            r.wrong(std::string(serve::message_type_name(req.type)) +
                    " response differs from the warm-up pass");
        }
    }
}

/// Run `body` on its own thread; an escaped exception is a failed
/// operation, never a terminate().
std::thread guarded(Result& r, std::mutex& r_mutex, std::function<void()> body) {
    return std::thread([&r, &r_mutex, body = std::move(body)] {
        try {
            body();
        } catch (const std::exception& e) {
            std::lock_guard<std::mutex> lk(r_mutex);
            ++r.ops.failed;
            r.note(std::string("connection failed: ") + e.what());
        }
    });
}

} // namespace

Script make_script(const Inputs& in, std::size_t i) {
    Script s;
    serve::Request open;
    open.type = serve::MsgType::SessionOpen;
    s.own_model = i % 4 != 3;
    if (s.own_model) open.model_dsl = util::read_file(in.script(i, "own"));
    s.requests.push_back(open);
    s.requests.push_back(session_req(serve::MsgType::Associate, ""));
    s.requests.push_back(session_req(serve::MsgType::FlowAnalyze, ""));
    s.requests.push_back(session_req(serve::MsgType::Posture, ""));
    for (std::size_t q = 0; q < kAnalystQueriesPerScript; ++q)
        s.requests.push_back(query_req("", 0)); // drawn from the pool per run
    serve::Request a = session_req(serve::MsgType::WhatIf, "");
    a.model_dsl = util::read_file(in.script(i, "a"));
    s.requests.push_back(a);
    serve::Request b = session_req(serve::MsgType::WhatIf, "");
    b.model_dsl = util::read_file(in.script(i, "b"));
    b.commit = true;
    s.requests.push_back(b);
    s.requests.push_back(session_req(serve::MsgType::FlowAnalyze, ""));
    s.requests.push_back(session_req(serve::MsgType::SessionClose, ""));
    return s;
}

std::vector<std::size_t> draw_picks(Rng& rng, std::size_t pool_size) {
    std::vector<std::size_t> picks;
    for (std::size_t q = 0; q < kAnalystQueriesPerScript; ++q)
        picks.push_back(static_cast<std::size_t>(rng.uniform(0, pool_size - 1)));
    return picks;
}

// -- serve_analyst ---------------------------------------------------------------

AnalystSamples analyst_wire(const Args& args, const Inputs& in, std::uint16_t port, Result& r,
                            bool check, double seconds) {
    const std::vector<PoolQuery> pool = load_query_pool(in);
    std::vector<Script> scripts;
    for (std::size_t i = 0; i < 2 * kAnalystScriptsPerConn; ++i)
        scripts.push_back(make_script(in, i));
    std::mutex r_mutex;

    // Untimed warm-up pass: record every pool query's and every script
    // request's normalized response.
    std::vector<std::string> pool_expect(pool.size());
    std::vector<std::vector<std::string>> script_expect(scripts.size());
    if (check) {
        std::string warm_digest;
        serve::BlockingClient client("127.0.0.1", port);
        for (std::size_t p = 0; p < pool.size(); ++p) {
            const serve::Response resp = client.call(query_req(pool[p].text, pool[p].limit));
            if (!resp.ok) r.wrong("warm-up query failed: " + resp.error_code);
            pool_expect[p] = normalized(resp);
            warm_digest += pool_expect[p];
        }
        Rng rng(args.seed);
        AnalystSamples warm;
        for (std::size_t i = 0; i < scripts.size(); ++i) {
            script_expect[i].assign(scripts[i].requests.size(), "");
            run_script(client, scripts[i], pool, draw_picks(rng, pool.size()), nullptr,
                       &script_expect[i], pool_expect, warm, r, r_mutex);
            for (const std::string& d : script_expect[i]) warm_digest += d;
        }
        if (warm.ops.bad() != 0) r.wrong("warm-up pass had failed requests");
        r.digest = hex_digest(warm_digest);
    }

    // Timed: two closed-loop connections, each cycling its own scripts.
    std::vector<AnalystSamples> samples(2);
    const Clock::time_point start = Clock::now();
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < 2; ++c) {
        threads.push_back(guarded(r, r_mutex, [&, c] {
            serve::BlockingClient client("127.0.0.1", port);
            Rng rng(args.seed * 101 + c);
            for (std::size_t n = 0; seconds_since(start) < seconds; ++n) {
                const std::size_t i = c * kAnalystScriptsPerConn + n % kAnalystScriptsPerConn;
                run_script(client, scripts[i], pool, draw_picks(rng, pool.size()),
                           check ? &script_expect[i] : nullptr, nullptr, pool_expect, samples[c],
                           r, r_mutex);
            }
        }));
    }
    for (std::thread& t : threads) t.join();

    AnalystSamples all;
    all.elapsed_s = seconds_since(start);
    for (AnalystSamples& s : samples) {
        all.query.insert(all.query.end(), s.query.begin(), s.query.end());
        all.associate.insert(all.associate.end(), s.associate.begin(), s.associate.end());
        all.whatif.insert(all.whatif.end(), s.whatif.begin(), s.whatif.end());
        for (json::Value& b : s.bodies) all.bodies.push_back(std::move(b));
        all.completed += s.completed;
        all.ops.merge(s.ops);
    }
    // Wrong outputs were already counted through r.wrong(); fold the rest.
    r.ops.attempted += all.ops.attempted;
    r.ops.failed += all.ops.failed;
    r.ops.refused += all.ops.refused;
    return all;
}

json::Value server_metrics(std::uint16_t port) {
    serve::BlockingClient client("127.0.0.1", port);
    serve::Request m;
    m.type = serve::MsgType::Metrics;
    const serve::Response resp = client.call(m);
    if (!resp.ok) throw std::runtime_error("metrics request failed: " + resp.error_message);
    return resp.body;
}

void run_serve_analyst(const Args& args, const Inputs& in, Result& r) {
    const std::unique_ptr<ServeSetup> setup = setup_serve(in, r);
    const std::uint16_t port = setup->server->port();
    const AnalystSamples all = analyst_wire(args, in, port, r, true, args.seconds);

    const json::Value& assoc = server_metrics(port).at("assoc");
    const double hits = assoc.get_number("cache_hits");
    const double lookups = hits + assoc.get_number("cache_misses");
    r.note(describe("session_cache_hit_rate", hits / std::max(1.0, lookups), "ratio",
                    static_cast<std::size_t>(lookups)));

    const double rps = static_cast<double>(all.completed) / all.elapsed_s;
    const Series query{"query", all.query};
    r.metric("throughput_per_s", rps, "1/s");
    r.metric("latency_ms", query.median(), "ms");
    r.note(describe("requests_per_s", rps, "req/s", all.completed));
    for (double q : {0.5, 0.99}) r.note(query.describe(q));
    for (double q : {0.5, 0.9}) r.note(Series{"associate", all.associate}.describe(q));
    for (double q : {0.5, 0.9}) r.note(Series{"whatif", all.whatif}.describe(q));
}

// -- serve_feed ------------------------------------------------------------------

FeedSamples feed_wire(const Args& args, const Inputs& in, std::uint16_t port, Result& r,
                      double seconds) {
    const std::vector<PoolQuery> pool = load_query_pool(in);
    const std::vector<Probe> probes = load_probes(in);
    FeedSamples out;

    std::mutex mu;
    std::condition_variable cv;
    std::vector<Clock::time_point> fleet_starts; // guarded by mu
    bool done = false;                           // guarded by mu
    OpCounts fleet_ops, query_ops, admin_ops;
    std::vector<OpenLoopSample> qs;
    std::string feed_digest;
    std::mutex r_mutex;
    auto fail = [&](const std::string& why) {
        std::lock_guard<std::mutex> lk(r_mutex);
        r.wrong(why);
    };

    const Clock::time_point start = Clock::now();
    const Clock::time_point deadline =
        start + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));

    // (a) fleet.analyze back to back.
    std::thread fleet = guarded(r, r_mutex, [&] {
        struct Done {
            std::mutex& mu;
            std::condition_variable& cv;
            bool& done;
            ~Done() {
                std::lock_guard<std::mutex> lk(mu);
                done = true;
                cv.notify_all();
            }
        } mark{mu, cv, done};
        serve::BlockingClient client("127.0.0.1", port);
        for (std::size_t n = 0; Clock::now() < deadline; ++n) {
            serve::Request req;
            req.type = serve::MsgType::FleetAnalyze;
            req.systems = kFeedFleetSystems;
            req.components = kZooComponents;
            req.seed = fleet_base_seed(args.seed, n);
            const Clock::time_point t0 = Clock::now();
            {
                std::lock_guard<std::mutex> lk(mu);
                fleet_starts.push_back(t0);
            }
            cv.notify_all();
            ++fleet_ops.attempted;
            const serve::Response resp = client.call(req);
            if (!resp.ok) {
                ++(resp.error_code == "overloaded" ? fleet_ops.refused : fleet_ops.failed);
                continue;
            }
            out.fleet_ms.push_back(ms_since(t0));
            if (resp.body.get_int("systems") != static_cast<std::int64_t>(kFeedFleetSystems) ||
                resp.body.get_int("failed") != 0)
                fail("fleet.analyze ranked a failed or short batch");
            out.fleet_systems += kFeedFleetSystems;
        }
    });

    // (b) open-loop queries, timed from their due time.
    std::thread queries = guarded(r, r_mutex, [&] {
        serve::BlockingClient client("127.0.0.1", port);
        Rng rng(args.seed * 977 + 3);
        for (std::size_t i = 0;; ++i) {
            const Clock::time_point due =
                start + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(static_cast<double>(i) / kFeedQueryRate));
            if (due >= deadline) break;
            std::this_thread::sleep_until(due);
            const PoolQuery& q = pool[static_cast<std::size_t>(rng.uniform(0, pool.size() - 1))];
            OpenLoopSample s;
            s.due_s = std::chrono::duration<double>(due - start).count();
            s.sent_s = seconds_since(start);
            ++query_ops.attempted;
            const serve::Response resp = client.call(query_req(q.text, q.limit));
            s.done_s = seconds_since(start);
            if (!resp.ok) {
                ++(resp.error_code == "overloaded" ? query_ops.refused : query_ops.failed);
                continue;
            }
            if (resp.body.get_int("count") !=
                static_cast<std::int64_t>(resp.body.at("hits").as_array().size()))
                fail("query count does not match its hits");
            qs.push_back(s);
        }
    });

    // (c) the admin feed: tick k goes out kFeedTickOffsetS after fleet
    // request 4k+1 starts, so every generation flip meets an in-flight
    // fleet request at the same point.
    std::thread admin = guarded(r, r_mutex, [&] {
        serve::BlockingClient client("127.0.0.1", port);
        auto call = [&](const serve::Request& req) {
            ++admin_ops.attempted;
            serve::Response resp = client.call(req);
            if (!resp.ok)
                ++(resp.error_code == "overloaded" ? admin_ops.refused : admin_ops.failed);
            return resp;
        };
        for (std::size_t k = 0; k < probes.size(); ++k) {
            Clock::time_point fleet_start;
            {
                std::unique_lock<std::mutex> lk(mu);
                cv.wait(lk, [&] { return done || fleet_starts.size() > 4 * k + 1; });
                if (fleet_starts.size() <= 4 * k + 1) break;
                fleet_start = fleet_starts[4 * k + 1];
            }
            const Clock::time_point due =
                fleet_start + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(kFeedTickOffsetS));
            if (due >= deadline) break;
            std::this_thread::sleep_until(due);
            serve::Request d;
            d.type = serve::MsgType::DeltaApply;
            d.delta = in.delta(k);
            const Clock::time_point t0 = Clock::now();
            const serve::Response applied = call(d);
            if (!applied.ok) {
                fail("delta.apply " + std::to_string(k) + " failed: " + applied.error_message);
                break;
            }
            out.apply_ms.push_back(ms_since(t0));
            // Probe until the tick's record is returned.
            bool seen = false;
            for (int tries = 0; tries < 200 && !seen; ++tries) {
                seen = has_hit(call(query_req(probes[k].text, 5, "weakness")), probes[k].id);
                if (seen) out.visible_ms.push_back(ms_since(due));
            }
            if (!seen) fail("probe " + probes[k].id + " never became visible");
            if (k > 0 &&
                has_hit(call(query_req(probes[k - 1].text, 5, "weakness")), probes[k - 1].id))
                fail("probe " + probes[k - 1].id + " still visible after its withdrawal");
            if (k % 4 == 3) {
                serve::Request c;
                c.type = serve::MsgType::Compact;
                const Clock::time_point c0 = Clock::now();
                const serve::Response folded = call(c);
                out.compact_ms.push_back(ms_since(c0));
                if (!folded.ok) fail("compact failed: " + folded.error_message);
                if (!has_hit(call(query_req(probes[k].text, 5, "weakness")), probes[k].id))
                    fail("probe " + probes[k].id + " lost by compaction");
            }
            ++out.ticks;
            if (k < 2)
                feed_digest += probes[k].id + ":" +
                               std::to_string(applied.body.at("applied").get_int("records")) + ";";
        }
    });

    fleet.join();
    queries.join();
    admin.join();
    out.elapsed_s = seconds_since(start);
    for (const OpenLoopSample& s : qs) {
        out.query_ms.push_back(open_loop_latency_ms(s));
        out.lateness_ms.push_back(generator_lateness_ms(s));
    }
    r.ops.merge(fleet_ops);
    r.ops.merge(query_ops);
    r.ops.merge(admin_ops);
    r.digest = hex_digest(feed_digest);
    if (out.ticks < 2) r.wrong("fewer than 2 feed ticks completed");
    return out;
}

void run_serve_feed(const Args& args, const Inputs& in, Result& r) {
    const std::unique_ptr<ServeSetup> setup = setup_serve(in, r);
    const FeedSamples f = feed_wire(args, in, setup->server->port(), r, args.seconds);

    const Series query{"query", f.query_ms};
    const double sys_per_s = static_cast<double>(f.fleet_systems) / f.elapsed_s;
    r.metric("throughput_per_s", sys_per_s, "1/s");
    // The headline is the p90 from due time, which lands inside the drain
    // stalls: it counts how long queries wait when a generation flip
    // drains behind an in-flight fleet request. It sums over every stall
    // of the run; the p99 rests on the longest one or two and varied about
    // twice as much between runs.
    r.metric("latency_ms", percentile(f.query_ms, 0.9), "ms");
    r.note(describe("fleet_systems_per_s", sys_per_s, "systems/s", f.fleet_systems));
    for (double q : {0.5, 0.9, 0.99}) r.note(query.describe(q));
    r.note(describe("generator_lateness_p50_ms", percentile(f.lateness_ms, 0.5), "ms",
                    f.lateness_ms.size()));
    r.note(describe("generator_lateness_max_ms", percentile(f.lateness_ms, 1.0), "ms",
                    f.lateness_ms.size()));
    r.note(describe("delta_visible_p50_ms", percentile(f.visible_ms, 0.5), "ms",
                    f.visible_ms.size()));
    r.note(describe("delta_apply_p50_ms", percentile(f.apply_ms, 0.5), "ms", f.apply_ms.size()));
    r.note(describe("compact_p50_ms", percentile(f.compact_ms, 0.5), "ms", f.compact_ms.size()));
    r.note(describe("fleet_req_p50_ms", percentile(f.fleet_ms, 0.5), "ms", f.fleet_ms.size()));
}

} // namespace perfbench
