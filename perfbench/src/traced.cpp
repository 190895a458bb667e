// The traced run: every workload's prepared inputs replayed through the
// library's public entry points, one call per span, on this thread.
//
// Each replay unit (a fleet system, an analyst script, a feed tick, a
// report export) runs twice — tracer off, tracer on, alternating which
// goes first — so trace_overhead_frac compares the same calls with and
// without spans. Layer samples come from the traced pass only. Serve
// residuals compare a short untraced wire pass against the in-process
// replay of the same request script.
#include <algorithm>
#include <filesystem>
#include <functional>
#include <set>

#include "analysis/fleet.hpp"
#include "analysis/posture.hpp"
#include "dashboard/export_bundle.hpp"
#include "dashboard/fleet_view.hpp"
#include "dashboard/vector_graph.hpp"
#include "graph/graphml.hpp"
#include "harness/alloc.hpp"
#include "harness/trace.hpp"
#include "kb/delta.hpp"
#include "kb/serialize.hpp"
#include "model/dsl.hpp"
#include "search/association.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace cybok;
namespace fs = std::filesystem;

namespace {

/// Per-layer samples (one per unit or call) and the replay's bookkeeping.
struct Layers {
    Tracer tracer;
    std::map<std::string, std::vector<double>> samples;
    bool recording = true; ///< false on the untraced pass

    void add(const std::string& name, double v) {
        if (recording) samples[name].push_back(v);
    }
    [[nodiscard]] double median(const std::string& name) const {
        const auto it = samples.find(name);
        return it == samples.end() ? 0.0 : percentile(it->second, 0.5);
    }
    [[nodiscard]] double sum(const std::string& name) const {
        double s = 0;
        if (const auto it = samples.find(name); it != samples.end())
            for (double v : it->second) s += v;
        return s;
    }
};

/// Run units 0.. until `budget_s` has passed (at least `min_units`, at
/// most `max_units`, whole cycles of `cycle` units), each once untraced
/// and once traced, under a root span `root`. Returns {untraced unit ms,
/// traced unit ms}.
///
/// The first call on shared state (a cold page, a lazily built view) costs
/// more, so which pass goes first alternates — also across units that
/// recur every 4 (the feed compacts on every 4th tick) — and replays end
/// on a whole cycle so each pass goes first equally often.
std::pair<std::vector<double>, std::vector<double>> replay(
    Layers& L, const std::string& root, double budget_s, std::size_t min_units,
    std::size_t max_units, std::size_t cycle, const std::function<void(std::size_t)>& unit) {
    std::vector<double> off, on;
    const Clock::time_point start = Clock::now();
    for (std::size_t u = 0; u < max_units && (u < min_units || u % cycle != 0 ||
                                              seconds_since(start) < budget_s);
         ++u) {
        for (int pass = 0; pass < 2; ++pass) {
            const bool traced = (pass == 0) == ((u + u / 4) % 2 == 1);
            L.tracer.set_enabled(traced);
            L.recording = traced;
            Span s(L.tracer, root, u);
            unit(u);
            (traced ? on : off).push_back(s.close());
        }
    }
    L.tracer.set_enabled(true);
    L.recording = true;
    return {off, on};
}

/// Per-unit residual of every `root` span: its duration minus the sum of
/// its direct children, in ms.
std::vector<double> unit_residuals(const Tracer& t, const std::string& root) {
    const std::vector<Tracer::Record>& recs = t.records();
    std::vector<double> child_sum(recs.size(), 0.0);
    for (const Tracer::Record& r : recs)
        if (r.parent >= 0) child_sum[static_cast<std::size_t>(r.parent)] += r.end_us - r.start_us;
    std::vector<double> out;
    for (std::size_t i = 0; i < recs.size(); ++i)
        if (recs[i].name == root)
            out.push_back(residual(recs[i].end_us - recs[i].start_us, {child_sum[i]}) / 1e3);
    return out;
}

double sum_of(const std::vector<double>& v) {
    double s = 0;
    for (double x : v) s += x;
    return s;
}

void overhead(Result& r, const Layers& L, const std::string& workload, const std::string& root,
              const std::pair<std::vector<double>, std::vector<double>>& passes) {
    const double off = sum_of(passes.first);
    const double on = sum_of(passes.second);
    r.metric(workload + ".trace_overhead_frac", off > 0 ? on / off - 1.0 : 0.0, "ratio");
    r.metric(workload + ".residual_ms", percentile(unit_residuals(L.tracer, root), 0.5), "ms");
    r.note(describe(workload + ".units", static_cast<double>(passes.second.size()), "count",
                    passes.second.size()));
}

core::SessionOptions serve_session_options() {
    // What the registry gives each serve session: one inline lane and a
    // small per-session cache.
    core::SessionOptions o;
    o.assoc.threads = 1;
    o.assoc.cache_capacity = 1 << 10;
    return o;
}

const std::vector<search::VectorClass> kClasses = {search::VectorClass::AttackPattern,
                                                   search::VectorClass::Weakness,
                                                   search::VectorClass::Vulnerability};

// -- set-up ---------------------------------------------------------------------

struct Engines {
    FreshEngine fresh;                             ///< fleet / report
    std::unique_ptr<kb::Corpus> snap_corpus;       ///< serve replay (snapshot restart)
    std::shared_ptr<const core::SharedEngine> snap;
};

Engines trace_setup(Layers& L, const Inputs& in) {
    Engines e;
    for (std::size_t rep = 0; rep < kSetupRepeats; ++rep) {
        e.fresh.engine.reset();
        e.fresh.corpus.reset();
        {
            Span s(L.tracer, "kb.load_corpus", rep);
            e.fresh.corpus = std::make_unique<kb::Corpus>(kb::load_corpus(in.corpus()));
            L.add("kb.corpus_load_ms", s.close());
        }
        {
            Span s(L.tracer, "core.make_shared_engine", rep);
            e.fresh.engine = core::make_shared_engine(*e.fresh.corpus, engine_options(""));
            L.add("core.engine_ready_ms", s.close());
        }
        e.snap.reset();
        e.snap_corpus = std::make_unique<kb::Corpus>(kb::load_corpus(in.corpus()));
        {
            Span s(L.tracer, "core.make_shared_engine.snapshot", rep);
            e.snap = core::make_shared_engine(*e.snap_corpus, engine_options(in.snapshot()));
            L.add("core.snapshot_restart_ms", s.close());
        }
        {
            serve::ServerOptions o;
            o.lanes = kLanes;
            Span s(L.tracer, "serve.Server.start", rep);
            serve::Server server(e.snap, model::load_dsl(in.base_model()), o);
            server.start();
            L.add("serve.start_ms", s.close());
            server.stop();
            server.wait();
        }
    }
    return e;
}

// -- fleet_batch -------------------------------------------------------------------

void trace_fleet(Layers& L, Result& r, const Args& args, const core::SharedEngine& shared,
                 double budget) {
    const search::QueryEngine& engine = shared.query();
    const std::vector<synth::ZooDomain>& domains = synth::all_zoo_domains();
    const std::uint64_t base = fleet_base_seed(args.seed, 0);
    std::set<std::string> seen_keys;
    std::vector<double> children_ms; // per traced system: the layers analyze_fleet runs

    const auto passes =
        replay(L, "fleet.system", budget, 8, kFleetSystemsPerBatch, 8, [&](std::size_t i) {
            synth::ZooConfig c;
            c.domain = domains[i % domains.size()];
            c.seed = base + i;
            c.components = kZooComponents;
            synth::ZooSystem sys;
            double layer_ms = 0;
            {
                Span s(L.tracer, "synth.generate_zoo_system", i);
                sys = synth::generate_zoo_system(c);
                layer_ms += s.close();
                L.add("synth.zoo_gen_ms", s.close());
            }
            double query_ms = 0, distinct_ms = 0, matches = 0, queries = 0, allocs = 0, bytes = 0,
                   postings = 0, blocks = 0;
            for (const model::Component& comp : sys.model.components()) {
                if (!comp.id.valid()) continue;
                for (const model::Attribute& attr : comp.attributes) {
                    std::vector<std::string> tokens;
                    {
                        Span s(L.tracer, "text.attribute_tokens", i);
                        tokens = search::QueryEngine::attribute_tokens(attr);
                        L.add("text.attr_tokens_us", s.close() * 1e3);
                    }
                    std::string key = std::to_string(static_cast<int>(attr.kind)) + '|' +
                                      (attr.platform ? attr.value : std::string()) + '|';
                    for (const std::string& t : tokens) key += t + ' ';
                    search::AssocMetrics m;
                    const alloc::Scope scope;
                    double ms = 0;
                    {
                        Span s(L.tracer, "search.query_attribute", i);
                        matches += static_cast<double>(engine.query_attribute(attr, &m).size());
                        ms = s.close();
                    }
                    const alloc::Counts a = scope.delta();
                    allocs += static_cast<double>(a.allocations);
                    bytes += static_cast<double>(a.bytes);
                    query_ms += ms;
                    queries += 1;
                    postings += static_cast<double>(m.kernel_postings);
                    blocks += static_cast<double>(m.kernel_blocks_decoded);
                    if (L.recording && seen_keys.insert(key).second) distinct_ms += ms;
                }
            }
            layer_ms += query_ms;
            L.add("search.attr_query_ms", query_ms);
            L.add("search.distinct_query_ms", distinct_ms);
            L.add("search.attr_queries", queries);
            L.add("search.matches", matches);
            L.add("search.allocs", allocs);
            L.add("search.alloc_mb_per_system", bytes / 1e6);
            L.add("search.kernel_postings", postings);
            L.add("search.kernel_blocks_decoded", blocks);

            search::AssociationMap assoc;
            {
                // The map the downstream layers read; analyze_fleet builds the
                // same one from the queries above, so it is not a fleet child.
                Span s(L.tracer, "search.Associator.associate", i);
                search::AssocOptions o;
                o.threads = 1;
                o.cache_enabled = false;
                search::Associator associator(engine, o);
                assoc = associator.associate(sys.model);
            }
            {
                Span s(L.tracer, "analysis.compute_posture", i);
                (void)analysis::compute_posture(sys.model, assoc);
                layer_ms += s.close();
                L.add("analysis.posture_ms", s.close());
            }
            flow::FlowResult fr;
            {
                Span s(L.tracer, "flow.analyze", i);
                fr = flow::analyze(sys.model, assoc, &sys.hazards);
                layer_ms += s.close();
                L.add("flow.analyze_ms", s.close());
            }
            L.add("flow.taint_iterations", static_cast<double>(fr.counts.taint_iterations));
            L.add("flow.edges_traversed", static_cast<double>(fr.counts.edges_traversed));
            double paths_ms = 0, found = 0, calls = 0, truncated = 0;
            for (const flow::ComponentFlow& cf : fr.components) {
                if (!cf.hazard_linked) continue;
                Span s(L.tracer, "analysis.attack_paths", i);
                const analysis::AttackPathsResult ap =
                    analysis::attack_paths(sys.model, assoc, cf.component);
                paths_ms += s.close();
                found += static_cast<double>(ap.size());
                truncated += ap.truncated ? 1 : 0;
                calls += 1;
            }
            layer_ms += paths_ms;
            L.add("analysis.attack_paths_ms", paths_ms);
            L.add("analysis.paths_found", found);
            L.add("analysis.attack_path_calls", calls);
            L.add("analysis.paths_truncated", truncated);
            if (L.recording) children_ms.push_back(layer_ms);
        });
    overhead(r, L, "fleet_batch", "fleet.system", passes);

    // The same systems through analyze_fleet on one lane: its wall per
    // system minus the layers above is analyze_fleet's own cost
    // (building the association map, ranking, aggregation).
    const std::size_t n = passes.second.size();
    analysis::FleetOptions o;
    o.systems = n;
    o.components = kZooComponents;
    o.base_seed = base;
    o.threads = 1;
    analysis::FleetResult res;
    {
        Span s(L.tracer, "analysis.analyze_fleet", 0);
        res = analysis::analyze_fleet(engine, o);
        const double per_system = s.close() / static_cast<double>(n);
        r.metric("analysis.fleet_residual_ms",
                 residual(per_system, {sum_of(children_ms) / static_cast<double>(n)}), "ms");
    }
    r.metric("analysis.fleet_queries_per_system",
             static_cast<double>(res.metrics.queries_run) / static_cast<double>(n), "count");
    {
        Span s(L.tracer, "dashboard.render_fleet_table", 0);
        (void)dashboard::render_fleet_table(res);
        r.metric("dashboard.fleet_table_ms", s.close(), "ms");
    }
    r.ops.attempted += n + res.systems;
    r.ops.failed += res.failed;

    // Determinism oracle, and the digest the end-to-end run prints.
    o.systems = kFleetSystemsPerBatch;
    const std::string one = analysis::analyze_fleet(engine, o).fingerprint();
    o.threads = kLanes;
    if (analysis::analyze_fleet(engine, o).fingerprint() != one)
        r.wrong("fleet fingerprint differs between 1 lane and 2 lanes");
    r.note("digest.fleet_batch " + hex_digest(one));
    r.digest = hex_digest(one);

    const double q = L.sum("search.attr_queries");
    r.metric("synth.zoo_gen_ms", L.median("synth.zoo_gen_ms"), "ms");
    r.metric("text.attr_tokens_us", L.median("text.attr_tokens_us"), "us");
    // Means, not medians: distinct keys cluster in the first systems, and
    // the gap between the two is what a fleet-wide cache could save.
    const double systems = static_cast<double>(n);
    r.metric("search.attr_query_ms", L.sum("search.attr_query_ms") / systems, "ms");
    r.metric("search.distinct_query_ms", L.sum("search.distinct_query_ms") / systems, "ms");
    r.metric("search.attr_queries", L.median("search.attr_queries"), "count");
    r.metric("search.repeat_share", q > 0 ? 1.0 - static_cast<double>(seen_keys.size()) / q : 0.0,
             "ratio");
    r.metric("search.matches", L.median("search.matches"), "count");
    r.metric("search.allocs_per_query", q > 0 ? L.sum("search.allocs") / q : 0.0, "count");
    r.metric("search.alloc_mb_per_system", L.median("search.alloc_mb_per_system"), "MB");
    r.metric("search.kernel_postings", L.median("search.kernel_postings"), "count");
    r.metric("search.kernel_blocks_decoded", L.median("search.kernel_blocks_decoded"), "count");
    r.metric("analysis.posture_ms", L.median("analysis.posture_ms"), "ms");
    r.metric("analysis.attack_paths_ms", L.median("analysis.attack_paths_ms"), "ms");
    r.metric("analysis.paths_found", L.median("analysis.paths_found"), "count");
    const double calls = L.sum("analysis.attack_path_calls");
    r.metric("analysis.paths_truncated_share",
             calls > 0 ? L.sum("analysis.paths_truncated") / calls : 0.0, "ratio");
    r.metric("flow.analyze_ms", L.median("flow.analyze_ms"), "ms");
    r.metric("flow.taint_iterations", L.median("flow.taint_iterations"), "count");
    r.metric("flow.edges_traversed", L.median("flow.edges_traversed"), "count");
}

// -- serve_analyst -------------------------------------------------------------------

void trace_analyst(Layers& L, Result& r, const Args& args, const Inputs& in,
                   const std::shared_ptr<const core::SharedEngine>& engine, double budget) {
    const std::vector<PoolQuery> pool = load_query_pool(in);
    const model::SystemModel base_model = model::load_dsl(in.base_model());
    const core::SessionOptions so = serve_session_options();
    // The server's shared base analysis, warm as after the first overlay.
    core::AnalysisSession base(base_model, engine, so);
    (void)base.associations();

    // Connection 0's scripts with connection 0's query picks: the request
    // script the wire pass sends first.
    std::vector<Script> scripts;
    for (std::size_t i = 0; i < kAnalystScriptsPerConn; ++i) scripts.push_back(make_script(in, i));
    Rng rng(args.seed * 101);
    std::vector<std::vector<std::size_t>> picks;
    std::map<std::size_t, std::size_t> assoc_totals; // script index -> in-process total

    const auto passes = replay(L, "serve_analyst.script", budget, 8, 64, 8, [&](std::size_t u) {
        const Script& script = scripts[u % scripts.size()];
        if (picks.size() <= u) picks.push_back(draw_picks(rng, pool.size()));
        // The frames the wire run sends for this script, decoded.
        std::size_t qi = 0;
        for (serve::Request req : script.requests) {
            if (req.type == serve::MsgType::Query) req.text = pool[picks[u][qi++]].text;
            const std::string frame = serve::encode_frame(json::dump(serve::encode_request(req)));
            Span s(L.tracer, "serve.decode", u);
            serve::FrameDecoder d;
            d.feed(frame);
            (void)serve::decode_request(*d.next());
            L.add("serve.decode_us", s.close() * 1e3);
        }
        const std::string& own_dsl = script.requests.front().model_dsl;
        std::vector<const serve::Request*> whatifs;
        for (const serve::Request& req : script.requests)
            if (req.type == serve::MsgType::WhatIf) whatifs.push_back(&req);

        std::unique_ptr<core::AnalysisSession> mine;
        core::AnalysisSession* sess = &base;
        if (script.own_model) {
            model::SystemModel m;
            {
                Span s(L.tracer, "model.parse_dsl", u);
                m = model::parse_dsl(own_dsl);
                L.add("model.parse_dsl_ms", s.close());
            }
            Span s(L.tracer, "core.AnalysisSession", u);
            mine = std::make_unique<core::AnalysisSession>(std::move(m), engine, so);
            sess = mine.get();
        }
        {
            Span s(L.tracer, "core.associations", u);
            const search::AssociationMap& a = sess->associations();
            (void)a.attribute_table();
            if (mine) L.add("core.associate_ms", s.close());
            if (L.recording) assoc_totals[u % scripts.size()] = a.total();
        }
        {
            Span s(L.tracer, "core.flow", u);
            (void)sess->flow();
            L.add("core.flow_ms", s.close());
        }
        {
            Span s(L.tracer, "core.posture", u);
            (void)sess->posture();
            L.add("core.posture_ms", s.close());
        }
        for (std::size_t q = 0; q < kAnalystQueriesPerScript; ++q) {
            const PoolQuery& pq = pool[picks[u][q]];
            double request_ms = 0;
            for (search::VectorClass cls : kClasses) {
                Span s(L.tracer, "search.query_text", u);
                const std::size_t built = engine->query().query_text(pq.text, cls).size();
                const double ms = s.close();
                request_ms += ms;
                L.add(std::string("search.query_text_") +
                          std::string(search::vector_class_name(cls)) + "_us",
                      ms * 1e3);
                L.add("search.query_hits_built", static_cast<double>(built));
                L.add("search.query_hits_used", static_cast<double>(std::min(built, pq.limit)));
            }
            L.add("search.query_request_ms", request_ms);
        }
        for (const serve::Request* w : whatifs) {
            const bool commit = w->commit;
            model::SystemModel cand;
            double ms = 0;
            {
                Span s(L.tracer, "model.parse_dsl", u);
                cand = model::parse_dsl(w->model_dsl);
                ms += s.close();
                L.add("model.parse_dsl_ms", s.close());
            }
            if (commit && !mine) {
                // The copy-on-write fork a committing overlay takes.
                Span s(L.tracer, "core.AnalysisSession.fork", u);
                mine = std::make_unique<core::AnalysisSession>(base_model, engine, so);
                sess = mine.get();
                ms += s.close();
            }
            {
                Span s(L.tracer, "core.propose", u);
                (void)sess->propose(cand);
                ms += s.close();
                L.add("core.whatif_ms", s.close());
            }
            if (commit) {
                Span s(L.tracer, "core.commit", u);
                (void)sess->commit(std::move(cand));
                ms += s.close();
                L.add("core.commit_ms", s.close());
            }
            L.add("core.whatif_request_ms", ms);
        }
        {
            Span s(L.tracer, "core.flow", u);
            (void)sess->flow();
            L.add("core.flow_ms", s.close());
        }
    });
    overhead(r, L, "serve_analyst", "serve_analyst.script", passes);
    r.ops.attempted += passes.first.size() + passes.second.size();

    // The same script shape over the wire (untraced), for the residuals and
    // the server-side counters.
    std::unique_ptr<ServeSetup> server = start_server(in);
    {
        // The wire `associate` totals must equal the in-process ones.
        serve::BlockingClient client("127.0.0.1", server->server->port());
        for (const auto& [i, total] : assoc_totals) {
            serve::Request open = scripts[i].requests.front();
            const serve::Response opened = client.call(open);
            serve::Request assoc;
            assoc.type = serve::MsgType::Associate;
            assoc.session = opened.body.get_string("session");
            const serve::Response got = client.call(assoc);
            serve::Request close;
            close.type = serve::MsgType::SessionClose;
            close.session = assoc.session;
            (void)client.call(close);
            r.ops.attempted += 3;
            if (!opened.ok || !got.ok ||
                got.body.get_int("total") != static_cast<std::int64_t>(total))
                r.wrong("wire associate total differs from the in-process session for script " +
                        std::to_string(i));
        }
    }
    const AnalystSamples wire = analyst_wire(args, in, server->server->port(), r, false, budget);
    const json::Value metrics = server_metrics(server->server->port());
    for (const json::Value& body : wire.bodies) {
        Span s(L.tracer, "serve.encode", 0);
        (void)serve::encode_frame(json::dump(body));
        L.add("serve.encode_us", s.close() * 1e3);
    }

    for (search::VectorClass cls : kClasses) {
        const std::string name =
            std::string("search.query_text_") + std::string(search::vector_class_name(cls)) + "_us";
        r.metric(name, L.median(name), "us");
    }
    const double built = L.sum("search.query_hits_built");
    r.metric("search.query_hits_built", L.median("search.query_hits_built"), "count");
    r.metric("search.query_hit_use_frac", built > 0 ? L.sum("search.query_hits_used") / built : 0.0,
             "ratio");
    const json::Value& assoc = metrics.at("assoc");
    const double hits = assoc.get_number("cache_hits");
    const double lookups = hits + assoc.get_number("cache_misses");
    r.metric("search.session_cache_hit_rate", lookups > 0 ? hits / lookups : 0.0, "ratio");
    r.metric("search.session_cache_lookups", lookups, "count");
    r.metric("serve.peak_sessions",
             static_cast<double>(metrics.at("registry").get_int("peak_sessions")), "count");
    r.metric("model.parse_dsl_ms", L.median("model.parse_dsl_ms"), "ms");
    for (const char* n : {"core.associate_ms", "core.whatif_ms", "core.commit_ms", "core.flow_ms",
                          "core.posture_ms"})
        r.metric(n, L.median(n), "ms");
    r.metric("serve.decode_us", L.median("serve.decode_us"), "us");
    r.metric("serve.encode_us", L.median("serve.encode_us"), "us");
    r.metric("serve.residual_query_ms",
             residual(percentile(wire.query, 0.5), {L.median("search.query_request_ms")}), "ms");
    r.metric("serve.residual_associate_ms",
             residual(percentile(wire.associate, 0.5), {L.median("core.associate_ms")}), "ms");
    r.metric("serve.residual_whatif_ms",
             residual(percentile(wire.whatif, 0.5), {L.median("core.whatif_request_ms")}), "ms");
}

// -- serve_feed --------------------------------------------------------------------

void trace_feed(Layers& L, Result& r, const Args& args, const Inputs& in,
                const std::shared_ptr<const core::SharedEngine>& engine, double budget) {
    const std::vector<PoolQuery> pool = load_query_pool(in);
    const model::SystemModel base_model = model::load_dsl(in.base_model());
    std::vector<const model::Attribute*> attrs;
    for (const model::Component& c : base_model.components())
        for (const model::Attribute& a : c.attributes)
            if (c.id.valid() && attrs.size() < 16) attrs.push_back(&a);

    // Both passes of tick k apply delta k to the same generation; the
    // traced pass's result is the base of tick k + 1.
    std::shared_ptr<const core::SharedEngine> current = engine;
    std::shared_ptr<const core::SharedEngine> traced_next;
    std::size_t current_tick = 0;
    const auto passes = replay(L, "serve_feed.tick", budget, 8, kFeedDeltas, 8, [&](std::size_t k) {
        if (k != current_tick) {
            current = traced_next;
            current_tick = k;
        }
        const std::string blob = util::read_file(in.delta(k));
        kb::CorpusDelta delta;
        {
            Span s(L.tracer, "kb.thaw_corpus_delta", k);
            delta = kb::thaw_corpus_delta(blob, in.delta(k));
            L.add("kb.delta_thaw_ms", s.close());
        }
        std::shared_ptr<const core::SharedEngine> next;
        try {
            Span s(L.tracer, "core.apply_corpus_delta", k);
            next = core::apply_corpus_delta(current, delta);
            L.add("core.delta_apply_ms", s.close());
        } catch (const std::exception& e) {
            throw std::runtime_error("feed tick " + std::to_string(k) +
                                     (L.recording ? " (traced)" : " (untraced)") + ": " + e.what());
        }
        for (std::size_t q = 0; q < 4; ++q)
            for (search::VectorClass cls : kClasses) {
                Span s(L.tracer, "search.query_text", k);
                (void)next->query().query_text(pool[(k * 4 + q) % pool.size()].text, cls);
                L.add("search.query_text_segmented_us", s.close() * 1e3);
            }
        double segments = 0, masked = 0;
        for (const model::Attribute* a : attrs) {
            search::AssocMetrics m;
            Span s(L.tracer, "search.query_attribute", k);
            (void)next->query().query_attribute(*a, &m);
            segments += static_cast<double>(m.kernel_segments_visited);
            masked += static_cast<double>(m.kernel_tombstones_masked);
        }
        L.add("search.kernel_segments_visited", segments);
        L.add("search.kernel_tombstones_masked", masked);
        if (k % 4 == 3) {
            Span s(L.tracer, "core.compact", k);
            next = core::compact(next);
            L.add("core.compact_ms", s.close());
        }
        if (L.recording) traced_next = next;
    });
    overhead(r, L, "serve_feed", "serve_feed.tick", passes);
    r.ops.attempted += passes.first.size() + passes.second.size();

    // The feed over the wire (untraced): the drain wait is what the
    // delta.apply round trip spends beyond thawing and applying.
    std::unique_ptr<ServeSetup> server = start_server(in);
    Result wire_r;
    const FeedSamples wire = feed_wire(args, in, server->server->port(), wire_r, budget * 2);
    const json::Value metrics = server_metrics(server->server->port());
    r.ops.merge(wire_r.ops);
    if (!wire_r.correct) {
        for (const std::string& l : wire_r.lines) r.note(l);
        r.correct = false;
    }
    r.note("digest.serve_feed " + wire_r.digest);

    for (const char* n : {"kb.delta_thaw_ms", "core.delta_apply_ms", "core.compact_ms"})
        r.metric(n, L.median(n), "ms");
    r.metric("search.query_text_segmented_us", L.median("search.query_text_segmented_us"), "us");
    r.metric("search.kernel_segments_visited", L.median("search.kernel_segments_visited"), "count");
    r.metric("search.kernel_tombstones_masked", L.median("search.kernel_tombstones_masked"),
             "count");
    r.metric("serve.flip_wait_ms",
             residual(percentile(wire.apply_ms, 0.5),
                      {L.median("kb.delta_thaw_ms"), L.median("core.delta_apply_ms")}),
             "ms");
    r.metric("serve.current_segments",
             static_cast<double>(metrics.at("registry").get_int("current_segments")), "count");
    r.metric("serve.error_responses",
             static_cast<double>(metrics.at("server").get_int("error_responses")), "count");
    r.metric("serve.overload_rejections",
             static_cast<double>(metrics.at("server").get_int("overload_rejections")), "count");
}

// -- report_export -----------------------------------------------------------------

void trace_report(Layers& L, Result& r, const Inputs& in,
                  const std::shared_ptr<const core::SharedEngine>& engine) {
    const synth::ZooSystem zoo = synth::generate_zoo_system(report_config());
    const model::SystemModel model = model::load_dsl(in.report_model());
    const std::string dir = in.scratch("trace-bundle");
    core::SessionOptions so;
    so.assoc.threads = kLanes;
    std::unique_ptr<core::AnalysisSession> last;

    const auto passes = replay(L, "report_export.report", 0, 2, 2, 2, [&](std::size_t u) {
        fs::remove_all(dir);
        fs::create_directories(dir);
        std::unique_ptr<core::AnalysisSession> session;
        {
            Span s(L.tracer, "core.AnalysisSession", u);
            session = std::make_unique<core::AnalysisSession>(model, engine, so);
        }
        {
            Span s(L.tracer, "core.associations", u);
            (void)session->associations();
            L.add("core.report_associate_ms", s.close());
        }
        {
            const alloc::Scope scope;
            Span s(L.tracer, "dashboard.export_bundle", u);
            (void)session->export_bundle(dir);
            L.add("dashboard.export_ms", s.close());
            L.add("dashboard.alloc_mb", static_cast<double>(scope.delta().bytes) / 1e6);
        }
        graph::PropertyGraph vg;
        {
            Span s(L.tracer, "dashboard.build_vector_graph", u);
            vg = dashboard::build_vector_graph(session->model(), session->associations(),
                                               session->corpus());
            L.add("dashboard.vector_graph_ms", s.close());
        }
        {
            Span s(L.tracer, "graph.save_graphml", u);
            graph::save_graphml(dir + "/vector_graph.graphml", vg);
            L.add("graph.graphml_ms", s.close());
        }
        if (L.recording) last = std::move(session);
    });
    overhead(r, L, "report_export", "report_export.report", passes);
    r.ops.attempted += passes.first.size() + passes.second.size();

    double bytes = 0;
    for (const fs::directory_entry& e : fs::directory_iterator(dir))
        bytes += static_cast<double>(e.file_size());
    fs::remove_all(dir);

    // Probe spans: calls the export makes internally, timed on their own.
    {
        Span s(L.tracer, "lint.run", 0);
        (void)last->lint();
        r.metric("lint.run_ms", s.close(), "ms");
    }
    {
        Span s(L.tracer, "dashboard.report", 0);
        (void)last->report();
        r.metric("dashboard.report_ms", s.close(), "ms");
    }
    {
        Span s(L.tracer, "dashboard.associations_to_json", 0);
        (void)json::dump(dashboard::associations_to_json(last->associations()));
        r.metric("dashboard.assoc_json_ms", s.close(), "ms");
    }
    {
        // The hazard model is attached only now: with it, report() also
        // ranks hardening candidates, which does not finish at this size.
        last->set_hazards(zoo.hazards);
        Span s(L.tracer, "safety.traces", 0);
        (void)last->consequence_traces();
        (void)last->causal_scenarios();
        r.metric("safety.traces_ms", s.close(), "ms");
    }
    for (const char* n : {"core.report_associate_ms", "dashboard.export_ms",
                          "dashboard.vector_graph_ms", "graph.graphml_ms"})
        r.metric(n, L.median(n), "ms");
    r.metric("dashboard.alloc_mb", L.median("dashboard.alloc_mb"), "MB");
    r.metric("dashboard.bytes_written", bytes, "bytes");
}

} // namespace

void run_traced(const Args& args, const Inputs& in, Result& r) {
    Layers L;
    const double share = std::max(1.0, args.seconds / 4);
    const Engines e = trace_setup(L, in);
    for (const char* n : {"kb.corpus_load_ms", "core.engine_ready_ms", "core.snapshot_restart_ms",
                          "serve.start_ms"})
        r.metric(n, L.median(n), "ms");

    std::fprintf(stderr, "perfbench: tracing fleet_batch\n");
    trace_fleet(L, r, args, *e.fresh.engine, share);
    std::fprintf(stderr, "perfbench: tracing serve_analyst\n");
    trace_analyst(L, r, args, in, e.snap, share);
    std::fprintf(stderr, "perfbench: tracing serve_feed\n");
    trace_feed(L, r, args, in, e.snap, share);
    std::fprintf(stderr, "perfbench: tracing report_export\n");
    trace_report(L, r, in, e.fresh.engine);

    std::map<std::string, std::string> meta{{"seed", std::to_string(args.seed)},
                                            {"workload", args.workload},
                                            {"compiler", __VERSION__}};
    util::write_file(in.dir + "/trace.json", L.tracer.chrome_json(meta));
    r.note("trace: " + std::to_string(L.tracer.records().size()) +
           " spans written as Chrome trace-event JSON");
    for (const auto& [name, agg] : L.tracer.aggregate()) {
        char buf[200];
        std::snprintf(buf, sizeof buf, "span %-40s n=%-6zu total %10.3f ms  self %10.3f ms",
                      name.c_str(), agg.count, agg.total_us / 1e3, agg.self_us / 1e3);
        r.note(buf);
    }
}

} // namespace perfbench
