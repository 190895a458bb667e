// cybok — the command-line interface to the toolkit, mirroring the
// paper's "CYBOK command line interface" companion tool. Everything the
// library does, scriptable over files:
//
//   cybok generate  --out corpus.json [--scale F] [--seed N]
//   cybok model     --demo centrifuge|centrifuge-hardened|uav --out sys.sysm
//   cybok model     --synth N [--seed S] --out sys.sysm
//   cybok search    --corpus corpus.json --query "text" [--class CLASS]
//   cybok associate --corpus corpus.json --model sys.sysm [--out assoc.json]
//   cybok lint      --corpus corpus.json --model sys.sysm [--hazards demo] [--associate]
//                   [--format text|json|sarif] [--threads N] [--disable CODES] [--severity C=S,...]
//   cybok flow      --corpus corpus.json --model sys.sysm [--hazards demo]
//                   [--format text|json] [--fingerprint]
//   cybok report    --corpus corpus.json --model sys.sysm --out-dir DIR [--hazards demo]
//   cybok table1
//
// Exit code 0 on success, 1 on usage errors (including a numeric option
// that does not parse whole or does not fit its type), 2 on runtime
// failures, 3 when lint finds error-severity diagnostics.

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <type_traits>

#include "analysis/fleet.hpp"
#include "core/session.hpp"
#include "dashboard/fleet_view.hpp"
#include "dashboard/vector_graph.hpp"
#include "graph/graphml.hpp"
#include "kb/serialize.hpp"
#include "lint/lint.hpp"
#include "model/dsl.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "synth/corpus_gen.hpp"
#include "synth/model_gen.hpp"
#include "synth/scada.hpp"
#include "util/bytes.hpp"
#include "util/fault.hpp"
#include "util/strings.hpp"

using namespace cybok;

namespace {

/// A malformed command line: exit code 1, not a runtime failure.
class UsageError : public Error {
public:
    using Error::Error;
};

/// The whole of `text` as a T. Rejects anything else — trailing text, a
/// sign on an unsigned count, a value T cannot hold — so that "-1" never
/// wraps to a huge thread count and 70000 never truncates to a port.
template <typename T>
T parse_number(const std::string& key, const std::string& text) {
    T value{};
    const char* end = text.data() + text.size();
    const auto [stop, ec] = std::from_chars(text.data(), end, value);
    bool ok = !text.empty() && ec == std::errc{} && stop == end;
    if constexpr (std::is_floating_point_v<T>) ok = ok && std::isfinite(value);
    if (ok) return value;
    if constexpr (std::is_floating_point_v<T>)
        throw UsageError("--" + key + " expects a finite number, got '" + text + "'");
    else
        throw UsageError("--" + key + " expects an integer in [0, " +
                         std::to_string(std::numeric_limits<T>::max()) + "], got '" + text +
                         "'");
}

/// --key value argument bag.
class Args {
public:
    Args(int argc, char** argv, int first) {
        for (int i = first; i < argc; ++i) {
            std::string key = argv[i];
            if (key.rfind("--", 0) != 0) throw UsageError("unexpected argument: " + key);
            key = key.substr(2);
            // Both "--format json" and "--format=json" spellings work.
            if (std::size_t eq = key.find('='); eq != std::string::npos) {
                values_[key.substr(0, eq)] = key.substr(eq + 1);
            } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
                values_[key] = argv[++i];
            } else {
                values_[key] = "";
            }
        }
    }

    [[nodiscard]] std::string get(const std::string& key, const std::string& fallback = "") const {
        auto it = values_.find(key);
        return it == values_.end() ? fallback : it->second;
    }
    [[nodiscard]] std::string require(const std::string& key) const {
        auto it = values_.find(key);
        if (it == values_.end()) throw UsageError("missing required option --" + key);
        return it->second;
    }
    /// Numeric option `key` (see parse_number), or `fallback` when absent.
    template <typename T>
    [[nodiscard]] T number(const std::string& key, T fallback) const {
        auto it = values_.find(key);
        return it == values_.end() ? fallback : parse_number<T>(key, it->second);
    }

private:
    std::map<std::string, std::string> values_;
};

model::SystemModel demo_model(const std::string& name) {
    if (name == "centrifuge") return synth::centrifuge_model();
    if (name == "centrifuge-hardened") return synth::centrifuge_model_hardened();
    if (name == "uav") return synth::uav_model();
    throw UsageError("unknown demo model: " + name +
                     " (try centrifuge|centrifuge-hardened|uav)");
}

int cmd_generate(const Args& args) {
    const double scale = args.number<double>("scale", 1.0);
    const std::uint64_t seed = args.number<std::uint64_t>("seed", 20200629);
    synth::CorpusProfile profile = scale == 1.0 ? synth::CorpusProfile::scada_demo()
                                                : synth::CorpusProfile::scaled(scale, seed);
    profile.seed = seed;
    kb::Corpus corpus = synth::generate_corpus(profile);
    kb::save_corpus(args.require("out"), corpus);
    kb::Corpus::Stats s = corpus.stats();
    std::printf("wrote %s: %zu patterns, %zu weaknesses, %zu vulnerabilities\n",
                args.require("out").c_str(), s.patterns, s.weaknesses, s.vulnerabilities);
    return 0;
}

int cmd_model(const Args& args) {
    model::SystemModel m;
    if (std::string zoo = args.get("zoo"); !zoo.empty()) {
        const std::optional<synth::ZooDomain> domain = synth::parse_zoo_domain(zoo);
        if (!domain)
            throw UsageError("unknown --zoo domain: " + zoo + " (try uav|automotive|grid|water)");
        synth::ZooConfig config;
        config.domain = *domain;
        config.components = args.number<std::size_t>("components", 50);
        config.seed = args.number<std::uint64_t>("seed", 11);
        m = synth::generate_zoo_system(config).model;
    } else if (std::string synth = args.get("synth"); !synth.empty()) {
        synth::ModelGenConfig config;
        config.components = parse_number<std::size_t>("synth", synth);
        config.seed = args.number<std::uint64_t>("seed", 11);
        m = synth::generate_model(config);
    } else {
        m = demo_model(args.get("demo", "centrifuge"));
    }
    model::save_dsl(args.require("out"), m);
    std::printf("wrote %s: %zu components, %zu connectors\n", args.require("out").c_str(),
                m.component_count(), m.connectors().size());
    return 0;
}

int cmd_search(const Args& args) {
    const std::size_t limit = args.number<std::size_t>("limit", 10);
    std::string cls_name = args.get("class", "");
    std::vector<search::VectorClass> classes;
    if (cls_name.empty()) {
        classes = {search::VectorClass::AttackPattern, search::VectorClass::Weakness,
                   search::VectorClass::Vulnerability};
    } else if (cls_name == "pattern") classes = {search::VectorClass::AttackPattern};
    else if (cls_name == "weakness") classes = {search::VectorClass::Weakness};
    else if (cls_name == "vulnerability") classes = {search::VectorClass::Vulnerability};
    else throw UsageError("unknown --class: " + cls_name);

    kb::Corpus corpus = kb::load_corpus(args.require("corpus"));
    search::SearchEngine engine(corpus);
    for (search::VectorClass cls : classes) {
        auto hits = engine.query_text(args.require("query"), cls);
        std::printf("%s: %zu hits\n", std::string(vector_class_name(cls)).c_str(),
                    hits.size());
        for (std::size_t i = 0; i < hits.size() && i < limit; ++i)
            std::printf("  %-14s score=%.3f  %s\n", hits[i].id.c_str(), hits[i].score,
                        hits[i].title.c_str());
    }
    return 0;
}

int cmd_associate(const Args& args) {
    kb::Corpus corpus = kb::load_corpus(args.require("corpus"));
    model::SystemModel m = model::load_dsl(args.require("model"));
    core::AnalysisSession session(std::move(m), corpus);
    const search::AssociationMap& assoc = session.associations();
    std::fputs(dashboard::attribute_summary_table(assoc).render().c_str(), stdout);
    std::string out = args.get("out");
    if (!out.empty()) {
        json::save_file(out, dashboard::associations_to_json(assoc));
        std::printf("wrote %s\n", out.c_str());
    }
    return 0;
}

int cmd_lint(const Args& args) {
    lint::LintOptions options;
    options.threads = args.number<std::size_t>("threads", 0);
    const std::string disable = args.get("disable");
    for (std::string_view code : strings::split(disable, ',')) {
        code = strings::trim(code);
        if (!code.empty()) options.disabled.insert(std::string(code));
    }
    const std::string severity = args.get("severity");
    for (std::string_view spec : strings::split(severity, ',')) {
        spec = strings::trim(spec);
        if (spec.empty()) continue;
        auto parts = strings::split(spec, '=');
        std::optional<lint::Severity> sev;
        if (parts.size() == 2) sev = lint::severity_from_name(strings::trim(parts[1]));
        if (!sev.has_value())
            throw UsageError("bad --severity entry: " + std::string(spec) +
                             " (want CODE=note|warning|error)");
        options.severity_overrides[std::string(strings::trim(parts[0]))] = *sev;
    }

    kb::Corpus corpus = kb::load_corpus(args.require("corpus"));
    model::SystemModel m = model::load_dsl(args.require("model"));
    std::optional<safety::HazardModel> hazards;
    if (args.get("hazards") == "demo")
        hazards = m.name().rfind("uav", 0) == 0 ? synth::uav_hazards()
                                                : synth::centrifuge_hazards();

    // --associate runs the association engine first and hands the map to
    // the lint pass, enabling the flow rules (F001-F003) and deepening the
    // consequence pass (C003/C004). Off by default: plain `cybok lint` is
    // the cheap pre-association defect scan.
    std::optional<core::AnalysisSession> session;
    lint::LintInput input;
    input.corpus = &corpus;
    if (hazards.has_value()) input.hazards = &*hazards;
    if (args.get("associate", "absent") != "absent") {
        session.emplace(std::move(m), corpus);
        input.model = &session->model();
        input.associations = &session->associations();
    } else {
        input.model = &m;
    }
    lint::LintResult result = lint::run_lint(input, options);

    const std::string format = args.get("format", "text");
    if (format == "json")
        std::fputs((json::dump(result.to_json(), 2) + "\n").c_str(), stdout);
    else if (format == "sarif")
        std::fputs((json::dump(result.to_sarif(), 2) + "\n").c_str(), stdout);
    else
        std::fputs(result.render_text().c_str(), stdout);
    return result.ok() ? 0 : 3;
}

int cmd_flow(const Args& args) {
    kb::Corpus corpus = kb::load_corpus(args.require("corpus"));
    model::SystemModel m = model::load_dsl(args.require("model"));
    core::AnalysisSession session(std::move(m), corpus);
    if (args.get("hazards") == "demo") {
        if (session.model().name().rfind("uav", 0) == 0)
            session.set_hazards(synth::uav_hazards());
        else
            session.set_hazards(synth::centrifuge_hazards());
    }
    const flow::FlowResult& r = session.flow();

    if (args.get("fingerprint", "absent") != "absent") {
        // The canonical byte rendering — what the incremental-vs-full
        // oracle and the determinism CI jobs compare.
        std::fputs(r.fingerprint().c_str(), stdout);
        return r.converged ? 0 : 2;
    }
    if (args.get("format", "text") == "json") {
        std::fputs((json::dump(r.to_json(), 2) + "\n").c_str(), stdout);
        return r.converged ? 0 : 2;
    }
    std::printf("%s\n", r.summary().c_str());
    for (const flow::ComponentFlow& cf : r.components) {
        if (cf.taint <= 0.0) continue;
        std::printf("  %-28s taint %.3f depth %u perm %.3f%s%s\n", cf.component.c_str(),
                    cf.taint, cf.depth, cf.permeability, cf.entry_point ? " [entry]" : "",
                    cf.hazard_linked ? " [hazard-linked]" : "");
    }
    for (const flow::HazardSlice& s : r.slices) {
        std::printf("  slice %s (%zu components%s):", s.hazard.c_str(), s.components.size(),
                    s.tainted_reach ? ", tainted reach" : "");
        for (const std::string& c : s.components) std::printf(" %s;", c.c_str());
        std::printf("\n");
    }
    for (const flow::Chokepoint& c : r.chokepoints)
        std::printf("  chokepoint %-20s severs %zu/%zu%s%s\n", c.component.c_str(), c.severed,
                    r.flows_total, c.in_min_cut ? " [min-cut]" : "",
                    c.articulation ? " [articulation]" : "");
    return r.converged ? 0 : 2;
}

int cmd_report(const Args& args) {
    kb::Corpus corpus = kb::load_corpus(args.require("corpus"));
    model::SystemModel m = model::load_dsl(args.require("model"));
    core::AnalysisSession session(std::move(m), corpus);
    if (args.get("hazards") == "demo") {
        if (session.model().name().rfind("uav", 0) == 0)
            session.set_hazards(synth::uav_hazards());
        else
            session.set_hazards(synth::centrifuge_hazards());
    }
    for (const std::string& f : session.export_bundle(args.require("out-dir")))
        std::printf("wrote %s\n", f.c_str());
    // Also write the merged component/attack-vector graph.
    graph::PropertyGraph vg = dashboard::build_vector_graph(
        session.model(), session.associations(), session.corpus());
    std::string path = args.require("out-dir") + "/vector_graph.graphml";
    graph::save_graphml(path, vg);
    std::printf("wrote %s\n", path.c_str());
    return 0;
}

int cmd_fleet(const Args& args) {
    analysis::FleetOptions options;
    options.systems = args.number<std::size_t>("systems", 16);
    options.base_seed = args.number<std::uint64_t>("seed", 11);
    options.components = args.number<std::size_t>("components", 50);
    options.threads = args.number<std::size_t>("threads", 0);
    options.top_paths = args.number<std::size_t>("top", 3);
    const std::string domains = args.get("domains"); // split() returns views into it
    for (std::string_view name : strings::split(domains, ',')) {
        name = strings::trim(name);
        if (name.empty()) continue;
        const std::optional<synth::ZooDomain> d = synth::parse_zoo_domain(name);
        if (!d)
            throw UsageError("unknown --domains entry: " + std::string(name) +
                             " (try uav|automotive|grid|water)");
        options.domains.push_back(*d);
    }

    // Same engine bootstrap as `serve`: files when given, the SCADA demo
    // corpus otherwise, with the snapshot cold-start cache available.
    kb::Corpus corpus = args.get("corpus").empty()
                            ? synth::generate_corpus(synth::CorpusProfile::scada_demo())
                            : kb::load_corpus(args.require("corpus"));
    core::SessionOptions engine_opts;
    engine_opts.snapshot_path = args.get("snapshot");
    std::shared_ptr<const core::SharedEngine> engine =
        core::make_shared_engine(corpus, engine_opts);

    const analysis::FleetResult result = analysis::analyze_fleet(engine->query(), options);
    if (args.get("fingerprint", "absent") != "absent") {
        // The canonical byte rendering — what the cross-thread-count
        // determinism checks compare.
        std::fputs(result.fingerprint().c_str(), stdout);
        return 0;
    }
    const std::string format = args.get("format", "text");
    if (format == "json")
        std::fputs((json::dump(result.to_json(), 2) + "\n").c_str(), stdout);
    else
        std::fputs(dashboard::render_fleet_table(result, format == "markdown").c_str(),
                   stdout);
    return 0;
}

int cmd_serve(const Args& args) {
    serve::ServerOptions options;
    options.bind = args.get("bind", "127.0.0.1");
    options.port = args.number<std::uint16_t>("port", 0);
    options.lanes = args.number<std::size_t>("lanes", 0);
    options.queue_capacity = args.number<std::size_t>("queue", 256);
    options.registry.max_sessions = args.number<std::size_t>("max-sessions", 4096);

    // Corpus + base model: from files when given, the paper's SCADA demo
    // otherwise — so `cybok serve` with no options is a working server.
    kb::Corpus corpus = args.get("corpus").empty()
                            ? synth::generate_corpus(synth::CorpusProfile::scada_demo())
                            : kb::load_corpus(args.require("corpus"));
    model::SystemModel base = args.get("model").empty()
                                  ? synth::centrifuge_model()
                                  : model::load_dsl(args.require("model"));
    core::SessionOptions engine_opts;
    engine_opts.snapshot_path = args.get("snapshot");
    // Built (or thawed + staleness-checked) exactly once here; every
    // session the server opens shares this one engine.
    std::shared_ptr<const core::SharedEngine> engine =
        core::make_shared_engine(corpus, engine_opts);

    serve::Server server(engine, std::move(base), options);
    server.start();
    const kb::Corpus::Stats s = engine->corpus().stats();
    std::printf("cybok-serve listening on %s:%u (%zu patterns, %zu weaknesses, "
                "%zu vulnerabilities; %zu lanes, queue %zu, max %zu sessions)\n",
                server.options().bind.c_str(), server.port(), s.patterns, s.weaknesses,
                s.vulnerabilities, server.options().lanes, server.options().queue_capacity,
                server.options().registry.max_sessions);
    std::fflush(stdout);
    // Runs until a client sends `shutdown` (the graceful path — in-flight
    // requests complete and their responses are written first).
    server.wait();
    const serve::ServerStats& st = server.stats();
    std::printf("cybok-serve stopped: %llu connections, %llu requests, %llu responses, "
                "%llu overload rejections\n",
                static_cast<unsigned long long>(st.connections_accepted.load()),
                static_cast<unsigned long long>(st.requests_received.load()),
                static_cast<unsigned long long>(st.responses_sent.load()),
                static_cast<unsigned long long>(st.overload_rejections.load()));
    return 0;
}

int cmd_client(const Args& args) {
    const std::string wire = args.require("type");
    std::optional<serve::MsgType> type;
    for (const serve::MessageTypeInfo& info : serve::known_message_types())
        if (info.wire == wire) type = info.type;
    if (!type.has_value()) throw UsageError("unknown --type: " + wire);

    serve::Request req;
    req.type = *type;
    req.session = args.get("session");
    req.text = args.get("text", args.get("query"));
    req.cls = args.get("class");
    req.limit = args.number<std::size_t>("limit", 10);
    if (const std::string path = args.get("model"); !path.empty())
        req.model_dsl = util::read_file(path);
    req.commit = args.get("commit", "absent") != "absent";
    req.snapshot = args.get("snapshot");
    req.delta = args.get("delta");
    req.systems = args.number<std::size_t>("systems", 8);
    req.domains = args.get("domains");
    req.seed = args.number<std::uint64_t>("seed", 11);
    req.components = args.number<std::size_t>("components", 40);

    serve::BlockingClient client(args.get("host", "127.0.0.1"),
                                 parse_number<std::uint16_t>("port", args.require("port")));
    const serve::Response resp = client.call(req);
    json::Value out;
    out["id"] = resp.id;
    out["ok"] = resp.ok;
    if (resp.ok) {
        out["type"] = resp.type;
        out["result"] = resp.body;
    } else {
        json::Value error;
        error["code"] = resp.error_code;
        error["message"] = resp.error_message;
        out["error"] = std::move(error);
    }
    std::fputs((json::dump(out, 2) + "\n").c_str(), stdout);
    return resp.ok ? 0 : 4;
}

int cmd_table1(const Args&) {
    kb::Corpus corpus = synth::generate_corpus(synth::CorpusProfile::scada_demo());
    core::AnalysisSession session(synth::centrifuge_model(), corpus);
    std::fputs(dashboard::attribute_summary_table(session.associations()).render().c_str(),
               stdout);
    return 0;
}

void usage() {
    std::fputs(
        "usage: cybok <command> [options]\n"
        "  generate  --out corpus.json [--scale F] [--seed N]   synthesize a corpus\n"
        "  model     --demo NAME --out sys.sysm                 write a demo model (DSL)\n"
        "  model     --synth N [--seed S] --out sys.sysm        write a generated model\n"
        "  model     --zoo D [--components N] [--seed S] --out sys.sysm\n"
        "            write a zoo architecture (uav|automotive|grid|water)\n"
        "  search    --corpus C --query Q [--class K] [--limit N]\n"
        "  associate --corpus C --model M [--out assoc.json]\n"
        "  lint      --corpus C --model M [--hazards demo] [--format text|json|sarif]\n"
        "            [--threads N] [--disable CODES] [--severity CODE=SEV,...] [--associate]\n"
        "            static defect scan; --associate enables the flow rules\n"
        "            (F001-F003); exit 3 when errors are found\n"
        "  flow      --corpus C --model M [--hazards demo] [--format text|json]\n"
        "            [--fingerprint]\n"
        "            dataflow fixpoints: exposure taint, hazard slices, chokepoints\n"
        "  fleet     [--corpus C] [--snapshot PATH] [--systems N] [--domains CSV]\n"
        "            [--seed S] [--components N] [--threads N] [--top N]\n"
        "            [--format text|markdown|json] [--fingerprint]\n"
        "            batch-analyze N generated zoo systems (uav|automotive|grid|water)\n"
        "            against one shared engine; byte-deterministic comparative ranking\n"
        "  report    --corpus C --model M --out-dir D [--hazards demo]\n"
        "  serve     [--corpus C] [--model M] [--snapshot PATH] [--bind A] [--port P]\n"
        "            [--lanes N] [--queue N] [--max-sessions N]\n"
        "            analysis server (docs/PROTOCOL.md, docs/OPERATIONS.md);\n"
        "            stop it with `cybok client --type shutdown`\n"
        "  client    --port P --type T [--host A] [--session S] [--text Q] [--class K]\n"
        "            [--limit N] [--model FILE] [--commit] [--snapshot PATH]\n"
        "            [--delta PATH] [--systems N] [--domains CSV] [--seed S]\n"
        "            [--components N]\n"
        "            send one request, print the JSON response; exit 4 on a\n"
        "            typed error response\n"
        "  table1                                               reproduce the paper's Table 1\n"
        "global options (any command):\n"
        "  --fault-spec SPEC   arm deterministic fault injection for repro, e.g.\n"
        "                      'seed=7;kb.snapshot.open;search.cache.get=p:0.25;\n"
        "                      util.json.parse=nth:3' (sites listed in ARCHITECTURE.md §6);\n"
        "                      a per-site hit/fire report is printed to stderr on exit\n",
        stderr);
}

} // namespace

int main(int argc, char** argv) {
    if (argc < 2) {
        usage();
        return 1;
    }
    const std::string command = argv[1];
    try {
        Args args(argc, argv, 2);
        // Arm fault injection before dispatch so every site a command
        // crosses (corpus load, engine build, snapshot IO, cache) is
        // live; report observed hits/fires on the way out for repro.
        const bool faults_armed = !args.get("fault-spec").empty();
        if (faults_armed) util::FaultInjector::instance().arm_spec(args.get("fault-spec"));
        const auto dispatch = [&]() -> int {
            if (command == "generate") return cmd_generate(args);
            if (command == "model") return cmd_model(args);
            if (command == "search") return cmd_search(args);
            if (command == "associate") return cmd_associate(args);
            if (command == "lint") return cmd_lint(args);
            if (command == "flow") return cmd_flow(args);
            if (command == "fleet") return cmd_fleet(args);
            if (command == "report") return cmd_report(args);
            if (command == "serve") return cmd_serve(args);
            if (command == "client") return cmd_client(args);
            if (command == "table1") return cmd_table1(args);
            usage();
            return 1;
        };
        const int rc = dispatch();
        if (faults_armed) {
            for (const util::FaultSiteReport& s : util::FaultInjector::instance().report())
                std::fprintf(stderr, "fault-site %s: %llu hits, %llu fires\n", s.site.c_str(),
                             static_cast<unsigned long long>(s.hits),
                             static_cast<unsigned long long>(s.fires));
        }
        return rc;
    } catch (const UsageError& e) {
        std::fprintf(stderr, "cybok %s: usage error: %s\n", command.c_str(), e.what());
        return 1;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "cybok %s: error: %s\n", command.c_str(), e.what());
        return 2;
    }
}
