// fleet_batch and report_export: the `cybok fleet` and `cybok report`
// batch paths, closed (the next batch starts when the last one ends).
#include <unistd.h>

#include <filesystem>
#include <set>

#include "analysis/fleet.hpp"
#include "dashboard/fleet_view.hpp"
#include "dashboard/vector_graph.hpp"
#include "graph/graphml.hpp"
#include "kb/serialize.hpp"
#include "model/dsl.hpp"
#include "util/bytes.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace cybok;
namespace fs = std::filesystem;

FreshEngine setup_fresh(const Inputs& in, Result& r) {
    FreshEngine fe;
    std::vector<double> setups;
    for (std::size_t rep = 0; rep < kSetupRepeats; ++rep) {
        fe.engine.reset();
        fe.corpus.reset();
        const Clock::time_point t0 = Clock::now();
        fe.corpus = std::make_unique<kb::Corpus>(kb::load_corpus(in.corpus()));
        fe.engine = core::make_shared_engine(*fe.corpus, engine_options(""));
        setups.push_back(seconds_since(t0));
    }
    r.metric("setup_s", percentile(setups, 0.5), "s");
    r.note(describe("setup_s", percentile(setups, 0.5), "s", setups.size()));
    return fe;
}

analysis::FleetOptions fleet_options(std::uint64_t seed, std::size_t batch, std::size_t threads) {
    analysis::FleetOptions o;
    o.systems = kFleetSystemsPerBatch;
    o.components = kZooComponents;
    o.base_seed = fleet_base_seed(seed, batch);
    o.threads = threads;
    return o;
}

void run_fleet_batch(const Args& args, const Inputs& in, Result& r) {
    const FreshEngine fe = setup_fresh(in, r);
    const search::QueryEngine& engine = fe.engine->query();

    std::vector<double> batch_ms;
    std::size_t systems = 0;
    std::string first_fingerprint;
    const Clock::time_point start = Clock::now();
    for (std::size_t b = 0; seconds_since(start) < args.seconds || b < 2; ++b) {
        const Clock::time_point t0 = Clock::now();
        const analysis::FleetResult res =
            analysis::analyze_fleet(engine, fleet_options(args.seed, b, kLanes));
        const std::string table = dashboard::render_fleet_table(res);
        batch_ms.push_back(ms_since(t0));
        systems += res.systems;
        r.ops.attempted += res.systems;
        r.ops.failed += res.failed;
        if (res.systems != kFleetSystemsPerBatch || res.ranking.size() != res.systems)
            r.wrong("fleet batch " + std::to_string(b) + " ranked " +
                    std::to_string(res.ranking.size()) + " systems");
        if (table.empty()) r.wrong("empty fleet table");
        if (b == 0) first_fingerprint = res.fingerprint();
    }
    double total_ms = 0;
    for (double ms : batch_ms) total_ms += ms;

    // Determinism: the 1-lane ranking of batch 0 must fingerprint equal to
    // the 2-lane one (untimed).
    const std::string one_lane =
        analysis::analyze_fleet(engine, fleet_options(args.seed, 0, 1)).fingerprint();
    if (one_lane != first_fingerprint)
        r.wrong("fleet fingerprint differs between 2 lanes and 1 lane");
    r.digest = hex_digest(first_fingerprint);

    const double per_s = static_cast<double>(systems) / (total_ms / 1e3);
    r.metric("throughput_per_s", per_s, "1/s");
    r.metric("latency_ms", percentile(batch_ms, 0.5), "ms");
    r.note(describe("fleet_systems_per_s", per_s, "systems/s", systems));
    r.note(describe("fleet_batch_p50_ms", percentile(batch_ms, 0.5), "ms", batch_ms.size()));
}

// -- report_export -------------------------------------------------------------

namespace {

/// `text` without the rendered report's "Association engine" section:
/// it records how this run executed (lanes, cache hits won by whichever
/// lane got there first, stage timings) and legitimately differs between
/// runs. Every other byte of the report must repeat.
std::string without_engine_section(const std::string& text) {
    std::string out;
    bool skipping = false;
    std::size_t pos = 0;
    while (pos < text.size()) {
        std::size_t eol = text.find('\n', pos);
        if (eol == std::string::npos) eol = text.size();
        const std::string_view line(text.data() + pos, eol - pos);
        if (line.find("Association engine") != std::string_view::npos) skipping = true;
        else if (skipping && (line.empty() || line.rfind("</body>", 0) == 0 ||
                              line.rfind("<h2>", 0) == 0))
            skipping = false;
        if (!skipping) out.append(line).push_back('\n');
        pos = eol + 1;
    }
    return out;
}

/// Digest of every file in `dir`: "name:digest;" in name order.
std::string bundle_digest(const std::string& dir, std::uint64_t& bytes) {
    std::set<std::string> names;
    for (const fs::directory_entry& e : fs::directory_iterator(dir))
        names.insert(e.path().filename().string());
    std::string out;
    bytes = 0;
    for (const std::string& n : names) {
        const std::string content = util::read_file(dir + "/" + n);
        bytes += content.size();
        const bool rendered = n.rfind("report.", 0) == 0;
        out += n + ":" + hex_digest(rendered ? without_engine_section(content) : content) + ";";
    }
    return out;
}

} // namespace

void run_report_export(const Args& args, const Inputs& in, Result& r) {
    const FreshEngine fe = setup_fresh(in, r);
    const model::SystemModel model = model::load_dsl(in.report_model());
    const std::string dir = in.scratch("bundle");

    std::vector<double> report_s;
    std::string first;
    std::uint64_t bytes = 0;
    const Clock::time_point start = Clock::now();
    for (std::size_t it = 0; seconds_since(start) < args.seconds || it < 3; ++it) {
        fs::remove_all(dir);
        fs::create_directories(dir);
        // Settle the previous bundle's writeback and block discards outside
        // the timed region, so each export starts from the same disk state.
        ::sync();
        model::SystemModel m = model;
        ++r.ops.attempted;
        try {
            core::SessionOptions so;
            so.assoc.threads = kLanes;
            const Clock::time_point t0 = Clock::now();
            core::AnalysisSession session(std::move(m), fe.engine, so);
            (void)session.export_bundle(dir);
            const graph::PropertyGraph vg = dashboard::build_vector_graph(
                session.model(), session.associations(), session.corpus());
            graph::save_graphml(dir + "/vector_graph.graphml", vg);
            report_s.push_back(seconds_since(t0));
        } catch (const std::exception& e) {
            ++r.ops.failed;
            r.note(std::string("report failed: ") + e.what());
            continue;
        }
        const std::string d = bundle_digest(dir, bytes);
        if (first.empty()) first = d;
        else if (d != first) r.wrong("bundle digest differs at iteration " + std::to_string(it));
        if (d.find("associations.json") == std::string::npos ||
            d.find("vector_graph.graphml") == std::string::npos)
            r.wrong("bundle is missing files");
    }
    fs::remove_all(dir);
    r.digest = hex_digest(first);

    double total = 0;
    for (double s : report_s) total += s;
    const double med = percentile(report_s, 0.5);
    r.metric("throughput_per_s", static_cast<double>(report_s.size()) / total, "1/s");
    r.metric("latency_ms", med * 1e3, "ms");
    r.note(describe("report_s", med, "s", report_s.size()));
    r.note(describe("bundle_mb", static_cast<double>(bytes) / 1e6, "MB", 1));
}

} // namespace perfbench
