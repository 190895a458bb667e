// perfbench — the repository's end-to-end benchmark program.
//
//   perfbench prepare --workload W --seed N --dir D
//       untimed: write the workload's seeded inputs into D ("all" = every
//       workload's, for the traced run)
//   perfbench run --workload W --seed N --seconds S --trace 0|1 --dir D
//       measure; human-readable lines, then one JSON result line
//
// run.py builds this binary and calls both steps; see README.md.
#include <cstdio>
#include <exception>
#include <stdexcept>
#include <string>
#include <thread>

#include "common.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

Args parse_args(int argc, char** argv) {
    if (argc < 2)
        throw std::runtime_error("usage: perfbench prepare|run --workload W --seed N ...");
    Args a;
    a.mode = argv[1];
    for (int i = 2; i + 1 < argc; i += 2) {
        const std::string k = argv[i];
        const std::string v = argv[i + 1];
        if (k == "--workload") a.workload = v;
        else if (k == "--seed") a.seed = std::stoull(v);
        else if (k == "--seconds") a.seconds = std::stod(v);
        else if (k == "--trace") a.trace = std::stoi(v);
        else if (k == "--dir") a.dir = v;
        else throw std::runtime_error("unknown option " + k);
    }
    if (a.dir.empty()) throw std::runtime_error("--dir is required");
    return a;
}

#ifdef __OPTIMIZE__
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif
#ifdef NDEBUG
constexpr bool kNdebug = true;
#else
constexpr bool kNdebug = false;
#endif

void provenance(const Args& a) {
    std::printf("provenance: workload=%s seed=%llu seconds=%g trace=%d\n", a.workload.c_str(),
                static_cast<unsigned long long>(a.seed), a.seconds, a.trace);
    std::printf("provenance: compiler=\"%s\" __OPTIMIZE__=%d NDEBUG=%d nproc=%u lanes=%zu "
                "analyst_connections=2 feed_connections=3\n",
                __VERSION__, kOptimized ? 1 : 0, kNdebug ? 1 : 0,
                std::thread::hardware_concurrency(), kLanes);
    if (!kOptimized || !kNdebug) {
        const char* warn =
            "WARNING: perfbench was built WITHOUT optimisation or with assertions on; "
            "its timings do not describe a release build\n";
        std::printf("%s", warn);
        std::fprintf(stderr, "%s", warn);
    }
}

void print_result(const Result& r) {
    for (const std::string& line : r.lines) std::printf("%s\n", line.c_str());
    std::printf("digest %s\n", r.digest.c_str());
    std::printf("failed_frac %.6g ratio (attempted=%llu failed=%llu refused=%llu wrong=%llu)\n",
                r.ops.failed_frac(), static_cast<unsigned long long>(r.ops.attempted),
                static_cast<unsigned long long>(r.ops.failed),
                static_cast<unsigned long long>(r.ops.refused),
                static_cast<unsigned long long>(r.ops.wrong));
    std::string json = "{\"correct\": ";
    json += r.correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(r.ops.attempted);
    json += ", \"failed\": " + std::to_string(r.ops.bad());
    json += ", \"metrics\": {";
    bool first = true;
    for (const auto& [name, m] : r.metrics) {
        char buf[160];
        std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      first ? "" : ", ", name.c_str(), m.value, m.unit.c_str());
        json += buf;
        first = false;
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
}

} // namespace

int main(int argc, char** argv) {
    try {
        const Args a = parse_args(argc, argv);
        const Inputs in{a.dir};
        if (a.mode == "prepare") {
            prepare(in, a.workload, a.seed);
            return 0;
        }
        if (a.mode != "run") throw std::runtime_error("unknown mode " + a.mode);
        provenance(a);
        Result r;
        if (a.trace != 0) run_traced(a, in, r);
        else if (a.workload == "fleet_batch") run_fleet_batch(a, in, r);
        else if (a.workload == "report_export") run_report_export(a, in, r);
        else if (a.workload == "serve_analyst") run_serve_analyst(a, in, r);
        else if (a.workload == "serve_feed") run_serve_feed(a, in, r);
        else throw std::runtime_error("unknown workload " + a.workload);
        if (a.trace == 0) {
            r.metric("peak_rss_mb", peak_rss_mb(), "MB");
            r.note(describe("peak_rss_mb", peak_rss_mb(), "MB", 1));
        }
        if (r.ops.attempted == 0) r.wrong("no operation was attempted");
        if (r.ops.bad() != 0) r.correct = false;
        print_result(r);
        return r.correct ? 0 : 1;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 2;
    }
}
