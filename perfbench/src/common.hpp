// Shared plumbing for the end-to-end benchmark: arguments, the result
// record every workload fills, the prepared-input layout, and the seeded
// input generators the untimed preparation step writes to files.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/session.hpp"
#include "harness/stats.hpp"
#include "kb/corpus.hpp"
#include "model/system_model.hpp"
#include "synth/zoo.hpp"

namespace perfbench {

/// Program-side parallelism everywhere: fleet threads, server lanes, the
/// report session's association lanes and engine-build lanes. The host has
/// four CPUs; the load generator keeps the rest.
inline constexpr std::size_t kLanes = 2;

/// Shapes fixed by the workload definitions (see README.md).
inline constexpr std::size_t kFleetSystemsPerBatch = 32;
inline constexpr std::size_t kZooComponents = 30;
inline constexpr std::size_t kAnalystComponents = 40;
inline constexpr std::size_t kAnalystScriptsPerConn = 12;
inline constexpr std::size_t kAnalystQueriesPerScript = 8;
inline constexpr std::size_t kQueryPoolSize = 512;
inline constexpr std::size_t kFeedFleetSystems = 8;
inline constexpr std::size_t kFeedDeltas = 48;
inline constexpr double kFeedQueryRate = 50.0;   ///< open-loop queries per second
inline constexpr double kFeedTickOffsetS = 0.05; ///< delta sent this long after a fleet start
inline constexpr std::size_t kReportComponents = 300;
inline constexpr std::size_t kSetupRepeats = 5;

struct Args {
    std::string mode;     ///< prepare | run
    std::string workload; ///< fleet_batch | serve_analyst | serve_feed | report_export
    std::string dir;      ///< prepared-input directory
    std::uint64_t seed = 1;
    double seconds = 10;
    int trace = 0;
};

/// Everything one run reports: metrics by name, human-readable lines, the
/// operation counts behind `attempted`/`failed`, and the output digest.
struct Result {
    struct Metric {
        double value = 0;
        std::string unit;
    };
    std::map<std::string, Metric> metrics;
    std::vector<std::string> lines;
    OpCounts ops;
    std::string digest;
    bool correct = true;

    void metric(const std::string& name, double value, const std::string& unit) {
        metrics[name] = {value, unit};
    }
    void note(const std::string& line) { lines.push_back(line); }
    /// Record a failed output check (counts as a wrong operation).
    void wrong(const std::string& why);
};

// -- time and memory ---------------------------------------------------------

using Clock = std::chrono::steady_clock;
[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}
[[nodiscard]] inline double ms_since(Clock::time_point t0) { return seconds_since(t0) * 1e3; }
/// getrusage max RSS of this process, in MB.
[[nodiscard]] double peak_rss_mb();

// -- prepared inputs ---------------------------------------------------------

/// File layout of the preparation step's output directory.
struct Inputs {
    std::string dir;
    [[nodiscard]] std::string corpus() const { return dir + "/corpus.json"; }
    [[nodiscard]] std::string snapshot() const { return dir + "/engine.snapshot"; }
    [[nodiscard]] std::string base_model() const { return dir + "/base.sysm"; }
    [[nodiscard]] std::string query_pool() const { return dir + "/queries.tsv"; }
    [[nodiscard]] std::string script(std::size_t i, const char* part) const {
        return dir + "/analyst-" + std::to_string(i) + "-" + part + ".sysm";
    }
    [[nodiscard]] std::string delta(std::size_t k) const {
        return dir + "/delta-" + std::to_string(k) + ".bin";
    }
    [[nodiscard]] std::string probes() const { return dir + "/probes.tsv"; }
    [[nodiscard]] std::string report_model() const { return dir + "/report.sysm"; }
    [[nodiscard]] std::string scratch(const std::string& name) const {
        return dir + "/scratch-" + name;
    }
};

/// One pool query: free text plus the per-class hit limit it is sent with.
struct PoolQuery {
    std::size_t limit = 10;
    std::string text;
};
[[nodiscard]] std::vector<PoolQuery> load_query_pool(const Inputs& in);

/// One feed tick's probe record: the weakness id the delta adds and the
/// text a probe query searches for.
struct Probe {
    std::string id;
    std::string text;
};
[[nodiscard]] std::vector<Probe> load_probes(const Inputs& in);

/// Seeded zoo config for system `i` of a stream (domains cycle).
[[nodiscard]] cybok::synth::ZooConfig zoo_config(std::uint64_t seed, std::size_t i,
                                                 std::size_t components);
/// The report_export model's config (water domain, 300 components).
[[nodiscard]] cybok::synth::ZooConfig report_config();
/// Fleet base seed for batch `b` of a run seeded `seed`.
[[nodiscard]] std::uint64_t fleet_base_seed(std::uint64_t seed, std::size_t batch);

/// Write every input a workload needs into `in.dir` (untimed; `workload`
/// "all" prepares the inputs of every workload, for the traced run).
void prepare(const Inputs& in, const std::string& workload, std::uint64_t seed);

// -- set-up ------------------------------------------------------------------

/// Engine options every workload uses (2 build lanes).
[[nodiscard]] cybok::core::SessionOptions engine_options(const std::string& snapshot_path);

/// Hex digest of a byte string (fnv1a64).
[[nodiscard]] std::string hex_digest(std::string_view bytes);

/// "name value unit (n=N)" human-readable metric line.
[[nodiscard]] std::string describe(const std::string& name, double value, const std::string& unit,
                                   std::size_t n);

} // namespace perfbench
