// The four workloads' end-to-end runs (tracing off) and the traced replay.
#pragma once

#include <memory>

#include "common.hpp"
#include "kb/corpus.hpp"
#include "serve/server.hpp"
#include "util/rng.hpp"

namespace perfbench {

void run_fleet_batch(const Args& args, const Inputs& in, Result& r);
void run_report_export(const Args& args, const Inputs& in, Result& r);
void run_serve_analyst(const Args& args, const Inputs& in, Result& r);
void run_serve_feed(const Args& args, const Inputs& in, Result& r);

/// The traced run: replays every workload's prepared inputs through the
/// layer calls with spans on, and emits the per-layer metrics.
void run_traced(const Args& args, const Inputs& in, Result& r);

/// One analyst script: session.open (own DSL, or a base-model overlay
/// for every 4th script), associate, flow.analyze, posture, 8 queries,
/// what-if A (propose), what-if B (commit), flow.analyze, session.close.
/// Query text and session ids are filled in when the script runs.
struct Script {
    std::vector<cybok::serve::Request> requests;
    bool own_model = false;
};
[[nodiscard]] Script make_script(const Inputs& in, std::size_t i);
/// The pool entries one script's queries use, drawn from `rng`.
[[nodiscard]] std::vector<std::size_t> draw_picks(cybok::Rng& rng, std::size_t pool_size);

/// serve_analyst wire samples: per-type round trips (ms) and volume.
struct AnalystSamples {
    std::vector<double> query, associate, whatif;
    std::uint64_t completed = 0;
    double elapsed_s = 0;
    OpCounts ops;
    std::vector<cybok::json::Value> bodies; ///< first response bodies, for encode timing
};
/// Two closed-loop analyst connections against the server on `port` for
/// `seconds`. With `check`, an untimed warm-up pass records every
/// response first and each timed response must reproduce it.
[[nodiscard]] AnalystSamples analyst_wire(const Args& args, const Inputs& in, std::uint16_t port,
                                          Result& r, bool check, double seconds);

/// serve_feed wire samples.
struct FeedSamples {
    std::vector<double> query_ms;    ///< open-loop, from each query's due time
    std::vector<double> lateness_ms; ///< how late the generator sent each query
    std::vector<double> fleet_ms, apply_ms, compact_ms, visible_ms;
    std::size_t fleet_systems = 0;
    std::size_t ticks = 0;
    double elapsed_s = 0;
};
/// Fleet stream + open-loop queries + admin feed against `port`.
[[nodiscard]] FeedSamples feed_wire(const Args& args, const Inputs& in, std::uint16_t port,
                                    Result& r, double seconds);
/// The server's `metrics` response body.
[[nodiscard]] cybok::json::Value server_metrics(std::uint16_t port);

/// A fresh engine over a freshly loaded corpus (the fleet/report set-up).
/// The engine borrows the corpus, so both travel together; destroy the
/// engine first (member order does that).
struct FreshEngine {
    std::unique_ptr<cybok::kb::Corpus> corpus;
    std::shared_ptr<const cybok::core::SharedEngine> engine;
};
/// Set up kSetupRepeats times, keep the last; reports setup_s (median).
[[nodiscard]] FreshEngine setup_fresh(const Inputs& in, Result& r);

/// A started server restarted from the prepared snapshot.
struct ServeSetup {
    std::unique_ptr<cybok::kb::Corpus> corpus;
    std::shared_ptr<const cybok::core::SharedEngine> engine;
    std::unique_ptr<cybok::serve::Server> server;
    ~ServeSetup();
};
/// Snapshot restart + listening server, kSetupRepeats times; keeps the
/// last; reports setup_s (median). A restart that fell back to a fresh
/// build is a failed check.
[[nodiscard]] std::unique_ptr<ServeSetup> setup_serve(const Inputs& in, Result& r);
/// One snapshot restart without timing bookkeeping (traced run).
[[nodiscard]] std::unique_ptr<ServeSetup> start_server(const Inputs& in);

} // namespace perfbench
