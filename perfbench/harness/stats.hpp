// Measurement arithmetic shared by every workload: percentiles under the
// "at least ten samples beyond" rule, open-loop latency timed from each
// request's due time, failure accounting, and span self-time / residual
// arithmetic. Kept free of cybok types so tests/selftest.cpp can pin it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile (q in [0, 1]) of unsorted samples; 0 when empty.
[[nodiscard]] double percentile(std::vector<double> samples, double q);

/// Samples needed before the q-th percentile has at least `beyond`
/// samples above it: p99 needs 1000, p90 needs 100, p50 needs 20.
[[nodiscard]] std::size_t min_samples_for(double q, std::size_t beyond = 10);

/// The q-th percentile when the sample count supports it, else nullopt.
[[nodiscard]] std::optional<double> reportable_percentile(const std::vector<double>& samples,
                                                          double q);

/// One latency series with its summary line ("query_p99_ms 12.3 ms (n=1200)").
struct Series {
    std::string name;
    std::vector<double> samples;

    [[nodiscard]] double median() const { return percentile(samples, 0.5); }
    /// "name_pXX_ms value ms (n=N)" or the shortfall when n is too small.
    [[nodiscard]] std::string describe(double q) const;
};

/// Open-loop request timing: the generator intends to send at `due`, sends
/// at `sent` (late when the generator itself stalls), and the response
/// arrives at `done`. Latency counts from `due`, so a stall that delays
/// later sends is charged to them rather than hidden (coordinated
/// omission); lateness reports how far the generator fell behind.
struct OpenLoopSample {
    double due_s = 0;
    double sent_s = 0;
    double done_s = 0;
};
[[nodiscard]] double open_loop_latency_ms(const OpenLoopSample& s);
[[nodiscard]] double generator_lateness_ms(const OpenLoopSample& s);

/// Failure accounting: every operation attempted is either ok, failed
/// (typed error or exception), refused (overload/admission) or wrong
/// (completed but its output check failed).
struct OpCounts {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::uint64_t refused = 0;
    std::uint64_t wrong = 0;

    [[nodiscard]] std::uint64_t bad() const noexcept { return failed + refused + wrong; }
    [[nodiscard]] double failed_frac() const noexcept {
        return attempted == 0 ? 0.0 : static_cast<double>(bad()) / static_cast<double>(attempted);
    }
    void merge(const OpCounts& o) noexcept {
        attempted += o.attempted;
        failed += o.failed;
        refused += o.refused;
        wrong += o.wrong;
    }
};

/// A closed interval of one span, with its parent (-1 for a root).
struct Interval {
    double start = 0;
    double end = 0;
    int parent = -1;
};

/// Self time of span i: its duration minus the part of it covered by the
/// union of its direct children (children clipped to the parent, overlaps
/// counted once).
[[nodiscard]] double self_time(const std::vector<Interval>& spans, std::size_t i);

/// Residual of a unit: the unit's measured total minus the sum of the
/// layer times measured for it. Positive when work happens outside every
/// timed layer; negative when the layers were timed on a different
/// execution than the total (e.g. a 1-lane replay against a batch wall).
[[nodiscard]] inline double residual(double total, const std::vector<double>& parts) {
    double sum = 0;
    for (double p : parts) sum += p;
    return total - sum;
}

} // namespace perfbench
