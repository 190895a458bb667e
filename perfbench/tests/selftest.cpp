// Harness self-tests: the arithmetic every reported number rests on.
// Built next to the benchmark; run with `python3 perfbench/run.py --selftest`.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "harness/alloc.hpp"
#include "harness/stats.hpp"
#include "harness/trace.hpp"

using namespace perfbench;

namespace {

int failures = 0;

void check(bool ok, const char* what, int line) {
    if (!ok) {
        ++failures;
        std::printf("FAIL line %d: %s\n", line, what);
    }
}
#define CHECK(cond) check((cond), #cond, __LINE__)

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

std::vector<double> ramp(std::size_t n) {
    std::vector<double> v;
    for (std::size_t i = n; i > 0; --i) v.push_back(static_cast<double>(i)); // 1..n, unsorted
    return v;
}

void percentile_rule() {
    // At least ten samples beyond the named percentile.
    CHECK(min_samples_for(0.99) == 1000);
    CHECK(min_samples_for(0.90) == 100);
    CHECK(min_samples_for(0.50) == 20);
    CHECK(!reportable_percentile(ramp(999), 0.99).has_value());
    CHECK(reportable_percentile(ramp(1000), 0.99).has_value());
    CHECK(!reportable_percentile(ramp(99), 0.90).has_value());
    CHECK(reportable_percentile(ramp(100), 0.90).has_value());
    // Nearest rank on unsorted input.
    CHECK(near(percentile(ramp(100), 0.5), 50));
    CHECK(near(percentile(ramp(100), 0.9), 90));
    CHECK(near(percentile(ramp(1000), 0.99), 990));
    CHECK(near(percentile(ramp(1), 0.99), 1));
    CHECK(near(percentile({}, 0.5), 0));
    CHECK(near(percentile(ramp(4), 1.0), 4));
    // The summary line names its shortfall instead of a number.
    const Series short_series{"query", ramp(500)};
    CHECK(short_series.describe(0.99).find("n/a") != std::string::npos);
    CHECK(short_series.describe(0.99).find("n=500 < 1000") != std::string::npos);
    CHECK(short_series.describe(0.9).find("query_p90_ms 450.0000 ms (n=500)") == 0);
}

void open_loop() {
    // A query due at 1.00 s that the generator could only send at 1.30 s
    // (stalled behind the previous reply) and that completed at 1.31 s
    // waited 310 ms from the user's point of view, not 10 ms.
    const OpenLoopSample stalled{1.00, 1.30, 1.31};
    CHECK(near(open_loop_latency_ms(stalled), 310));
    CHECK(near(generator_lateness_ms(stalled), 300));
    const OpenLoopSample on_time{2.00, 2.00, 2.002};
    CHECK(near(open_loop_latency_ms(on_time), 2));
    CHECK(near(generator_lateness_ms(on_time), 0));
    // Clock jitter that sends a hair early is not negative lateness.
    CHECK(near(generator_lateness_ms({3.0, 2.9999, 3.001}), 0));
}

void failure_counting() {
    OpCounts c;
    CHECK(near(c.failed_frac(), 0));
    c.attempted = 200;
    c.failed = 1;
    c.refused = 2;
    c.wrong = 1;
    CHECK(c.bad() == 4);
    CHECK(near(c.failed_frac(), 0.02));
    OpCounts d{100, 0, 0, 1};
    c.merge(d);
    CHECK(c.attempted == 300 && c.wrong == 2);
    CHECK(near(c.failed_frac(), 5.0 / 300.0));
}

void self_time_and_residual() {
    // root [0, 100] with children [10, 30] and [20, 50] (overlapping) and
    // [90, 120] (runs past the root): covered = [10, 50] + [90, 100].
    const std::vector<Interval> spans = {
        {0, 100, -1}, {10, 30, 0}, {20, 50, 0}, {90, 120, 0}, {12, 14, 1}};
    CHECK(near(self_time(spans, 0), 100 - 40 - 10));
    CHECK(near(self_time(spans, 1), 20 - 2)); // grandchild counted against its parent only
    CHECK(near(self_time(spans, 4), 2));
    CHECK(near(residual(100, {20, 30, 10}), 40));
    CHECK(near(residual(10, {12}), -2));

    Tracer t;
    {
        Span root(t, "unit", 7);
        { Span child(t, "layer", 7); }
        { Span child(t, "layer", 7); }
    }
    t.set_enabled(false);
    { Span ignored(t, "unit", 8); }
    CHECK(t.records().size() == 3);
    CHECK(t.records()[1].parent == 0 && t.records()[2].parent == 0);
    const auto agg = t.aggregate();
    CHECK(agg.at("layer").count == 2);
    CHECK(agg.at("unit").self_us <= agg.at("unit").total_us);
    CHECK(t.chrome_json({{"seed", "1"}}).find("\"ph\":\"X\"") != std::string::npos);
}

void allocation_counters() {
    static std::vector<int>* volatile sink = nullptr;
    const alloc::Scope scope;
    sink = new std::vector<int>(1000);
    delete sink;
    const alloc::Counts d = scope.delta();
    CHECK(d.allocations >= 2); // the vector object and its buffer
    CHECK(d.bytes >= 1000 * sizeof(int));
}

} // namespace

int main() {
    percentile_rule();
    open_loop();
    failure_counting();
    self_time_and_residual();
    allocation_counters();
    if (failures == 0) std::printf("perfbench selftest: all checks passed\n");
    return failures == 0 ? 0 : 1;
}
