#include "harness/stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

double percentile(std::vector<double> samples, double q) {
    if (samples.empty()) return 0.0;
    std::sort(samples.begin(), samples.end());
    const double rank = std::ceil(q * static_cast<double>(samples.size()));
    std::size_t idx = rank <= 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
    if (idx >= samples.size()) idx = samples.size() - 1;
    return samples[idx];
}

std::size_t min_samples_for(double q, std::size_t beyond) {
    // n * (1 - q) >= beyond, computed in integer percent-of-percent steps so
    // 0.99 gives exactly 1000 rather than 999.9999.
    const auto tail_bp = static_cast<std::size_t>(std::llround((1.0 - q) * 10000.0));
    if (tail_bp == 0) return SIZE_MAX;
    return (beyond * 10000 + tail_bp - 1) / tail_bp;
}

std::optional<double> reportable_percentile(const std::vector<double>& samples, double q) {
    if (samples.size() < min_samples_for(q)) return std::nullopt;
    return percentile(samples, q);
}

std::string Series::describe(double q) const {
    const int pct = static_cast<int>(std::lround(q * 100.0));
    char buf[160];
    if (const std::optional<double> v = reportable_percentile(samples, q)) {
        std::snprintf(buf, sizeof buf, "%s_p%d_ms %.4f ms (n=%zu)", name.c_str(), pct, *v,
                      samples.size());
    } else {
        std::snprintf(buf, sizeof buf, "%s_p%d_ms n/a ms (n=%zu < %zu needed)", name.c_str(),
                      pct, samples.size(), min_samples_for(q));
    }
    return buf;
}

double open_loop_latency_ms(const OpenLoopSample& s) { return (s.done_s - s.due_s) * 1e3; }

double generator_lateness_ms(const OpenLoopSample& s) {
    return std::max(0.0, s.sent_s - s.due_s) * 1e3;
}

double self_time(const std::vector<Interval>& spans, std::size_t i) {
    const Interval& me = spans[i];
    std::vector<std::pair<double, double>> kids;
    for (const Interval& s : spans) {
        if (s.parent != static_cast<int>(i)) continue;
        const double a = std::max(s.start, me.start);
        const double b = std::min(s.end, me.end);
        if (b > a) kids.emplace_back(a, b);
    }
    std::sort(kids.begin(), kids.end());
    double covered = 0;
    double cur_a = 0;
    double cur_b = -1;
    bool open = false;
    for (const auto& [a, b] : kids) {
        if (open && a <= cur_b) {
            cur_b = std::max(cur_b, b);
            continue;
        }
        if (open) covered += cur_b - cur_a;
        cur_a = a;
        cur_b = b;
        open = true;
    }
    if (open) covered += cur_b - cur_a;
    return (me.end - me.start) - covered;
}

} // namespace perfbench
