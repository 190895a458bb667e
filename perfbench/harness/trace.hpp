// Benchmark-side spans around calls into the library's public functions.
//
// The traced run wraps each layer call in a Span; spans carry a name, a
// start and end (steady_clock), the enclosing span as parent, and a unit id
// (one per system, request or feed tick). They stay in memory and are
// written at exit as Chrome trace-event JSON (opens in Perfetto or
// chrome://tracing), the same sink in-program spans can later share.
//
// Single-threaded by design: the traced replay runs every layer call
// inline on the calling thread, so parent links are a simple stack.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
public:
    struct Record {
        std::string name;
        std::uint64_t unit = 0;
        double start_us = 0;
        double end_us = 0;
        int parent = -1;
    };

    /// Per-name aggregate over recorded spans.
    struct Agg {
        std::size_t count = 0;
        double total_us = 0;
        double self_us = 0;
    };

    void set_enabled(bool on) noexcept { enabled_ = on; }

    /// Open a span; returns its index (-1 when disabled).
    int begin(std::string name, std::uint64_t unit);
    /// Close span `index`; returns its duration in microseconds (0 when
    /// disabled or index < 0).
    double end(int index);

    [[nodiscard]] const std::vector<Record>& records() const noexcept { return records_; }
    /// Count, total and self time per span name (self = duration minus the
    /// union of direct children).
    [[nodiscard]] std::map<std::string, Agg> aggregate() const;
    /// Chrome trace-event JSON: one "X" complete event per span, with the
    /// unit and parent in args, plus `meta` as process metadata.
    [[nodiscard]] std::string chrome_json(const std::map<std::string, std::string>& meta) const;

    [[nodiscard]] double now_us() const noexcept {
        return std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - t0_)
            .count();
    }

private:
    bool enabled_ = true;
    std::chrono::steady_clock::time_point t0_ = std::chrono::steady_clock::now();
    std::vector<Record> records_;
    std::vector<int> stack_;
};

/// RAII span on a Tracer; elapsed_ms() is valid after close() or scope end.
class Span {
public:
    Span(Tracer& t, std::string name, std::uint64_t unit)
        : tracer_(t), index_(t.begin(std::move(name), unit)), start_(Clock::now()) {}
    ~Span() { close(); }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

    /// Close now; returns the wall duration in milliseconds (measured
    /// whether or not tracing is enabled, so untraced passes time the same
    /// call boundaries).
    double close() {
        if (!open_) return ms_;
        open_ = false;
        ms_ = std::chrono::duration<double, std::milli>(Clock::now() - start_).count();
        tracer_.end(index_);
        return ms_;
    }

private:
    using Clock = std::chrono::steady_clock;
    Tracer& tracer_;
    int index_;
    Clock::time_point start_;
    bool open_ = true;
    double ms_ = 0;
};

} // namespace perfbench
