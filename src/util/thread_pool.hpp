// A small fixed-size thread pool with a chunked dynamic parallel_for —
// the fan-out substrate for the parallel association engine. Workers pull
// index chunks from a shared atomic cursor (work-stealing in the "steal
// from a common bag" sense), so uneven per-item cost (one attribute
// matching 9k vulnerabilities next to one matching nothing) load-balances
// without any per-item queueing.

#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace cybok::util {

/// Fixed-size worker pool. Construction spawns `threads - 1` workers (the
/// calling thread participates in every parallel_for, so `threads == 1`
/// means "no workers, run inline"). Safe to call parallel_for from many
/// threads concurrently: on a pool with workers calls are serialized
/// internally, each runs to completion with the full pool; without
/// workers each call runs inline on its caller, concurrently.
class ThreadPool {
public:
    /// `threads == 0` selects hardware_concurrency (at least 1).
    explicit ThreadPool(std::size_t threads = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    /// Total execution lanes (workers + the calling thread).
    [[nodiscard]] std::size_t thread_count() const noexcept { return workers_.size() + 1; }

    /// Run `fn(i)` for every i in [0, n), blocking until all complete.
    /// Iterations are claimed in chunks from a shared cursor; the order of
    /// execution is unspecified but every index runs exactly once. If any
    /// invocation throws, the first exception is rethrown on the calling
    /// thread after the loop drains (remaining indices still run).
    void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

    /// hardware_concurrency with a floor of 1.
    [[nodiscard]] static std::size_t default_thread_count() noexcept;

private:
    void worker_loop();
    void run_chunks(const std::function<void(std::size_t)>& fn, std::size_t n);

    std::vector<std::thread> workers_;
    std::mutex serial_mutex_; // one parallel_for at a time

    std::mutex mutex_;
    std::condition_variable cv_work_;
    std::condition_variable cv_done_;
    const std::function<void(std::size_t)>* job_fn_ = nullptr;
    std::size_t job_n_ = 0;
    std::size_t chunk_ = 1;
    std::atomic<std::size_t> next_{0};
    std::size_t active_workers_ = 0;
    std::uint64_t generation_ = 0;
    std::exception_ptr first_error_;
    bool stop_ = false;
};

/// One-shot convenience over a transient pool is intentionally absent:
/// thread spawn cost would dwarf most association workloads. Hold a
/// ThreadPool (or use search::Associator, which owns one).

} // namespace cybok::util
