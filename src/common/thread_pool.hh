/**
 * @file
 * A small fixed-size thread pool for fanning independent simulations
 * across cores.
 *
 * Design points, in order of importance:
 *  - Determinism: the pool never decides *what* work produces — only
 *    when it runs. parallelFor() hands out indices through a shared
 *    atomic counter (chunk-of-one work stealing), so scheduling order
 *    varies run to run but each index's work is independent and lands
 *    in its own slot; callers get bit-identical results regardless of
 *    worker count.
 *  - Exception safety: the first exception thrown by any task is
 *    captured and rethrown from wait() (and hence parallelFor()) on
 *    the calling thread; later exceptions are dropped.
 *  - Accountability: per-worker busy time is tracked so the harness
 *    can report utilization alongside wall-clock throughput.
 *
 * The ThreadPool class and resolveJobs() are the only code in src/
 * allowed to touch threads — tools/lbp_analyze.py's no-raw-thread rule
 * enforces it.
 * Everything else goes through ThreadPool so TSan coverage and
 * shutdown behaviour stay centralized.
 */

#ifndef LBP_COMMON_THREAD_POOL_HH
#define LBP_COMMON_THREAD_POOL_HH

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace lbp {

/** Most worker threads REPRO_JOBS or a --jobs flag may ask for. */
constexpr unsigned maxJobs = 1024;

/**
 * The REPRO_JOBS environment variable: 0 when unset, capped at
 * maxJobs. A value parseBounded() rejects throws std::invalid_argument
 * naming the variable.
 */
unsigned envJobs();

/**
 * Resolve a worker count: @p requested if non-zero, else envJobs() if
 * non-zero, else hardware concurrency (minimum 1).
 */
unsigned resolveJobs(unsigned requested);

/** Fixed-size worker pool; see the file comment for the determinism
 *  and exception-propagation contract. */
class ThreadPool
{
  public:
    /** Spawn @p workers threads (clamped to at least 1). */
    explicit ThreadPool(unsigned workers);

    /** Drains every pending task, then joins the workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Number of worker threads actually spawned. */
    unsigned
    workerCount() const
    {
        return static_cast<unsigned>(threads_.size());
    }

    /** Enqueue one task. Not callable from inside a task. */
    void submit(std::function<void()> task);

    /**
     * Block until every submitted task has finished; rethrows the
     * first task exception (then clears it, so the pool is reusable).
     */
    void wait();

    /**
     * Run body(0..n-1) across the workers and block until done.
     * Indices are claimed dynamically (one at a time) so uneven work
     * self-balances. Rethrows the first body exception.
     */
    void parallelFor(std::size_t n,
                     const std::function<void(std::size_t)> &body);

    /** Cumulative busy seconds per worker. Call only while idle. */
    std::vector<double> busySeconds() const;

    /**
     * Index of the pool worker executing the caller (0-based), or -1
     * when called off-pool (e.g. from the main thread). Lets tasks
     * attribute their output — the sweep event log records which
     * worker simulated each cell — without threading an id through
     * every callback.
     */
    static int currentIndex();

  private:
    void workerLoop(unsigned idx);

    std::vector<std::thread> threads_;
    std::vector<double> busy_;  ///< guarded by mu_
    mutable std::mutex mu_;
    std::condition_variable cvTask_;
    std::condition_variable cvIdle_;
    std::deque<std::function<void()>> queue_;
    std::exception_ptr firstError_;
    unsigned active_ = 0;
    bool stop_ = false;
};

} // namespace lbp

#endif // LBP_COMMON_THREAD_POOL_HH
