/**
 * @file
 * Unit tests for the common/thread_pool engine: job-count resolution,
 * index coverage and slot placement under parallelFor, exception
 * propagation to the calling thread, drain-on-destruct, and the
 * utilization accounting. The final test measures the actual parallel
 * speedup of a suite run and is skipped on machines without enough
 * hardware threads for the ratio to be meaningful.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/thread_pool.hh"
#include "sim/runner.hh"
#include "workload/suite.hh"

using namespace lbp;

TEST(ResolveJobs, ExplicitRequestWins)
{
    ASSERT_EQ(setenv("REPRO_JOBS", "7", 1), 0);
    EXPECT_EQ(resolveJobs(3), 3u);
    unsetenv("REPRO_JOBS");
}

TEST(ResolveJobs, ReadsReproJobsEnv)
{
    ASSERT_EQ(setenv("REPRO_JOBS", "5", 1), 0);
    EXPECT_EQ(resolveJobs(0), 5u);
    ASSERT_EQ(setenv("REPRO_JOBS", "999999", 1), 0);
    EXPECT_EQ(resolveJobs(0), 1024u);  // sanity clamp
    ASSERT_EQ(setenv("REPRO_JOBS", "0", 1), 0);
    EXPECT_GE(resolveJobs(0), 1u);     // 0 falls through to hardware
    // Junk is an error, not a silent 0; only a count is returned, no
    // pool is started.
    ASSERT_EQ(setenv("REPRO_JOBS", "4x", 1), 0);
    EXPECT_THROW(resolveJobs(0), std::invalid_argument);
    EXPECT_EQ(resolveJobs(2), 2u);     // an explicit count never reads it
    unsetenv("REPRO_JOBS");
    EXPECT_GE(resolveJobs(0), 1u);
}

TEST(ThreadPool, WorkerCountClampsToOne)
{
    ThreadPool pool(0);
    EXPECT_EQ(pool.workerCount(), 1u);
}

TEST(ThreadPool, ParallelForCoversEveryIndexOnce)
{
    constexpr std::size_t kN = 500;
    ThreadPool pool(4);
    std::vector<std::atomic<unsigned>> hits(kN);
    std::vector<std::size_t> slot(kN, 0);
    pool.parallelFor(kN, [&](std::size_t i) {
        hits[i].fetch_add(1);
        slot[i] = i * i;  // each index writes only its own slot
    });
    for (std::size_t i = 0; i < kN; ++i) {
        EXPECT_EQ(hits[i].load(), 1u) << "index " << i;
        EXPECT_EQ(slot[i], i * i) << "index " << i;
    }
}

TEST(ThreadPool, ParallelForZeroIsNoop)
{
    ThreadPool pool(2);
    bool ran = false;
    pool.parallelFor(0, [&](std::size_t) { ran = true; });
    EXPECT_FALSE(ran);
}

TEST(ThreadPool, ExceptionPropagatesThroughWait)
{
    ThreadPool pool(2);
    pool.submit([] { throw std::runtime_error("task failed"); });
    EXPECT_THROW(pool.wait(), std::runtime_error);

    // The error is cleared on rethrow: the pool stays usable.
    std::atomic<int> ok{0};
    pool.submit([&] { ++ok; });
    pool.wait();
    EXPECT_EQ(ok.load(), 1);
}

TEST(ThreadPool, ExceptionPropagatesThroughParallelFor)
{
    ThreadPool pool(3);
    EXPECT_THROW(pool.parallelFor(16,
                                  [&](std::size_t i) {
                                      if (i == 7)
                                          throw std::logic_error("bad");
                                  }),
                 std::logic_error);
}

TEST(ThreadPool, DestructorDrainsPendingTasks)
{
    std::atomic<int> done{0};
    {
        ThreadPool pool(1);
        for (int i = 0; i < 32; ++i)
            pool.submit([&] { ++done; });
        // No wait(): destruction must still run every queued task.
    }
    EXPECT_EQ(done.load(), 32);
}

TEST(ThreadPool, BusySecondsTracksEachWorker)
{
    ThreadPool pool(3);
    std::atomic<std::uint64_t> sink{0};
    pool.parallelFor(6, [&](std::size_t) {
        std::uint64_t x = 0;
        for (int i = 0; i < 100000; ++i)
            x += static_cast<std::uint64_t>(i);
        sink += x;  // keep the loop observable
    });
    const std::vector<double> busy = pool.busySeconds();
    ASSERT_EQ(busy.size(), 3u);
    for (const double b : busy)
        EXPECT_GE(b, 0.0);
    const double total =
        std::accumulate(busy.begin(), busy.end(), 0.0);
    EXPECT_GT(total, 0.0);
}

TEST(ThreadPool, ParallelSuiteSpeedup)
{
    // Acceptance target: jobs=4 is >= 2.5x faster than serial on a
    // 20-workload suite. The ratio only exists with real hardware
    // parallelism, so skip where threads would just time-slice.
    if (std::thread::hardware_concurrency() < 4)
        GTEST_SKIP() << "needs >= 4 hardware threads, have "
                     << std::thread::hardware_concurrency();

    SuiteOptions opts;
    opts.maxWorkloads = 20;
    const std::vector<Program> suite = buildSuite(opts);
    SimConfig cfg;
    cfg.warmupInstrs = 20000;
    cfg.measureInstrs = 40000;
    cfg.useLocal = true;
    cfg.repair.kind = RepairKind::ForwardWalk;

    const SuiteResult serial = runSuite(suite, cfg, 1);
    const SuiteResult parallel = runSuite(suite, cfg, 4);
    ASSERT_GT(parallel.telemetry.wallSeconds, 0.0);
    EXPECT_GE(serial.telemetry.wallSeconds /
                  parallel.telemetry.wallSeconds,
              2.5)
        << "serial " << serial.telemetry.wallSeconds << "s vs parallel "
        << parallel.telemetry.wallSeconds << "s";
}
