/**
 * @file
 * Tests for the sim harness: environment knobs, run accounting, and
 * TAGE-configuration property sweeps through the full runner path.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "common/parse.hh"
#include "sim/runner.hh"
#include "sim/suite_cache.hh"
#include "workload/suite.hh"

using namespace lbp;

TEST(BenchEnv, DefaultsWhenUnset)
{
    unsetenv("REPRO_INSTR");
    unsetenv("REPRO_WARMUP");
    unsetenv("REPRO_WORKLOADS");
    unsetenv("REPRO_JOBS");
    const BenchEnv env = BenchEnv::fromEnvironment();
    EXPECT_EQ(env.measureInstrs, 60000u);
    EXPECT_EQ(env.warmupInstrs, 40000u);
    EXPECT_EQ(env.maxWorkloads, 0u);
    EXPECT_EQ(env.jobs, 0u);
}

TEST(BenchEnv, ReadsOverrides)
{
    setenv("REPRO_INSTR", "12345", 1);
    setenv("REPRO_WARMUP", "777", 1);
    setenv("REPRO_WORKLOADS", "9", 1);
    setenv("REPRO_JOBS", "3", 1);
    const BenchEnv env = BenchEnv::fromEnvironment();
    EXPECT_EQ(env.measureInstrs, 12345u);
    EXPECT_EQ(env.warmupInstrs, 777u);
    EXPECT_EQ(env.maxWorkloads, 9u);
    EXPECT_EQ(env.jobs, 3u);
    setenv("REPRO_WARMUP", "12k", 1);
    EXPECT_THROW(BenchEnv::fromEnvironment(), std::invalid_argument);
    unsetenv("REPRO_INSTR");
    unsetenv("REPRO_WARMUP");
    unsetenv("REPRO_WORKLOADS");
    unsetenv("REPRO_JOBS");

    SimConfig cfg;
    BenchEnv e2;
    e2.warmupInstrs = 111;
    e2.measureInstrs = 222;
    e2.apply(cfg);
    EXPECT_EQ(cfg.warmupInstrs, 111u);
    EXPECT_EQ(cfg.measureInstrs, 222u);
}

TEST(BenchEnv, EnvValuesParseStrictly)
{
    EXPECT_EQ(parseEnvValue<std::uint64_t>("REPRO_INSTR", "12345", 0,
                                           UINT64_MAX),
              12345u);
    EXPECT_EQ(parseEnvValue<unsigned>("REPRO_WORKLOADS", "0", 0, 202), 0u);
    // Junk used to become 0 (REPRO_INSTR=abc measured nothing); now it
    // is an error that names the variable and the accepted range.
    for (const char *bad : {"abc", "", " 5", "5 ", "5x", "-1", "+3", "0x10",
                            "99999999999999999999999"}) {
        try {
            parseEnvValue<std::uint64_t>("REPRO_INSTR", bad, 0, UINT64_MAX);
            ADD_FAILURE() << "accepted '" << bad << "'";
        } catch (const std::invalid_argument &e) {
            EXPECT_NE(std::string(e.what()).find("REPRO_INSTR"),
                      std::string::npos)
                << e.what();
        }
    }
    EXPECT_THROW(parseEnvValue<unsigned>("REPRO_WORKLOADS", "203", 0, 202),
                 std::invalid_argument);
}

TEST(Runner, RunOneFillsEveryField)
{
    const Program prog =
        buildWorkload(categoryProfiles()[0], 3, SuiteOptions{}.seed);
    SimConfig cfg;
    cfg.warmupInstrs = 10000;
    cfg.measureInstrs = 20000;
    cfg.useLocal = true;
    cfg.repair.kind = RepairKind::ForwardWalk;
    const RunResult r = runOne(prog, cfg);
    EXPECT_EQ(r.workload, prog.name);
    EXPECT_EQ(r.category, "Server");
    EXPECT_GT(r.ipc, 0.0);
    EXPECT_GE(r.stats.retiredInstrs, 20000u);
    EXPECT_GT(r.tageKB, 5.0);
    EXPECT_GT(r.localKB, 0.3);
    EXPECT_GT(r.repairKB, 0.2);
}

TEST(Runner, RunOneIsDeterministic)
{
    const Program prog =
        buildWorkload(categoryProfiles()[4], 0, SuiteOptions{}.seed);
    SimConfig cfg;
    cfg.warmupInstrs = 10000;
    cfg.measureInstrs = 20000;
    const RunResult a = runOne(prog, cfg);
    const RunResult b = runOne(prog, cfg);
    EXPECT_EQ(a.stats.cycles, b.stats.cycles);
    EXPECT_EQ(a.stats.mispredicts, b.stats.mispredicts);
}

// A TAGE-configuration property: bigger configurations never do
// meaningfully worse, end to end through the pipeline.
class TageConfigs : public ::testing::TestWithParam<int>
{
};

TEST_P(TageConfigs, LargerIsNotWorse)
{
    const Program prog = buildWorkload(
        categoryProfiles()[static_cast<unsigned>(GetParam())], 0,
        SuiteOptions{}.seed);
    SimConfig small;
    small.warmupInstrs = 15000;
    small.measureInstrs = 30000;
    SimConfig big = small;
    big.tage = TageConfig::kb57();
    const RunResult rs = runOne(prog, small);
    const RunResult rb = runOne(prog, big);
    EXPECT_LE(rb.mpki, rs.mpki * 1.1)
        << "57KB TAGE must not lose to 7KB";
}

INSTANTIATE_TEST_SUITE_P(Categories, TageConfigs,
                         ::testing::Values(0, 2, 4, 6));

TEST(Runner, SCurveIsSortedAscending)
{
    SuiteOptions opts;
    opts.maxWorkloads = 7;
    const auto suite = buildSuite(opts);
    SimConfig base;
    base.warmupInstrs = 8000;
    base.measureInstrs = 15000;
    SimConfig test = base;
    test.useLocal = true;
    test.repair.kind = RepairKind::Perfect;
    const auto curve =
        ipcSCurve(runSuite(suite, base), runSuite(suite, test));
    for (std::size_t i = 1; i < curve.size(); ++i)
        EXPECT_LE(curve[i - 1].second, curve[i].second);
}

namespace {

/** A suite whose runs all have the given IPC (zero = degenerate). */
SuiteResult
syntheticSuite(double ipc)
{
    SuiteResult s;
    for (int i = 0; i < 3; ++i) {
        RunResult r;
        r.workload = "w" + std::to_string(i);
        r.category = i < 2 ? "A" : "B";
        r.ipc = ipc;
        s.runs.push_back(r);
    }
    return s;
}

} // namespace

TEST(Runner, IpcGainGuardsEmptyRatioList)
{
    // All-zero-IPC suites produce no comparable pairs. geomean of an
    // empty list is 0, which naively reads as a -100% "gain"; the
    // aggregation must report 0 (no data) instead.
    const SuiteResult dead = syntheticSuite(0.0);
    EXPECT_EQ(ipcGainPct(dead, dead), 0.0);

    const SuiteResult live = syntheticSuite(1.5);
    EXPECT_EQ(ipcGainPct(live, dead), 0.0);
    EXPECT_EQ(ipcGainPct(dead, live), 0.0);
    EXPECT_NEAR(ipcGainPct(live, live), 0.0, 1e-12);
}

TEST(Runner, AggregateByCategoryGuardsEmptyRatioList)
{
    const SuiteResult dead = syntheticSuite(0.0);
    for (const CategoryAgg &c : aggregateByCategory(dead, dead)) {
        EXPECT_EQ(c.ipcGainPct, 0.0) << c.name;
        EXPECT_EQ(c.mpkiReductionPct, 0.0) << c.name;
    }
}

TEST(SuiteCache, SecondRunIsAMemoHit)
{
    SuiteOptions opts;
    opts.maxWorkloads = 3;
    const auto suite = buildSuite(opts);
    SimConfig cfg;
    cfg.warmupInstrs = 4000;
    cfg.measureInstrs = 8000;

    SuiteCache cache;
    const SuiteResult &a = cache.run(suite, cfg, 1);
    EXPECT_EQ(cache.stats().misses, 1u);
    EXPECT_EQ(cache.stats().hits, 0u);

    const SuiteResult &b = cache.run(suite, cfg, 1);
    EXPECT_EQ(cache.stats().misses, 1u);
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(&a, &b);  // the cache hands back the same entry
    EXPECT_EQ(cache.entries(), 1u);
}

TEST(SuiteCache, DistinctConfigsAreDistinctEntries)
{
    SuiteOptions opts;
    opts.maxWorkloads = 2;
    const auto suite = buildSuite(opts);
    SimConfig base;
    base.warmupInstrs = 4000;
    base.measureInstrs = 8000;
    SimConfig local = base;
    local.useLocal = true;
    local.repair.kind = RepairKind::Perfect;

    SuiteCache cache;
    cache.run(suite, base, 1);
    cache.run(suite, local, 1);
    EXPECT_EQ(cache.stats().misses, 2u);
    EXPECT_EQ(cache.stats().hits, 0u);
    EXPECT_EQ(cache.entries(), 2u);
}

TEST(SuiteCache, RepairFieldsIgnoredWithoutUseLocal)
{
    // The core builds no repair scheme when useLocal is off, so two
    // baseline configs differing only in leftover repair fields must
    // share one cache entry.
    SimConfig a;
    a.warmupInstrs = 4000;
    a.measureInstrs = 8000;
    SimConfig b = a;
    b.repair.kind = RepairKind::Snapshot;
    b.repair.ports = {64, 8, 8};
    EXPECT_EQ(configKey(a), configKey(b));
    b.useLocal = true;
    EXPECT_NE(configKey(a), configKey(b));
}

TEST(Runner, SuiteTelemetryIsFilledIn)
{
    SuiteOptions opts;
    opts.maxWorkloads = 3;
    const auto suite = buildSuite(opts);
    SimConfig cfg;
    cfg.warmupInstrs = 4000;
    cfg.measureInstrs = 8000;
    const SuiteResult res = runSuite(suite, cfg, 2);
    EXPECT_EQ(res.telemetry.workloads, suite.size());
    EXPECT_EQ(res.telemetry.jobs, 2u);
    EXPECT_GT(res.telemetry.wallSeconds, 0.0);
    EXPECT_GT(res.telemetry.simInstrs, 0u);
    EXPECT_GT(res.telemetry.minstrPerSec(), 0.0);
    EXPECT_EQ(res.telemetry.label, configLabel(cfg));
    EXPECT_EQ(res.telemetry.workerBusySeconds.size(), 2u);
}
