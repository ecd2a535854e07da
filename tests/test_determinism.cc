/**
 * @file
 * Determinism regression: two executions of the same seeded
 * configuration must produce bit-identical results. Every source of
 * randomness in the tree flows from the explicit seeds in
 * common/random.hh (enforced by tools/lbp_analyze.py), so any divergence
 * here means hidden state leaked between runs — iteration-order
 * dependence, uninitialized reads, or wall-clock coupling.
 */

#include <gtest/gtest.h>

#include "sim/runner.hh"
#include "sim/suite_cache.hh"
#include "sim/sweep.hh"
#include "workload/suite.hh"

using namespace lbp;

namespace {

void
expectIdentical(const RunResult &a, const RunResult &b)
{
    EXPECT_EQ(a.workload, b.workload);
    EXPECT_EQ(a.stats.cycles, b.stats.cycles);
    EXPECT_EQ(a.stats.retiredInstrs, b.stats.retiredInstrs);
    EXPECT_EQ(a.stats.retiredCond, b.stats.retiredCond);
    EXPECT_EQ(a.stats.mispredicts, b.stats.mispredicts);
    EXPECT_EQ(a.stats.earlyResteers, b.stats.earlyResteers);
    EXPECT_EQ(a.stats.wrongPathFetched, b.stats.wrongPathFetched);
    EXPECT_EQ(a.stats.btbMisses, b.stats.btbMisses);
    EXPECT_EQ(a.stats.fetchedInstrs, b.stats.fetchedInstrs);
    EXPECT_EQ(a.ipc, b.ipc);    // exact: same arithmetic, same order
    EXPECT_EQ(a.mpki, b.mpki);
    EXPECT_EQ(a.overrides, b.overrides);
    EXPECT_EQ(a.overridesCorrect, b.overridesCorrect);
    EXPECT_EQ(a.repairs, b.repairs);
    EXPECT_EQ(a.repairWrites, b.repairWrites);
    EXPECT_EQ(a.uncheckpointedMispredicts,
              b.uncheckpointedMispredicts);
    EXPECT_EQ(a.deniedPredictions, b.deniedPredictions);
    EXPECT_EQ(a.skippedSpecUpdates, b.skippedSpecUpdates);
    EXPECT_EQ(a.avgRepairsNeeded, b.avgRepairsNeeded);
    EXPECT_EQ(a.avgWalkLength, b.avgWalkLength);
    EXPECT_EQ(a.avgRepairWrites, b.avgRepairWrites);
    EXPECT_EQ(a.avgRepairCycles, b.avgRepairCycles);
    EXPECT_EQ(a.cacheAccesses, b.cacheAccesses);
    EXPECT_EQ(a.cacheMisses, b.cacheMisses);
    EXPECT_EQ(a.auditChecks, b.auditChecks);
    EXPECT_EQ(a.auditViolations, b.auditViolations);
}

SimConfig
schemeConfig(RepairKind kind)
{
    SimConfig cfg;
    cfg.warmupInstrs = 15000;
    cfg.measureInstrs = 30000;
    cfg.useLocal = true;
    cfg.repair.kind = kind;
    return cfg;
}

} // namespace

TEST(Determinism, IdenticalRunsBitIdenticalStats)
{
    const Program prog =
        buildWorkload(categoryProfiles()[0], 0, SuiteOptions{}.seed);
    for (const RepairKind kind :
         {RepairKind::BackwardWalk, RepairKind::ForwardWalk,
          RepairKind::Snapshot, RepairKind::MultiStage}) {
        const SimConfig cfg = schemeConfig(kind);
        const RunResult a = runOne(prog, cfg);
        const RunResult b = runOne(prog, cfg);
        expectIdentical(a, b);
    }
}

TEST(Determinism, WorkloadGenerationIsSeedStable)
{
    const Program a =
        buildWorkload(categoryProfiles()[1], 2, SuiteOptions{}.seed);
    const Program b =
        buildWorkload(categoryProfiles()[1], 2, SuiteOptions{}.seed);
    EXPECT_EQ(a.name, b.name);
    ASSERT_EQ(a.blocks.size(), b.blocks.size());
    ASSERT_EQ(a.branches.size(), b.branches.size());
    for (std::size_t i = 0; i < a.blocks.size(); ++i) {
        ASSERT_EQ(a.blocks[i].body.size(), b.blocks[i].body.size());
        EXPECT_EQ(a.blocks[i].takenTarget, b.blocks[i].takenTarget);
        EXPECT_EQ(a.blocks[i].fallThrough, b.blocks[i].fallThrough);
        for (std::size_t j = 0; j < a.blocks[i].body.size(); ++j)
            ASSERT_EQ(a.blocks[i].body[j].pc, b.blocks[i].body[j].pc)
                << "block " << i << " inst " << j;
    }
    for (std::size_t i = 0; i < a.branches.size(); ++i)
        EXPECT_EQ(a.branches[i].pc, b.branches[i].pc);
}

TEST(Determinism, FreshSuiteRunsMatch)
{
    SuiteOptions opts;
    const std::vector<Program> s1 = buildSuite(opts);
    const SimConfig cfg = schemeConfig(RepairKind::ForwardWalk);

    // Two fully independent suite executions over the first few
    // workloads (the full 202 would be slow here).
    for (std::size_t i = 0; i < 3 && i < s1.size(); ++i)
        expectIdentical(runOne(s1[i], cfg), runOne(s1[i], cfg));
}

TEST(Determinism, ParallelMatchesSerial)
{
    // The parallel suite engine must be an observational no-op: a
    // jobs=4 run is bit-identical to jobs=1, run by run and in suite
    // order, for every scheme. Each runOne owns its core, so the only
    // way this fails is shared mutable state leaking across workers.
    SuiteOptions opts;
    opts.maxWorkloads = 8;
    const std::vector<Program> suite = buildSuite(opts);
    ASSERT_GE(suite.size(), 4u);

    for (const RepairKind kind :
         {RepairKind::ForwardWalk, RepairKind::Snapshot}) {
        SimConfig cfg = schemeConfig(kind);
        cfg.warmupInstrs = 8000;
        cfg.measureInstrs = 15000;
        const SuiteResult serial = runSuite(suite, cfg, 1);
        const SuiteResult parallel = runSuite(suite, cfg, 4);
        ASSERT_EQ(serial.runs.size(), parallel.runs.size());
        for (std::size_t i = 0; i < serial.runs.size(); ++i) {
            SCOPED_TRACE(serial.runs[i].workload);
            expectIdentical(serial.runs[i], parallel.runs[i]);
        }
        EXPECT_EQ(parallel.telemetry.jobs, 4u);
        EXPECT_EQ(serial.telemetry.jobs, 1u);
        EXPECT_EQ(serial.telemetry.simInstrs,
                  parallel.telemetry.simInstrs);
    }
}

TEST(Determinism, SweepMatchesSerial)
{
    // Sweep orchestration (cell queue over the pool, cache/store
    // probing, preassigned result slots) must be an observational
    // no-op: every config's runs are bit-identical to a serial
    // per-config runSuite() call.
    SuiteOptions opts;
    opts.maxWorkloads = 6;
    const std::vector<Program> suite = buildSuite(opts);

    std::vector<SweepConfig> configs;
    for (const RepairKind kind :
         {RepairKind::ForwardWalk, RepairKind::Snapshot,
          RepairKind::BackwardWalk}) {
        SimConfig cfg = schemeConfig(kind);
        cfg.warmupInstrs = 8000;
        cfg.measureInstrs = 15000;
        configs.push_back({configLabel(cfg), cfg});
    }

    SuiteCache cache;
    SweepOptions so;
    so.jobs = 4;
    so.cache = &cache;
    const SweepResult sweep = runSweep(suite, configs, so);
    ASSERT_EQ(sweep.configResults.size(), configs.size());
    EXPECT_EQ(sweep.stats.cellsSimulated,
              configs.size() * suite.size());

    for (std::size_t c = 0; c < configs.size(); ++c) {
        SCOPED_TRACE(configs[c].name);
        ASSERT_NE(sweep.configResults[c], nullptr);
        const SuiteResult serial = runSuite(suite, configs[c].cfg, 1);
        const SuiteResult &swept = *sweep.configResults[c];
        ASSERT_EQ(serial.runs.size(), swept.runs.size());
        for (std::size_t i = 0; i < serial.runs.size(); ++i) {
            SCOPED_TRACE(serial.runs[i].workload);
            expectIdentical(serial.runs[i], swept.runs[i]);
        }
    }
}
