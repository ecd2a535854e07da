/**
 * @file
 * Experiment harness: run one workload (warm-up + measurement) and run
 * whole suites, with the aggregation the paper's figures use —
 * per-category MPKI reduction (misprediction-weighted) and geometric-
 * mean IPC gain versus a baseline configuration.
 */

#ifndef LBP_SIM_RUNNER_HH
#define LBP_SIM_RUNNER_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/telemetry.hh"
#include "core/core.hh"
#include "workload/program.hh"

namespace lbp {

/**
 * Result of simulating one workload under one configuration.
 *
 * Exported names/units for these fields live in the obs metric table
 * (src/obs/metrics.cc runMetrics(), documented in docs/METRICS.md);
 * exporters iterate that table rather than naming fields ad hoc.
 */
struct RunResult
{
    std::string workload;  ///< workload name ("Server:0")
    std::string category;  ///< Table-1 category the workload belongs to

    CoreStats stats;   ///< measurement window only (warm-up excluded)
    double ipc = 0.0;  ///< retired instructions per cycle (window)
    double mpki = 0.0; ///< mispredictions per kilo-instruction (window)

    // Scheme-side counters (whole run; window-independent shapes).
    std::uint64_t overrides = 0;         ///< local overrides of TAGE
    std::uint64_t overridesCorrect = 0;  ///< ...that were right
    std::uint64_t repairs = 0;           ///< repair episodes triggered
    std::uint64_t repairWrites = 0;      ///< BHT writes repairs made
    std::uint64_t earlyResteers = 0;     ///< alloc-stage resteers (3.2)
    std::uint64_t earlyResteersWrong = 0;  ///< ...with a wrong direction
    std::uint64_t uncheckpointedMispredicts = 0;  ///< OBQ-overflow cases
    std::uint64_t deniedPredictions = 0; ///< BHT busy at lookup (2.5)
    std::uint64_t skippedSpecUpdates = 0;  ///< BHT busy at spec update
    double avgRepairsNeeded = 0.0;  ///< mean polluted PCs per flush (Fig 8)
    std::uint64_t maxRepairsNeeded = 0;  ///< worst-case polluted PCs
    double avgWalkLength = 0.0;     ///< mean OBQ entries walked per repair
    double avgRepairWrites = 0.0;   ///< mean BHT writes per repair
    double avgRepairCycles = 0.0;   ///< mean cycles a repair occupied

    // Invariant-auditor outcome (LBP_AUDIT builds with an auditable
    // scheme; all-zero otherwise).
    std::uint64_t auditChecks = 0;      ///< recovery + retire checks
    std::uint64_t auditViolations = 0;  ///< must stay 0
    std::uint64_t auditResyncs = 0;     ///< oracle resyncs after gaps
    std::uint64_t auditSkipped = 0;     ///< checks skipped (declared gaps)
    std::uint64_t auditUncovered = 0;   ///< recoveries with no checkpoint

    // Cache-hierarchy totals (all levels, whole run).
    std::uint64_t cacheAccesses = 0;      ///< L1I+L1D+L2+LLC accesses
    std::uint64_t cacheMisses = 0;        ///< misses across those levels
    std::uint64_t cachePrefetchFills = 0; ///< next-line prefetch fills

    // Storage accounting for Table 3.
    double tageKB = 0.0;    ///< TAGE tables
    double localKB = 0.0;   ///< local predictor (BHT+PT, both for 3.2)
    double repairKB = 0.0;  ///< repair structures (OBQ/snapshots/...)

    /**
     * Observability capture (stage events, squash forensics,
     * histograms); null unless SimConfig::obs asked for it. Shared so
     * copying results around the suite machinery stays cheap;
     * excluded — like telemetry — from determinism comparisons.
     */
    std::shared_ptr<const ObsRun> obs;
};

/** Simulate one workload under @p cfg. */
RunResult runOne(const Program &prog, const SimConfig &cfg);

/** One RunResult per workload, in suite order. */
struct SuiteResult
{
    std::vector<RunResult> runs;

    /**
     * Throughput record of the execution that produced the runs.
     * Observational only — never feeds back into simulation, and is
     * excluded from determinism comparisons (runs must be
     * bit-identical for any jobs count; wall time obviously is not).
     */
    SuiteTelemetry telemetry;
};

/** Short human label for a configuration ("tage-7.1KB", scheme+ports). */
std::string configLabel(const SimConfig &cfg);

/**
 * Run every workload of @p suite under @p cfg, fanned across a
 * ThreadPool. @p jobs = 0 resolves REPRO_JOBS, then hardware
 * concurrency (resolveJobs); 1 runs serially on the calling thread.
 * Suite order is preserved and the runs are bit-identical to a serial
 * execution: every OooCore is constructed per run and workloads share
 * no mutable state.
 */
SuiteResult runSuite(const std::vector<Program> &suite,
                     const SimConfig &cfg, unsigned jobs = 0);

/** Per-category comparison row (Figures 4/7/9 style). */
struct CategoryAgg
{
    std::string name;        ///< category ("Server", ..., or "All")
    unsigned workloads = 0;  ///< runs aggregated into this row
    double mpkiBase = 0.0;   ///< misprediction-weighted baseline MPKI
    double mpkiTest = 0.0;   ///< same, for the test configuration
    double mpkiReductionPct = 0.0;  ///< positive = fewer mispredicts
    double ipcGainPct = 0.0;        ///< geometric mean, percent
};

/** Aggregate @p test against @p base per category (plus an "All" row). */
std::vector<CategoryAgg> aggregateByCategory(const SuiteResult &base,
                                             const SuiteResult &test);

/** Suite-wide MPKI reduction percent (misprediction-weighted). */
double mpkiReductionPct(const SuiteResult &base, const SuiteResult &test);

/** Suite-wide geometric-mean IPC gain percent. */
double ipcGainPct(const SuiteResult &base, const SuiteResult &test);

/** Per-workload IPC gains (percent), sorted ascending (S-curve). */
std::vector<std::pair<std::string, double>>
ipcSCurve(const SuiteResult &base, const SuiteResult &test);

/** Environment knobs shared by every bench (see DESIGN.md section 7). */
struct BenchEnv
{
    std::uint64_t warmupInstrs = 40000;   ///< REPRO_WARMUP
    std::uint64_t measureInstrs = 60000;  ///< REPRO_INSTR
    unsigned maxWorkloads = 0;  ///< 0 = the full 202-workload suite
    unsigned jobs = 0;          ///< REPRO_JOBS; 0 = hardware concurrency

    /**
     * Read REPRO_INSTR / REPRO_WARMUP / REPRO_WORKLOADS / REPRO_JOBS
     * (common/parse.hh; REPRO_JOBS via envJobs()). A value that is not
     * a plain decimal throws std::invalid_argument naming the variable.
     */
    static BenchEnv fromEnvironment();
    /** Copy the instruction budgets into @p cfg. */
    void apply(SimConfig &cfg) const;
};

} // namespace lbp

#endif // LBP_SIM_RUNNER_HH
