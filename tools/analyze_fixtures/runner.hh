// Miniature RunResult for the metric-row-coverage rule. 'ipc' and
// 'stats.cycles' are each exported by exactly one row in metrics.cc;
// 'dup' is exported twice and 'orphan' not at all (two findings,
// anchored here at the struct declarations).
#ifndef LBP_RUNNER_HH
#define LBP_RUNNER_HH

#include <cstdint>

struct CoreStats {
    std::uint64_t cycles = 0;
};

struct RunResult {
    double ipc = 0.0;     // covered by exactly one row: fine
    double dup = 0.0;     // expect: exported by 2 rows
    double orphan = 0.0;  // expect: no runMetrics() row
    CoreStats stats;
};

#endif
