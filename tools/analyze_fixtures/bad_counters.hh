// Negative fixture: a *Stats struct with one live counter (written in
// counters_user.cc) and one declared-but-dead counter.
#ifndef LBP_BAD_COUNTERS_HH
#define LBP_BAD_COUNTERS_HH

#include <cstdint>

struct FixtureStats {
    std::uint64_t fixLive = 0;
    std::uint64_t fixDead = 0;  // expect: stats-counter-dead
};

#endif
