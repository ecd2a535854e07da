// Seeded violation: a Stats counter that no reporting-layer file ever
// references. Must be flagged with stats-counter-reported.

#ifndef LBP_BAD_STATS_HH
#define LBP_BAD_STATS_HH

#include <cstdint>

struct OrphanStats
{
    std::uint64_t reportedEvents = 0;
    std::uint64_t forgottenEvents = 0;  // never printed anywhere
};

#endif // LBP_BAD_STATS_HH
