// The fixture tree's reporting layer: the one file the self-test hands
// to stats-counter-reported as its reporting corpus. It references
// every fixture *Stats counter except OrphanStats::forgottenEvents
// (bad_stats.hh), and only reads them, so stats-counter-dead still
// sees FixtureStats::fixDead as never written.

#include <cstdio>

void
printFixtureStats(unsigned long long reportedEvents,
                  unsigned long long fixLive, unsigned long long fixDead,
                  unsigned long long cycles, unsigned long long fixClients,
                  unsigned long long fixOrphanServe,
                  unsigned long long fixStoreHits,
                  unsigned long long fixOrphanStore)
{
    std::printf("%llu %llu %llu %llu %llu %llu %llu %llu\n",
                reportedEvents, fixLive, fixDead, cycles, fixClients,
                fixOrphanServe, fixStoreHits, fixOrphanStore);
}
