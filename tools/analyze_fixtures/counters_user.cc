// Companion to bad_counters.hh / bad_stats.hh / runner.hh /
// protocol.hh: provides the write sites that keep FixtureStats::fixLive,
// both OrphanStats counters, CoreStats::cycles and the
// ServeStats/StoreStats fields alive.
#include "bad_counters.hh"
#include "bad_stats.hh"
#include "protocol.hh"
#include "result_store.hh"
#include "runner.hh"

void touchCounters(FixtureStats &st, OrphanStats &os, CoreStats &cs,
                   ServeStats &ss, StoreStats &ts)
{
    st.fixLive += 1;
    os.reportedEvents += 1;
    os.forgottenEvents += 1;
    cs.cycles += 1;
    ss.fixClients += 1;
    ss.fixOrphanServe += 1;
    ts.fixStoreHits += 1;
    ts.fixOrphanStore += 1;
}
