/**
 * @file
 * The whole-BHT snapshot encoding shared by the local predictors whose
 * first level is a SetAssocTable of {state, repairBit} payloads.
 *
 * Two words per way: [valid | repairBit << 1 | state << 2 | tag << 18]
 * and [lruStamp]. The caller owns the storage and sizes it once to
 * LocalPredictor::snapshotWords(), so the snapshot-queue scheme (one
 * snapshot per checkpointed branch) and the perfect-repair oracle (one
 * per mispredict) never touch the heap.
 */

#ifndef LBP_BPU_BHT_SNAPSHOT_HH
#define LBP_BPU_BHT_SNAPSHOT_HH

#include <cstdint>
#include <vector>

#include "bpu/predictor.hh"
#include "common/logging.hh"
#include "common/set_assoc.hh"

namespace lbp {

/** Encode every way of @p bht into @p out (exactly 2 words per way). */
template <typename PayloadT>
void
encodeBhtSnapshot(const SetAssocTable<PayloadT> &bht,
                  std::vector<std::uint64_t> &out)
{
    const auto &ways = bht.raw();
    lbp_assert(out.size() == ways.size() * 2);
    for (std::size_t i = 0; i < ways.size(); ++i) {
        const auto &way = ways[i];
        out[i * 2] = (way.valid ? 1u : 0u) |
                     (way.data.repairBit ? 2u : 0u) |
                     (static_cast<std::uint64_t>(way.data.state) << 2) |
                     (way.tag << 18);
        out[i * 2 + 1] = way.lruStamp;
    }
}

/** Overwrite every way of @p bht from an encodeBhtSnapshot() image. */
template <typename PayloadT>
void
decodeBhtSnapshot(SetAssocTable<PayloadT> &bht,
                  const std::vector<std::uint64_t> &snap)
{
    auto &ways = bht.raw();
    lbp_assert(snap.size() == ways.size() * 2);
    for (std::size_t i = 0; i < ways.size(); ++i) {
        const std::uint64_t w = snap[i * 2];
        ways[i].valid = (w & 1) != 0;
        ways[i].data.repairBit = (w & 2) != 0;
        ways[i].data.state = static_cast<LocalState>((w >> 2) & 0xffff);
        ways[i].tag = w >> 18;
        ways[i].lruStamp = static_cast<std::uint32_t>(snap[i * 2 + 1]);
    }
}

} // namespace lbp

#endif // LBP_BPU_BHT_SNAPSHOT_HH
