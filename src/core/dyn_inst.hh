/**
 * @file
 * The in-flight dynamic instruction record shared between the core
 * pipeline and the repair layer.
 *
 * Conditional branches carry the "baggage" the paper describes: the
 * pre-update TAGE global-state checkpoint (GHIST/PHIST/folded histories
 * — O(1) restore, section 2.3.1), the pre-update local BHT state (the
 * 11-bit counter of section 3.1), an OBQ entry id, and scheme-specific
 * slots (snapshot id, limited-PC payload index).
 */

#ifndef LBP_CORE_DYN_INST_HH
#define LBP_CORE_DYN_INST_HH

#include <cstdint>

#include "bpu/predictor.hh"
#include "common/types.hh"
#include "workload/program.hh"

namespace lbp {

/**
 * Branch-prediction state carried by an in-flight conditional branch.
 *
 * The heavyweight TAGE state (per-table indices/tags and the global
 * checkpoint) lives in the core's BranchRecPool, referenced by
 * tageRec; only the core's fetch/retire/flush paths touch it. What
 * stays inline is the slim state the repair schemes and the auditor
 * read.
 */
struct BranchRec
{
    /** BranchRecPool slot for the TAGE pred+checkpoint baggage
     *  (BranchRecPool::invalid when none is held). */
    std::uint32_t tageRec = 0xffffffffu;

    LocalPred local;        ///< local predictor lookup at fetch (or alloc)

    bool finalPred = false; ///< pipeline's current direction for fetch
    bool tageDir = false;
    bool usedLoop = false;  ///< local override applied
    bool loopDir = false;
    bool earlyResteered = false;  ///< multi-stage alloc-time override fired

    // Repair metadata.
    std::uint64_t obqId = invalidId;
    bool checkpointed = false;
    bool mergedEntry = false;     ///< shares a coalesced OBQ entry
    bool specUpdated = false;     ///< speculative BHT update was applied
    std::uint64_t snapId = invalidId;
    std::uint64_t limitedSlot = invalidId;
};

/** One in-flight instruction. Stored by value in bounded rings. */
struct DynInst
{
    InstSeq seq = invalidSeq;
    Addr pc = 0;
    InstClass cls = InstClass::Alu;
    std::uint8_t dep1 = 0;
    std::uint8_t dep2 = 0;
    bool wrongPath = false;
    bool actualDir = false;     ///< architectural direction (true path)
    bool mispredicted = false;  ///< fetch-time final pred != actual
    Addr memAddr = invalidAddr;

    /** Position in the true-path dynamic stream (dependency naming). */
    std::uint64_t dynIdx = 0;
    /** CFG position of this instruction (wrong-path navigation seed). */
    CfgCursor fetchCursor{};

    Cycle fetchCycle = 0;
    Cycle doneCycle = 0;

    /** Valid only when cls == CondBranch: the core resets it for
     *  conditional branches alone, so other slots keep stale contents
     *  (with tageRec always invalid). */
    BranchRec br;

    bool isCond() const { return cls == InstClass::CondBranch; }
    bool isMem() const
    {
        return cls == InstClass::Load || cls == InstClass::Store;
    }
};

} // namespace lbp

#endif // LBP_CORE_DYN_INST_HH
