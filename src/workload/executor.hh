/**
 * @file
 * The architectural executor: produces the true-path dynamic instruction
 * stream of a Program, advancing the behaviour state machines, memory
 * stream counters, and the architectural global branch history.
 *
 * The executor never rolls back: the core's front-end only consumes from
 * it while fetch is on the true path, pauses consumption when fetch
 * diverges down a mispredicted edge, and resumes after the resteer. All
 * wrong-path instruction descriptors come from cfgAdvance() navigation
 * instead (see core/frontend).
 */

#ifndef LBP_WORKLOAD_EXECUTOR_HH
#define LBP_WORKLOAD_EXECUTOR_HH

#include <cstdint>
#include <vector>

#include "common/logging.hh"
#include "common/random.hh"
#include "common/types.hh"
#include "workload/program.hh"

namespace lbp {

/** Fully-resolved dynamic instruction produced by the executor. */
struct DynInstDesc
{
    Addr pc = 0;
    InstClass cls = InstClass::Alu;
    std::uint8_t dep1 = 0;
    std::uint8_t dep2 = 0;
    int branchId = -1;    ///< static conditional branch id, or -1
    bool taken = false;   ///< actual direction (cond) / true (jump)
    Addr memAddr = invalidAddr;  ///< effective address for Load/Store
};

/**
 * Walks a Program along the architecturally-correct path.
 */
class Executor
{
  public:
    explicit Executor(const Program &prog);

    /**
     * Produce the next true-path instruction and advance state. Inline,
     * with streamAddr(): the core's fetch stage calls it once per
     * true-path instruction.
     */
    const DynInstDesc &next();

    /** Position of the *next* instruction next() would return. */
    const CfgCursor &cursor() const { return cursor_; }

    /** Architectural global outcome history (bit 0 = most recent). */
    std::uint64_t globalHist() const { return ctx_.globalHist; }

    /** Instructions produced so far. */
    std::uint64_t instCount() const { return instCount_; }

    /** Conditional branches produced so far. */
    std::uint64_t condCount() const { return condCount_; }

    const Program &program() const { return prog_; }

  private:
    Addr streamAddr(const StaticInst &si);

    const Program &prog_;
    CfgCursor cursor_;
    std::vector<std::uint64_t> state_;
    std::vector<std::uint64_t> streamPos_;
    GlobalBranchCtx ctx_;
    DynInstDesc desc_;
    std::uint64_t instCount_ = 0;
    std::uint64_t condCount_ = 0;
};

inline Addr
Executor::streamAddr(const StaticInst &si)
{
    const MemStream &ms = prog_.streams[si.stream];
    const std::uint64_t k = streamPos_[si.stream]++;
    // footprint is asserted power-of-two at build time, so the wrap is a
    // mask — the % spelling costs a hardware divide per memory access.
    const std::uint64_t wrap = ms.footprint - 1;
    std::uint64_t offset;
    if (ms.randomized)
        offset = splitmix64(k ^ ms.seed) & wrap;
    else
        offset = (k * ms.stride) & wrap;
    return ms.base + (offset & ~static_cast<std::uint64_t>(7));
}

inline const DynInstDesc &
Executor::next()
{
    const StaticInst &si = cfgInst(prog_, cursor_);
    const BasicBlock &bb = prog_.blocks[cursor_.block];

    desc_.pc = si.pc;
    desc_.cls = si.cls;
    desc_.dep1 = si.dep1;
    desc_.dep2 = si.dep2;
    desc_.branchId = -1;
    desc_.taken = false;
    desc_.memAddr = invalidAddr;

    bool advance_taken = false;
    if (si.cls == InstClass::CondBranch) {
        lbp_assert(cfgAtTerminator(prog_, cursor_));
        const StaticBranch &br = prog_.branches[bb.branchId];
        const bool taken =
            br.behavior->next(state_.data() + br.stateOffset, ctx_);
        desc_.branchId = bb.branchId;
        desc_.taken = taken;
        advance_taken = taken;
        ctx_.globalHist = (ctx_.globalHist << 1) | (taken ? 1 : 0);
        ++condCount_;
    } else if (si.cls == InstClass::Jump) {
        desc_.taken = true;
        advance_taken = true;
    } else if (si.cls == InstClass::Load || si.cls == InstClass::Store) {
        desc_.memAddr = streamAddr(si);
    }

    cfgAdvance(prog_, cursor_, advance_taken);
    ++instCount_;
    return desc_;
}

} // namespace lbp

#endif // LBP_WORKLOAD_EXECUTOR_HH
