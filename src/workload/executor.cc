#include "workload/executor.hh"

#include "common/logging.hh"

namespace lbp {

Executor::Executor(const Program &prog)
    : prog_(prog), state_(prog.totalStateWords, 0),
      streamPos_(prog.streams.size(), 0)
{
    lbp_assert(!prog.blocks.empty());
    for (const auto &br : prog.branches)
        br.behavior->reset(state_.data() + br.stateOffset);
}

} // namespace lbp
