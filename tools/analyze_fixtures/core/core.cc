// Negative fixture for no-hot-path-alloc: the path ends in
// core/core.cc, so OooCore's per-cycle stage bodies are hot. Two raw
// allocations fire; one carries an allow marker; a non-hot
// method may allocate freely.
#include <cstdint>
#include <vector>

struct Inst;

struct OooCore {
    void stepCycle();
    void allocStage();
    void drainStats();
    std::vector<Inst *> window_;
    std::vector<std::uint64_t> trace_;
};

void OooCore::stepCycle()
{
    window_.push_back(nullptr);  // expect: no-hot-path-alloc
}

void OooCore::allocStage()
{
    Inst *slot = new Inst;  // expect: no-hot-path-alloc
    (void)slot;
    // analyze:allow(no-hot-path-alloc): one-time growth, amortized
    // out of steady state.
    trace_.reserve(64);  // suppressed by the marker above
}

void OooCore::drainStats()
{
    trace_.push_back(0);  // clean: not a hot function
}
