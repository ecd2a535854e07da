// Negative fixture for no-hot-path-alloc's repair scope: the path ends
// in repair/schemes.cc, so every scheme's per-branch hooks are hot. A
// snapshot scheme that copies the BHT into a fresh vector for every
// checkpointed branch fires twice; its constructor may size storage,
// and a hook that writes into preallocated storage is clean.
#include <cstdint>
#include <vector>

struct DynInst;

struct CopyingSnapshotScheme {
    CopyingSnapshotScheme();
    void checkpoint(DynInst &di, unsigned long now);
    void atMispredict(DynInst &di, unsigned long now);
    std::vector<std::uint64_t> bht_;
    std::vector<std::uint64_t> saved_;
};

CopyingSnapshotScheme::CopyingSnapshotScheme()
{
    bht_.resize(256);  // clean: construction time
    saved_.resize(256);
}

void CopyingSnapshotScheme::checkpoint(DynInst &, unsigned long)
{
    std::vector<std::uint64_t> snap;
    snap.reserve(bht_.size());  // expect: no-hot-path-alloc
    for (std::uint64_t w : bht_)
        snap.push_back(w);  // expect: no-hot-path-alloc
}

void CopyingSnapshotScheme::atMispredict(DynInst &, unsigned long)
{
    for (std::size_t i = 0; i < bht_.size(); ++i)
        bht_[i] = saved_[i];  // clean: fixed storage
}
