// Clean fixture: all mutations sit inside sanctioned methods or a
// private helper reachable only from sanctioned methods (the
// transitive-sanction case, like LoopPredictor::runFor).
#ifndef LBP_CLEAN_SPEC_HH
#define LBP_CLEAN_SPEC_HH

#include <vector>

struct CleanLocal : public LocalPredictor {
    int predict(int pc) const
    {
        return static_cast<int>((hist_ >> (pc & 3)) & 1u);
    }

    void specUpdate(int pc, bool dir)
    {
        (void)pc;
        roll(dir);
    }

    void retireTrain(int pc, bool dir)
    {
        (void)pc;
        roll(dir);
    }

    // The checkpoint/repair interface predictor-repair-interface
    // demands of every speculatively updated LocalPredictor.
    void readState(int pc);
    void writeState(int pc, unsigned state);
    void advanceState(int pc, bool dir);
    void invalidateEntry(int pc);
    void setAllRepairBits();
    bool testClearRepairBit(int pc);
    void snapshotBht(unsigned *out) const;
    void restoreBht(const unsigned *in);

  private:
    void roll(bool dir)
    {
        hist_ = (hist_ << 1) | (dir ? 1u : 0u);
        counts_.push_back(hist_);
    }

    unsigned hist_ = 0;
    std::vector<unsigned> counts_;
};

#endif
