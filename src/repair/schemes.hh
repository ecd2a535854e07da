/**
 * @file
 * Concrete repair-scheme classes. Declared in a header so unit tests
 * can instantiate and poke them directly; most users go through
 * makeRepairScheme().
 */

#ifndef LBP_REPAIR_SCHEMES_HH
#define LBP_REPAIR_SCHEMES_HH

#include <array>
#include <iterator>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "repair/scheme.hh"

namespace lbp {

/**
 * NoRepair: speculative BHT updates are applied on the predicted path
 * and never rolled back (section 2.7's cautionary baseline).
 */
class NoRepairScheme : public RepairScheme
{
  public:
    using RepairScheme::RepairScheme;
    const char *name() const override { return "no-repair"; }
};

/**
 * RetireUpdate: the BHT is written only at retirement with the
 * architectural outcome, so there is no speculative state to repair —
 * at the price of stale state for tight loops (section 6.2).
 */
class RetireUpdateScheme : public RepairScheme
{
  public:
    using RepairScheme::RepairScheme;
    void atRetire(DynInst &di) override;
    const char *name() const override { return "retire-update"; }

  protected:
    bool specUpdatesAtPredict() const override { return false; }
};

/**
 * PerfectRepair: oracle upper bound. A shadow BHT is updated with
 * architectural outcomes in fetch order; a misprediction restores the
 * live BHT from it instantaneously (section 6.1).
 */
class PerfectRepairScheme : public RepairScheme
{
  public:
    PerfectRepairScheme(std::unique_ptr<LocalPredictor> lp,
                        std::unique_ptr<LocalPredictor> oracle,
                        const RepairConfig &cfg);

    void atTruePathFetch(const DynInst &di) override;
    void atMispredict(DynInst &di, Cycle now) override;
    const char *name() const override { return "perfect"; }

  private:
    std::unique_ptr<LocalPredictor> oracle_;
    /** The oracle's snapshot, reused by every restore. */
    std::vector<std::uint64_t> oracleSnap_;
};

/**
 * Shared machinery for the OBQ-backed history-file walks.
 */
class WalkSchemeBase : public RepairScheme
{
  public:
    WalkSchemeBase(std::unique_ptr<LocalPredictor> lp,
                   const RepairConfig &cfg, bool coalesce);

    void atSquash(InstSeq kept_seq, const DynInst &cause) override;
    void atRetire(DynInst &di) override;
    double storageKB() const override;
    unsigned obqOccupancy() const override { return obq_.size(); }

    const Obq &obq() const { return obq_; }

  protected:
    void checkpoint(DynInst &di, Cycle now) override;

    Obq obq_;
    Cycle busyUntil_ = 0;
};

/**
 * BackwardWalk: Skadron-style history-file repair — walk the OBQ from
 * the youngest entry down to the mispredicting one, rewriting every
 * entry (duplicate PCs rewritten multiple times); the BHT is
 * unavailable until the whole walk completes (section 2.6).
 */
class BackwardWalkScheme : public WalkSchemeBase
{
  public:
    BackwardWalkScheme(std::unique_ptr<LocalPredictor> lp,
                       const RepairConfig &cfg);

    void atMispredict(DynInst &di, Cycle now) override;
    const char *name() const override { return "backward-walk"; }

  protected:
    bool bhtUsable(Addr pc, Cycle now) const override;
};

/**
 * ForwardWalk: the paper's technique (section 3.1) — start at the
 * mispredicting entry and walk toward the tail; per-entry repair bits
 * guarantee one write per PC (the oldest instance's pre-state, which
 * is the architecturally-correct value), and each entry becomes usable
 * the cycle it is rewritten. Optional OBQ coalescing merges consecutive
 * same-PC checkpoints.
 */
class ForwardWalkScheme : public WalkSchemeBase
{
  public:
    ForwardWalkScheme(std::unique_ptr<LocalPredictor> lp,
                      const RepairConfig &cfg);

    void atMispredict(DynInst &di, Cycle now) override;
    const char *name() const override
    {
        return cfg_.coalesce ? "forward-walk+coalesce" : "forward-walk";
    }

  protected:
    bool bhtUsable(Addr pc, Cycle now) const override;

  private:
    /** Record that @p pc's repair write lands at cycle @p ready. */
    void notePending(Addr pc, Cycle ready);

    /**
     * PCs awaiting their repair write during an active walk, with the
     * cycle it lands; the first pendingCount_ slots are live. The
     * repair bits allow one write per BHT entry, so bhtEntries() slots
     * always suffice and a walk never allocates.
     */
    mutable std::vector<std::pair<Addr, Cycle>> pendingRepair_;
    mutable unsigned pendingCount_ = 0;
};

/**
 * Snapshot: whole-BHT snapshots pushed to a bounded snapshot queue at
 * every checkpointed prediction; a misprediction restores the full
 * table, paying storage and a long whole-BHT-busy restore (section 2.6).
 */
class SnapshotScheme : public RepairScheme
{
  public:
    SnapshotScheme(std::unique_ptr<LocalPredictor> lp,
                   const RepairConfig &cfg);

    void atMispredict(DynInst &di, Cycle now) override;
    void atSquash(InstSeq kept_seq, const DynInst &cause) override;
    void atRetire(DynInst &di) override;
    double storageKB() const override;
    unsigned obqOccupancy() const override
    {
        return static_cast<unsigned>(tail_ - head_);
    }
    const char *name() const override { return "snapshot"; }

  protected:
    void checkpoint(DynInst &di, Cycle now) override;
    bool bhtUsable(Addr pc, Cycle now) const override;

  private:
    struct Snap
    {
        InstSeq seq = invalidSeq;
        std::vector<std::uint64_t> data;
    };

    std::vector<Snap> ring_;
    std::uint64_t head_ = 0;
    std::uint64_t tail_ = 0;
    Cycle busyUntil_ = 0;
    std::uint64_t evictions_ = 0;
};

/**
 * LimitedPc: repair exactly M PCs chosen by the paper's
 * utility-plus-recency heuristic — the mispredicting PC itself, recent
 * correct overriders, then recently-updated BHT entries. The pre-update
 * states of the chosen PCs travel with every instruction (24 bits per
 * PC), so repair needs no OBQ and completes in deterministic time
 * (section 3.3).
 */
class LimitedPcScheme : public RepairScheme
{
  public:
    /** Largest repair set (RepairConfig::limitedM) the payload holds. */
    static constexpr unsigned maxM = 16;

    LimitedPcScheme(std::unique_ptr<LocalPredictor> lp,
                    const RepairConfig &cfg);

    void atMispredict(DynInst &di, Cycle now) override;
    void atRetire(DynInst &di) override;
    double storageKB() const override;
    const char *name() const override { return "limited-pc"; }

    /** The M PCs the last repair actually wrote (declared coverage). */
    std::optional<std::span<const Addr>> lastRepairSet() const override
    {
        return std::span<const Addr>(lastRepairSet_.data(),
                                     lastRepairCount_);
    }

  protected:
    void checkpoint(DynInst &di, Cycle now) override;
    bool bhtUsable(Addr pc, Cycle now) const override;

  private:
    static constexpr unsigned payloadRingLog = 13;

    /** One repair-set entry: a PC and its pre-update local state. */
    using PcState = std::pair<Addr, LocalState>;

    /** Which instruction owns a payload slot, and how full it is. */
    struct PayloadSlot
    {
        std::uint8_t count = 0;
        InstSeq seq = invalidSeq;
    };

    /** Ring index of the payload slot for instruction seq. */
    std::size_t slotOf(InstSeq seq) const
    {
        return seq & (payloadSlots_.size() - 1);
    }

    /** The limitedM repair-set entries of payload slot i. */
    PcState *payloadPcs(std::size_t i)
    {
        return payloadPcs_.data() + i * cfg_.limitedM;
    }

    /**
     * Distinct PCs, most recent last, keeping the newest 2 * maxM: a
     * touched PC moves to the back and the oldest drops out. Fixed
     * storage, so the per-branch hooks that maintain it never allocate.
     */
    class RecentPcs
    {
      public:
        void touch(Addr pc);
        auto rbegin() const
        {
            return std::make_reverse_iterator(pcs_.data() + size_);
        }
        auto rend() const
        {
            return std::make_reverse_iterator(pcs_.data());
        }

      private:
        std::array<Addr, 2 * maxM> pcs_{};
        unsigned size_ = 0;
    };

    std::vector<PayloadSlot> payloadSlots_;  ///< 1 << payloadRingLog
    std::vector<PcState> payloadPcs_;        ///< limitedM per slot
    RecentPcs overrideLru_;    ///< recent correct overriders
    RecentPcs recentUpdates_;  ///< recent BHT-updated PCs
    std::array<Addr, maxM> lastRepairSet_{};  ///< PCs the last repair wrote
    unsigned lastRepairCount_ = 0;
    Cycle busyUntil_ = 0;
};

/**
 * FutureFile: the second Skadron organization (section 2.6). The
 * speculative per-PC state lives in the queue itself: a prediction
 * associatively searches the youngest entries for its PC (falling back
 * to the retirement-updated BHT), and repair is a single tail-pointer
 * revert — O(1), no BHT unavailability. The paper rejects the design
 * because the common-case prediction path needs the associative search
 * (a power/latency problem beyond 8-16 ways); we model that limit as a
 * bounded search window, so PCs whose latest update lies deeper than
 * the window read stale architectural state.
 */
class FutureFileScheme : public RepairScheme
{
  public:
    FutureFileScheme(std::unique_ptr<LocalPredictor> lp,
                     const RepairConfig &cfg);

    PredictOutcome atPredict(DynInst &di, bool tage_dir,
                             Cycle now) override;
    void atMispredict(DynInst &di, Cycle now) override;
    void atSquash(InstSeq kept_seq, const DynInst &cause) override;
    void atRetire(DynInst &di) override;
    double storageKB() const override;
    unsigned obqOccupancy() const override
    {
        return static_cast<unsigned>(tail_ - head_);
    }
    const char *name() const override { return "future-file"; }

  private:
    struct Entry
    {
        Addr pc = 0;
        LocalState state = 0;  ///< post-update speculative state
        InstSeq seq = invalidSeq;
    };

    Entry &slot(std::uint64_t id) { return ring_[id % ring_.size()]; }

    std::vector<Entry> ring_;
    std::uint64_t head_ = 0;
    std::uint64_t tail_ = 0;
};

/**
 * MultiStage: split BHT (section 3.2). BHT-TAGE sits at the prediction
 * stage and overrides immediately; BHT-Defer sits at the allocation
 * stage, is the only checkpointed table, and can override with an early
 * pipeline resteer. Repair forward-walks BHT-Defer from the OBQ, then
 * copies the repaired PCs into BHT-TAGE using the prediction ports
 * (BHT-TAGE simply declines predictions during the repair period, so no
 * extra ports are needed).
 */
class MultiStageScheme : public RepairScheme
{
  public:
    /** @p lp is BHT-Defer (checkpointed); @p bht_tage the fetch table. */
    MultiStageScheme(std::unique_ptr<LocalPredictor> lp,
                     std::unique_ptr<LocalPredictor> bht_tage,
                     bool shared_pt, const RepairConfig &cfg);

    PredictOutcome atPredict(DynInst &di, bool tage_dir,
                             Cycle now) override;
    AllocOutcome atAlloc(DynInst &di, Cycle now) override;
    void atMispredict(DynInst &di, Cycle now) override;
    void atSquash(InstSeq kept_seq, const DynInst &cause) override;
    void atRetire(DynInst &di) override;
    double storageKB() const override;
    double localStorageKB() const override;
    unsigned obqOccupancy() const override { return obq_.size(); }
    const char *name() const override
    {
        return sharedPt_ ? "split-bht(shared-pt)" : "split-bht(split-pt)";
    }

    /** BHT-Defer (the checkpointed table) is looked up at atAlloc(). */
    bool auditsAtAlloc() const override { return true; }

    LocalPredictor &bhtTage() { return *bhtTage_; }

  private:
    bool deferBusy(Cycle now) const { return now < deferBusyUntil_; }
    bool tageBusy(Cycle now) const { return now < tageBusyUntil_; }

    std::unique_ptr<LocalPredictor> bhtTage_;
    bool sharedPt_;
    Obq obq_;
    Cycle deferBusyUntil_ = 0;
    Cycle tageBusyUntil_ = 0;
    /** PCs a repair walk wrote, for the BHT-TAGE copy phase. The repair
     *  bits allow one write per BHT-Defer entry, so bhtEntries() slots
     *  always suffice. */
    std::vector<Addr> repaired_;
};

} // namespace lbp

#endif // LBP_REPAIR_SCHEMES_HH
