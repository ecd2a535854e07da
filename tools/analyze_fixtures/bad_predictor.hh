// Seeded violation: a predictor that speculatively updates its state
// at predict-time but does not expose the checkpoint/repair interface.
// Must be flagged with predictor-repair-interface.

#ifndef LBP_BAD_PREDICTOR_HH
#define LBP_BAD_PREDICTOR_HH

class LocalPredictor;

class LeakyPredictor : public LocalPredictor
{
  public:
    void specUpdate(unsigned long pc, bool dir);
    bool predict(unsigned long pc);
};

#endif // LBP_BAD_PREDICTOR_HH
