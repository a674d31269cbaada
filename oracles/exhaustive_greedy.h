#pragma once

#include "place/placer.h"
#include "place/rate_model.h"

namespace choreo::place {

/// The original Algorithm 1 implementation: a full scan over every
/// (machine, machine) candidate per transfer, with rates evaluated from
/// scratch. O(transfers · n^2 · n) per application — kept verbatim as the
/// reference oracle the engine-backed GreedyPlacer is differentially tested
/// against, and as the baseline column of bench/tbl_placement_scale.
class ExhaustiveGreedyPlacer : public Placer {
 public:
  explicit ExhaustiveGreedyPlacer(RateModel model = RateModel::Hose) : model_(model) {}

  std::string name() const override {
    return std::string("choreo-greedy-") + to_string(model_) + "-exhaustive";
  }

  Placement place(const Application& app, const ClusterState& state) override;

 private:
  RateModel model_;
};

}  // namespace choreo::place
