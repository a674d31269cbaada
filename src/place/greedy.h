#pragma once

#include "place/placer.h"
#include "place/rate_model.h"

namespace choreo::place {

/// Algorithm 1: greedy network-aware placement.
///
/// Transfers are visited in descending byte order; each is placed on the
/// residual-fastest machine path, where intra-machine "paths" have
/// essentially infinite rate — so heavy task pairs gravitate onto one
/// machine when CPU allows, and otherwise onto the fastest measured paths.
/// Rates account for transfers already placed (this application's and any
/// previously committed ones) under the configured rate model.
///
/// Candidate selection runs on the state's PlacementEngine: O(1) cached
/// residual rates, the co-located candidate first, then a scan of the
/// static upper bounds that skips every candidate (and, with both endpoints
/// free, every row) whose bound cannot beat the best exact rate found.
/// Results are bit-identical to the exhaustive scan (ExhaustiveGreedyPlacer
/// in oracles/), pinned by test_engine_differential.
///
/// Under the forecast plane the view's rates may already carry an
/// uncertainty discount (place::apply_rate_discount): pairs whose recent
/// prediction error is high are derated by a configurable error quantile, so
/// this search compares candidates by pessimistic rather than point-estimate
/// rates.
/// The discount lives in the view, so the engine scan and the exhaustive
/// oracle stay bit-identical under any discount.
class GreedyPlacer : public Placer {
 public:
  explicit GreedyPlacer(RateModel model = RateModel::Hose) : model_(model) {}

  std::string name() const override { return std::string("choreo-greedy-") + to_string(model_); }

  Placement place(const Application& app, const ClusterState& state) override;

 private:
  RateModel model_;
};

}  // namespace choreo::place
