#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "forecast/predictor.h"
#include "forecast/rate_history.h"
#include "measure/view_cache.h"
#include "place/cluster.h"

namespace choreo::forecast {

/// Configuration of the forecast plane. The default-constructed options are
/// DISABLED: planning delegates verbatim to the fixed ViewCache policy and
/// the Choreo pipeline stays bit-identical to the pre-forecast system
/// (pinned by test_forecast_differential).
struct ForecastOptions {
  /// Master switch. Off: plan_refresh() == ViewCache::plan_refresh() and no
  /// history, scoring, or view rewriting happens anywhere.
  bool enabled = false;
  /// Pairs with fewer lifetime probes than this are always re-probed
  /// (warm-up: no meaningful error track yet).
  std::uint64_t min_observations = 3;
  /// Share of the in-control measured pairs re-probed per cycle, spent on
  /// the pairs the best predictor is WORST at (§2.1 turned into a probe
  /// budget: predictable pairs coast on forecasts, unpredictable ones get
  /// the trains).
  double probe_budget_fraction = 0.25;
  std::size_t min_probes_per_cycle = 1;
  /// Change-point detection: CUSUM over each pair's residuals against a
  /// slow-moving rate baseline. (Residuals against the one-step forecast
  /// would vanish immediately — the last-value predictor adapts to a new
  /// regime after a single sample — so drift is measured against an EWMA
  /// baseline that deliberately lags, and snaps to the new level when the
  /// alarm fires.)
  CusumDetector::Params cusum;
  double changepoint_baseline_alpha = 0.25;
  /// When at least this fraction of a cycle's scored probes fire the CUSUM
  /// (and at least changepoint_sweep_min_probes were scored), the next plan
  /// is a full sweep: the network shifted regime, all forecasts are suspect.
  double changepoint_sweep_fraction = 0.5;
  std::size_t changepoint_sweep_min_probes = 4;
  /// Uncertainty-aware placement: scale every measured pair's view rate by
  /// 1 / (1 + q) where q is the discount_quantile of the pair's recent
  /// prediction errors — placers stop trusting point estimates on pairs the
  /// forecast plane keeps getting wrong.
  bool discount_rates = false;
  double discount_quantile = 0.9;
};

/// The forecast plane's refresh planner: replaces the ViewCache's fixed
/// two-sample volatility heuristic with predictability-score-driven probe
/// budgeting, and augments the refreshed ClusterView with forecasts and
/// uncertainty discounts.
///
/// Lifecycle per measurement cycle (what core::Choreo drives):
///   1. plan_refresh(cache, epoch, fixed)  — which pairs to probe and why;
///   2. measure_rate_pairs(...) probes them (the measurement plane's job);
///   3. observe(src, dst, rate, epoch) per probe result — scores every
///      predictor against its pre-probe forecast, updates the per-pair
///      error tracks and CUSUM, then records the sample into the history;
///   4. apply_to_view(view, cache, plan, epoch) — forecasts for unprobed
///      pairs, error-quantile rate discounts for placement.
///
/// The predictor set is `default_predictor_set({})`; the history ring,
/// error smoothing and error window are fixed constants (predictive_policy.cpp).
///
/// With options.enabled == false, step 1 delegates to the fixed policy
/// verbatim and steps 3-4 are no-ops — the bit-identical oracle path.
class PredictivePolicy {
 public:
  PredictivePolicy() = default;
  explicit PredictivePolicy(ForecastOptions options);

  const ForecastOptions& options() const { return options_; }
  const RateHistory& history() const { return history_; }

  /// Grows (or shrinks) the fleet, preserving state of surviving indices.
  void resize(std::size_t vm_count);

  /// Forecast-plane accounting of the most recent plan (all zero when
  /// disabled). `predicted` is filled in by apply_to_view.
  struct PlanStats {
    std::size_t predictable = 0;    ///< measured pairs skipped on forecast confidence
    std::size_t unpredictable = 0;  ///< probed: budget went to the worst-predicted
    std::size_t changepoints = 0;   ///< probed: CUSUM flagged a regime shift
    std::size_t warmup = 0;         ///< probed: not enough history to score yet
    std::size_t predicted = 0;      ///< view entries filled from forecasts
    bool full_sweep = false;        ///< regime alarm forced probing everything
  };

  /// Plans one measurement cycle. Disabled: exactly
  /// cache.plan_refresh(epoch, fixed). Enabled: never-measured and stale
  /// pairs (fixed.max_age_epochs is kept as the staleness safety net) plus
  /// change-point-flagged, warm-up, and the budgeted worst-predicted pairs.
  measure::RefreshPlan plan_refresh(const measure::ViewCache& cache, std::uint64_t epoch,
                                    const measure::RefreshPolicy& fixed);

  const PlanStats& last_plan() const { return last_plan_; }

  /// Scores the predictor set against one fresh probe result, updates the
  /// pair's error tracks / CUSUM / change-point flag, then records the
  /// sample. No-op when disabled.
  void observe(std::size_t src, std::size_t dst, double rate_bps, std::uint64_t epoch);

  /// Best-predictor forecast for one pair at `target_epoch`; requires
  /// recorded history for the pair.
  double predict(std::size_t src, std::size_t dst, std::uint64_t target_epoch) const;

  /// Index into the predictor set of the pair's current best predictor
  /// (lowest tracked error; ties to the earlier predictor), or the
  /// last-value predictor before any scoring happened.
  std::size_t best_predictor(std::size_t src, std::size_t dst) const;
  const Predictor& predictor(std::size_t index) const { return *predictors_[index]; }
  std::size_t predictor_count() const { return predictors_.size(); }

  /// Tracked relative error of the pair's best predictor; +infinity before
  /// any scored observation (maximally unpredictable).
  double predictability_error(std::size_t src, std::size_t dst) const;

  /// The discount_quantile of the pair's recent best-predictor errors; 0
  /// before any scored observation.
  double error_quantile(std::size_t src, std::size_t dst) const;

  /// True when the pair's last scored probe fired the CUSUM and the pair
  /// has not been re-probed since.
  bool changepoint_flagged(std::size_t src, std::size_t dst) const;

  /// Post-refresh view rewrite: unprobed measured pairs get the best
  /// predictor's forecast instead of their last, possibly stale, sample, and
  /// every measured pair's rate is discounted by its error quantile
  /// (options.discount_rates). `plan` must be the plan this cycle probed.
  /// No-op when disabled.
  void apply_to_view(place::ClusterView& view, const measure::ViewCache& cache,
                     const measure::RefreshPlan& plan, std::uint64_t epoch);

 private:
  std::size_t pair_index(std::size_t src, std::size_t dst) const {
    return src * vm_count_ + dst;
  }
  double tracked_error(std::size_t pair, std::size_t predictor) const {
    return error_ewma_[pair * predictors_.size() + predictor];
  }

  ForecastOptions options_;
  std::size_t vm_count_ = 0;
  RateHistory history_;
  std::vector<std::unique_ptr<Predictor>> predictors_;

  /// Per (pair, predictor): EWMA of |prediction - observed| / observed;
  /// negative means "not scored yet".
  std::vector<double> error_ewma_;
  /// Per pair: ring of the last kErrorWindow best-predictor errors.
  std::vector<double> recent_errors_;
  std::vector<std::size_t> recent_head_;
  std::vector<std::size_t> recent_count_;
  /// Per pair: slow rate baseline, CUSUM detector, and the sticky flag.
  std::vector<double> baseline_;  ///< negative means "not initialized"
  std::vector<CusumDetector> cusum_;
  std::vector<std::uint8_t> changepoint_;

  /// Scored probes / CUSUM alarms since the last plan (the regime alarm).
  std::size_t cycle_scored_ = 0;
  std::size_t cycle_fired_ = 0;

  PlanStats last_plan_;
};

}  // namespace choreo::forecast
