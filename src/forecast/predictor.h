#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "forecast/rate_history.h"

namespace choreo::forecast {

/// One next-epoch rate predictor over a pair's retained history. Stateless
/// strategy objects: all per-pair state lives in the RateHistory window the
/// caller passes in, so one predictor instance serves every pair of the
/// fleet and the set of predictors is O(1) memory.
///
/// The built-in set mirrors the §2.1 predictability analysis ("data from the
/// previous hour and the time-of-day are good predictors of the number of
/// bytes transferred in the next hour"): last-value, time-of-day, their
/// blend — plus an EWMA for noise-dominated pairs. The predictors reproduce
/// the arithmetic of workload::score_prev_hour / score_time_of_day /
/// score_blend exactly (same fold order), which is what lets the offline
/// trace scorers serve as the differential oracle in test_forecast.
class Predictor {
 public:
  virtual ~Predictor() = default;
  virtual std::string name() const = 0;
  /// Predicted rate at `target_epoch`; requires a non-empty series.
  virtual double predict(const PairSeries& series, std::uint64_t target_epoch) const = 0;
};

/// h[t] = h[t-1]: the paper's "previous hour" predictor at the pair level.
class LastValuePredictor : public Predictor {
 public:
  std::string name() const override { return "last-value"; }
  double predict(const PairSeries& series, std::uint64_t target_epoch) const override;
};

/// Exponentially weighted moving average folded oldest-to-newest:
/// e <- alpha * sample + (1 - alpha) * e.
class EwmaPredictor : public Predictor {
 public:
  explicit EwmaPredictor(double alpha = 0.5);
  std::string name() const override { return "ewma"; }
  double predict(const PairSeries& series, std::uint64_t target_epoch) const override;

 private:
  double alpha_;
};

/// Mean of the retained samples whose epoch falls at the same phase of the
/// diurnal period as the target epoch (epoch % period). Falls back to the
/// last value when no retained sample shares the target's phase. The sum
/// folds newest-to-oldest — the literal order workload::score_time_of_day
/// accumulates in, so the two stay bit-identical on dense series.
class TimeOfDayPredictor : public Predictor {
 public:
  explicit TimeOfDayPredictor(std::uint64_t period_epochs = 24);
  std::string name() const override { return "time-of-day"; }
  double predict(const PairSeries& series, std::uint64_t target_epoch) const override;

 private:
  std::uint64_t period_;
};

/// 0.5 * (last value + time-of-day): the §2.1 blended predictor.
class BlendPredictor : public Predictor {
 public:
  explicit BlendPredictor(std::uint64_t period_epochs = 24);
  std::string name() const override { return "blend"; }
  double predict(const PairSeries& series, std::uint64_t target_epoch) const override;

 private:
  LastValuePredictor last_;
  TimeOfDayPredictor tod_;
};

/// The default competing set the PredictivePolicy races per pair, in a fixed
/// deterministic order: last-value, EWMA, time-of-day, blend, each with its
/// constructor's defaults (EWMA alpha 0.5; a 24-epoch diurnal period, which
/// is the paper's 24 hours when sessions measure hourly).
std::vector<std::unique_ptr<Predictor>> default_predictor_set();

/// CUSUM-style change-point detector over a stream of relative prediction
/// residuals r = (observed - predicted) / predicted. Two one-sided
/// cumulative sums catch sustained drifts in either direction that
/// per-sample volatility thresholds miss: g+ accumulates positive residual
/// mass above the slack, g- negative mass, and a change-point fires (and
/// resets both sums) when either exceeds the threshold. Tracks the §3
/// observation that cloud rates are stable for long stretches and then
/// shift regime — exactly the event that should invalidate a forecast.
class CusumDetector {
 public:
  struct Params {
    /// Per-step residual magnitude absorbed before anything accumulates
    /// (measurement noise allowance).
    double slack = 0.15;
    /// Cumulative drift (in relative-rate units) that fires the alarm.
    double threshold = 0.75;
  };

  CusumDetector() = default;
  explicit CusumDetector(Params params) : params_(params) {}

  /// Feeds one relative residual; returns true when a change-point fires
  /// (both sums reset so the next regime starts clean).
  bool update(double relative_residual);

  void reset();
  double positive_sum() const { return g_pos_; }
  double negative_sum() const { return g_neg_; }

 private:
  Params params_;
  double g_pos_ = 0.0;
  double g_neg_ = 0.0;
};

}  // namespace choreo::forecast
