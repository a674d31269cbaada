#include "forecast/predictive_policy.h"

#include <algorithm>
#include <cmath>

#include "util/require.h"
#include "util/stats.h"

namespace choreo::forecast {
namespace {

/// Denominator floor shared by every relative-error computation here (the
/// same floor ViewCache::is_volatile uses), so zero-rate observations do not
/// blow up the error tracks.
inline double error_base(double bps) { return std::max(bps, 1.0); }

/// Retained probe results per ordered pair (the RateHistory ring size).
constexpr std::size_t kHistoryCapacity = 16;
/// Smoothing of each predictor's per-pair relative-error track.
constexpr double kErrorEwmaAlpha = 0.4;
/// Recent best-predictor errors kept per pair for the discount quantile.
constexpr std::size_t kErrorWindow = 8;
static_assert(kHistoryCapacity >= 2);
static_assert(kErrorWindow >= 1);
static_assert(kErrorEwmaAlpha > 0.0 && kErrorEwmaAlpha <= 1.0);

}  // namespace

PredictivePolicy::PredictivePolicy(ForecastOptions options)
    : options_(std::move(options)),
      history_(0, kHistoryCapacity),
      predictors_(default_predictor_set({})) {
  CHOREO_REQUIRE(options_.probe_budget_fraction >= 0.0 &&
                 options_.probe_budget_fraction <= 1.0);
  CHOREO_REQUIRE(options_.discount_quantile >= 0.0 && options_.discount_quantile <= 1.0);
}

void PredictivePolicy::resize(std::size_t vm_count) {
  if (vm_count == vm_count_) return;
  const std::size_t pairs = vm_count * vm_count;
  const std::size_t P = predictors_.size();
  std::vector<double> ewma(pairs * P, -1.0);
  std::vector<double> recent(pairs * kErrorWindow, 0.0);
  std::vector<std::size_t> rhead(pairs, 0), rcount(pairs, 0);
  std::vector<double> base(pairs, -1.0);
  std::vector<CusumDetector> cusum(pairs, CusumDetector(options_.cusum));
  std::vector<std::uint8_t> flag(pairs, 0);
  const std::size_t keep = std::min(vm_count, vm_count_);
  for (std::size_t i = 0; i < keep; ++i) {
    for (std::size_t j = 0; j < keep; ++j) {
      const std::size_t oldp = i * vm_count_ + j;
      const std::size_t newp = i * vm_count + j;
      for (std::size_t p = 0; p < P; ++p) {
        ewma[newp * P + p] = error_ewma_[oldp * P + p];
      }
      for (std::size_t w = 0; w < kErrorWindow; ++w) {
        recent[newp * kErrorWindow + w] = recent_errors_[oldp * kErrorWindow + w];
      }
      rhead[newp] = recent_head_[oldp];
      rcount[newp] = recent_count_[oldp];
      base[newp] = baseline_[oldp];
      cusum[newp] = cusum_[oldp];
      flag[newp] = changepoint_[oldp];
    }
  }
  vm_count_ = vm_count;
  history_.resize(vm_count);
  error_ewma_ = std::move(ewma);
  recent_errors_ = std::move(recent);
  recent_head_ = std::move(rhead);
  recent_count_ = std::move(rcount);
  baseline_ = std::move(base);
  cusum_ = std::move(cusum);
  changepoint_ = std::move(flag);
}

measure::RefreshPlan PredictivePolicy::plan_refresh(const measure::ViewCache& cache,
                                                    std::uint64_t epoch,
                                                    const measure::RefreshPolicy& fixed) {
  last_plan_ = PlanStats{};
  if (!options_.enabled) {
    // The oracle path: verbatim fixed-policy planning, zero forecast state.
    return cache.plan_refresh(epoch, fixed);
  }
  resize(cache.vm_count());
  const std::size_t n = vm_count_;
  CHOREO_REQUIRE(n >= 2);

  // Regime alarm: when most of last cycle's scored probes fired the CUSUM,
  // the whole network likely shifted — forecasts are stale everywhere, so
  // probe everything once and start the next regime's tracks from fresh
  // observations.
  const bool sweep =
      cycle_scored_ >= options_.changepoint_sweep_min_probes &&
      static_cast<double>(cycle_fired_) >=
          options_.changepoint_sweep_fraction * static_cast<double>(cycle_scored_);
  cycle_scored_ = 0;
  cycle_fired_ = 0;

  measure::RefreshPlan plan;
  struct Candidate {
    double score = 0.0;
    std::size_t src = 0;
    std::size_t dst = 0;
  };
  std::vector<Candidate> candidates;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      const measure::PairEstimate& e = cache.at(i, j);
      if (!e.valid()) {
        ++plan.never_measured;
      } else if (sweep) {
        last_plan_.full_sweep = true;
        ++last_plan_.changepoints;
      } else if (e.epoch + fixed.max_age_epochs < epoch) {
        // The fixed policy's staleness rule stays as the safety net: even a
        // perfectly predicted pair is re-grounded every max_age_epochs.
        ++plan.stale;
      } else if (changepoint_flagged(i, j)) {
        ++last_plan_.changepoints;
      } else if (history_.observations(i, j) < options_.min_observations) {
        ++last_plan_.warmup;
      } else {
        // In control: competes for the probe budget by predictability score.
        candidates.push_back({predictability_error(i, j), i, j});
        continue;
      }
      plan.pairs.push_back({i, j});
    }
  }

  // Budget goes to the pairs the best predictor is worst at; the rest coast
  // on forecasts this cycle. Deterministic: score desc, then pair asc.
  std::stable_sort(candidates.begin(), candidates.end(),
                   [](const Candidate& a, const Candidate& b) {
                     if (a.score != b.score) return a.score > b.score;
                     if (a.src != b.src) return a.src < b.src;
                     return a.dst < b.dst;
                   });
  std::size_t budget = static_cast<std::size_t>(
      options_.probe_budget_fraction * static_cast<double>(candidates.size()));
  budget = std::min(candidates.size(),
                    std::max(budget, options_.min_probes_per_cycle));
  for (std::size_t k = 0; k < candidates.size(); ++k) {
    if (k < budget) {
      plan.pairs.push_back({candidates[k].src, candidates[k].dst});
      ++last_plan_.unpredictable;
    } else {
      ++last_plan_.predictable;
    }
  }
  return plan;
}

void PredictivePolicy::observe(std::size_t src, std::size_t dst, double rate_bps,
                               std::uint64_t epoch) {
  if (!options_.enabled) return;
  CHOREO_REQUIRE(src < vm_count_ && dst < vm_count_ && src != dst);
  const std::size_t pair = pair_index(src, dst);
  const std::size_t P = predictors_.size();
  const PairSeries series = history_.series(src, dst);
  if (!series.empty()) {
    // Score every predictor against its pre-probe forecast.
    std::vector<double> err(P, 0.0);
    for (std::size_t p = 0; p < P; ++p) {
      const double pred = predictors_[p]->predict(series, epoch);
      err[p] = std::abs(pred - rate_bps) / error_base(rate_bps);
      double& track = error_ewma_[pair * P + p];
      track = track < 0.0 ? err[p]
                          : kErrorEwmaAlpha * err[p] + (1.0 - kErrorEwmaAlpha) * track;
    }
    // Recent-error ring feeds the discount quantile with the error of the
    // pair's (post-update) best predictor.
    const std::size_t best_now = best_predictor(src, dst);
    const std::size_t W = kErrorWindow;
    double* ring = &recent_errors_[pair * W];
    if (recent_count_[pair] < W) {
      ring[(recent_head_[pair] + recent_count_[pair]) % W] = err[best_now];
      ++recent_count_[pair];
    } else {
      ring[recent_head_[pair]] = err[best_now];
      recent_head_[pair] = (recent_head_[pair] + 1) % W;
    }
    // CUSUM on the signed residual against the slow per-pair baseline. The
    // baseline deliberately lags the one-step forecasts — which adapt to a
    // new regime after a single sample and would hide any drift — and
    // snaps to the observed level when the alarm fires. A firing flags the
    // pair until its next probe.
    const double prev_base =
        baseline_[pair] >= 0.0 ? baseline_[pair] : series.newest().rate_bps;
    const double residual = (rate_bps - prev_base) / error_base(prev_base);
    const bool fired = cusum_[pair].update(residual);
    if (fired) {
      baseline_[pair] = rate_bps;  // the new regime's level
    } else {
      baseline_[pair] =
          prev_base + options_.changepoint_baseline_alpha * (rate_bps - prev_base);
    }
    changepoint_[pair] = fired ? 1 : 0;
    ++cycle_scored_;
    if (fired) ++cycle_fired_;
  }
  history_.record(src, dst, rate_bps, epoch);
}

double PredictivePolicy::predict(std::size_t src, std::size_t dst,
                                 std::uint64_t target_epoch) const {
  const PairSeries series = history_.series(src, dst);
  CHOREO_REQUIRE_MSG(!series.empty(), "no history for pair");
  return predictors_[best_predictor(src, dst)]->predict(series, target_epoch);
}

std::size_t PredictivePolicy::best_predictor(std::size_t src, std::size_t dst) const {
  CHOREO_REQUIRE(src < vm_count_ && dst < vm_count_);
  const std::size_t pair = pair_index(src, dst);
  std::size_t best = 0;  // last-value until anything is scored
  double best_err = std::numeric_limits<double>::infinity();
  for (std::size_t p = 0; p < predictors_.size(); ++p) {
    const double e = tracked_error(pair, p);
    if (e >= 0.0 && e < best_err) {
      best_err = e;
      best = p;
    }
  }
  return best;
}

double PredictivePolicy::predictability_error(std::size_t src, std::size_t dst) const {
  CHOREO_REQUIRE(src < vm_count_ && dst < vm_count_);
  const std::size_t pair = pair_index(src, dst);
  double best = std::numeric_limits<double>::infinity();
  for (std::size_t p = 0; p < predictors_.size(); ++p) {
    const double e = tracked_error(pair, p);
    if (e >= 0.0) best = std::min(best, e);
  }
  return best;
}

double PredictivePolicy::error_quantile(std::size_t src, std::size_t dst) const {
  CHOREO_REQUIRE(src < vm_count_ && dst < vm_count_);
  const std::size_t pair = pair_index(src, dst);
  if (recent_count_[pair] == 0) return 0.0;
  const std::size_t W = kErrorWindow;
  std::vector<double> errs(recent_count_[pair]);
  for (std::size_t k = 0; k < recent_count_[pair]; ++k) {
    errs[k] = recent_errors_[pair * W + (recent_head_[pair] + k) % W];
  }
  return percentile(std::move(errs), options_.discount_quantile);
}

bool PredictivePolicy::changepoint_flagged(std::size_t src, std::size_t dst) const {
  CHOREO_REQUIRE(src < vm_count_ && dst < vm_count_);
  return changepoint_[pair_index(src, dst)] != 0;
}

void PredictivePolicy::apply_to_view(place::ClusterView& view,
                                     const measure::ViewCache& cache,
                                     const measure::RefreshPlan& plan,
                                     std::uint64_t epoch) {
  if (!options_.enabled) return;
  const std::size_t n = view.machine_count();
  CHOREO_REQUIRE(cache.vm_count() == n && vm_count_ == n);
  std::vector<std::uint8_t> probed(n * n, 0);
  for (const measure::ProbePair& p : plan.pairs) probed[p.src * n + p.dst] = 1;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j || probed[i * n + j] || !cache.at(i, j).valid()) continue;
      if (history_.sample_count(i, j) == 0) continue;
      view.rate_bps(i, j) = predict(i, j, epoch);
      ++last_plan_.predicted;
    }
  }
  if (options_.discount_rates) {
    DoubleMatrix factor(n, n, 1.0);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        if (i == j || !cache.at(i, j).valid()) continue;
        factor(i, j) = 1.0 / (1.0 + error_quantile(i, j));
      }
    }
    place::apply_rate_discount(view, factor);
  }
}

}  // namespace choreo::forecast
