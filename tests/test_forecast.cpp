#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "forecast/predictive_policy.h"
#include "forecast/predictor.h"
#include "forecast/rate_history.h"
#include "measure/view_cache.h"
#include "oracles/exhaustive_greedy.h"
#include "place/greedy.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/units.h"
#include "workload/trace.h"

namespace choreo::forecast {
namespace {

using measure::ProbePair;
using measure::RefreshPlan;
using measure::RefreshPolicy;
using measure::ViewCache;
using units::mbps;

// ---------------------------------------------------------------------------
// RateHistory
// ---------------------------------------------------------------------------

TEST(RateHistory, RecordsOldestFirstAndEvictsAtCapacity) {
  RateHistory h(3, 4);
  for (std::uint64_t e = 1; e <= 6; ++e) {
    h.record(0, 1, static_cast<double>(e) * 100.0, e);
  }
  EXPECT_EQ(h.sample_count(0, 1), 4u);
  EXPECT_EQ(h.observations(0, 1), 6u);
  const PairSeries s = h.series(0, 1);
  ASSERT_EQ(s.size(), 4u);
  // Oldest retained sample is epoch 3 (1 and 2 were evicted).
  EXPECT_EQ(s.at(0).epoch, 3u);
  EXPECT_EQ(s.at(3).epoch, 6u);
  EXPECT_EQ(s.newest().rate_bps, 600.0);
  EXPECT_EQ(s.from_newest(1).rate_bps, 500.0);
  EXPECT_EQ(h.sample_count(1, 0), 0u);
  EXPECT_TRUE(h.series(1, 0).empty());
}

// ---------------------------------------------------------------------------
// Predictors
// ---------------------------------------------------------------------------

PairSeries fill(RateHistory& h, const std::vector<double>& values) {
  for (std::size_t t = 0; t < values.size(); ++t) {
    h.record(0, 1, values[t], t);
  }
  return h.series(0, 1);
}

TEST(Predictors, LastValueReturnsNewestSample) {
  RateHistory h(2, 8);
  const PairSeries s = fill(h, {100.0, 200.0, 150.0});
  EXPECT_EQ(LastValuePredictor().predict(s, 3), 150.0);
}

TEST(Predictors, EwmaFoldsOldestToNewest) {
  RateHistory h(2, 8);
  const PairSeries s = fill(h, {100.0, 200.0});
  // e = 100; e = 0.5*200 + 0.5*100 = 150.
  EXPECT_DOUBLE_EQ(EwmaPredictor(0.5).predict(s, 2), 150.0);
  // alpha = 1: degenerates to last value.
  EXPECT_DOUBLE_EQ(EwmaPredictor(1.0).predict(s, 2), 200.0);
}

TEST(Predictors, TimeOfDayAveragesSamePhaseAndFallsBack) {
  RateHistory h(2, 64);
  // Epochs 0..11 with period 4: phases 0,1,2,3 repeating.
  std::vector<double> v;
  for (std::size_t t = 0; t < 12; ++t) {
    v.push_back(static_cast<double>(100 * (t % 4) + t));  // phase-dependent
  }
  const PairSeries s = fill(h, v);
  const TimeOfDayPredictor tod(4);
  // Target epoch 12 (phase 0): mean of v[0], v[4], v[8] = (0 + 104 + 208)/3.
  EXPECT_DOUBLE_EQ(tod.predict(s, 12), (v[8] + v[4] + v[0]) / 3.0);
  // A target phase nothing in the window matches is impossible with dense
  // epochs; check the fallback with a sparse history instead.
  RateHistory sparse(2, 8);
  sparse.record(0, 1, 700.0, 1);
  EXPECT_DOUBLE_EQ(tod.predict(sparse.series(0, 1), 4), 700.0);  // phase 0: no match
}

TEST(Predictors, BlendAveragesLastAndTimeOfDay) {
  RateHistory h(2, 64);
  std::vector<double> v(9, 0.0);
  for (std::size_t t = 0; t < v.size(); ++t) v[t] = static_cast<double>(t + 1);
  const PairSeries s = fill(h, v);
  const double last = v.back();
  const double tod = (v[8] + v[4] + v[0]) / 3.0;  // period 4, target phase 0
  EXPECT_DOUBLE_EQ(BlendPredictor(4).predict(s, 12), 0.5 * (last + tod));
}

// The §2.1 trace scorers are the differential oracle: running the online
// predictors over a dense hourly series must reproduce
// workload::score_prev_hour / score_time_of_day / score_blend exactly
// (same arithmetic, same accumulation order).
TEST(Predictors, MatchTracePredictorScoringBitForBit) {
  // A real synthetic trace series (diurnal + AR(1) noise), long enough for
  // several "days".
  const workload::HpCloudTrace trace(77, workload::TraceConfig{});
  const std::vector<double>* series = nullptr;
  for (const workload::TraceApp& app : trace.apps()) {
    if (app.hourly_bytes.size() >= 24 * 7) {
      series = &app.hourly_bytes;
      break;
    }
  }
  ASSERT_NE(series, nullptr) << "trace has no long-running service";
  const std::vector<double>& v = *series;

  RateHistory h(2, v.size() + 1);  // unbounded for the dense comparison
  const LastValuePredictor last;
  const TimeOfDayPredictor tod(24);
  const BlendPredictor blend(24);
  std::vector<double> last_err, tod_err, blend_err;
  for (std::size_t t = 0; t < v.size(); ++t) {
    if (t >= 1 && v[t] > 0.0) {
      const PairSeries s = h.series(0, 1);
      last_err.push_back(std::abs(last.predict(s, t) - v[t]) / v[t]);
      if (t >= 24) {
        tod_err.push_back(std::abs(tod.predict(s, t) - v[t]) / v[t]);
        blend_err.push_back(std::abs(blend.predict(s, t) - v[t]) / v[t]);
      }
    }
    h.record(0, 1, v[t], t);
  }

  const workload::PredictorScore prev = workload::score_prev_hour(v);
  ASSERT_EQ(last_err.size(), prev.samples);
  EXPECT_DOUBLE_EQ(mean(last_err), prev.mean_rel_error);
  EXPECT_DOUBLE_EQ(median(last_err), prev.median_rel_error);

  const workload::PredictorScore tods = workload::score_time_of_day(v);
  ASSERT_EQ(tod_err.size(), tods.samples);
  EXPECT_DOUBLE_EQ(mean(tod_err), tods.mean_rel_error);
  EXPECT_DOUBLE_EQ(median(tod_err), tods.median_rel_error);

  const workload::PredictorScore blends = workload::score_blend(v);
  ASSERT_EQ(blend_err.size(), blends.samples);
  EXPECT_DOUBLE_EQ(mean(blend_err), blends.mean_rel_error);
  EXPECT_DOUBLE_EQ(median(blend_err), blends.median_rel_error);
}

// ---------------------------------------------------------------------------
// CUSUM change-point detection
// ---------------------------------------------------------------------------

TEST(Cusum, FiresOnSustainedDriftNotOnNoise) {
  CusumDetector::Params p;
  p.slack = 0.15;
  p.threshold = 0.5;
  CusumDetector under(p);
  // Alternating small residuals stay under the slack: never fires.
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(under.update(i % 2 == 0 ? 0.1 : -0.1));
  }
  // A sustained +30% drift accumulates 0.15 per step: fires on the 4th.
  CusumDetector drift(p);
  EXPECT_FALSE(drift.update(0.3));
  EXPECT_FALSE(drift.update(0.3));
  EXPECT_FALSE(drift.update(0.3));
  EXPECT_TRUE(drift.update(0.3));
  // Fired: sums reset.
  EXPECT_EQ(drift.positive_sum(), 0.0);
  EXPECT_FALSE(drift.update(0.3));
}

TEST(Cusum, CatchesNegativeDriftToo) {
  CusumDetector::Params p;
  p.slack = 0.1;
  p.threshold = 0.3;
  CusumDetector d(p);
  EXPECT_FALSE(d.update(-0.3));  // g- = 0.2
  EXPECT_TRUE(d.update(-0.3));   // g- = 0.4 > threshold
}

// ---------------------------------------------------------------------------
// PredictivePolicy
// ---------------------------------------------------------------------------

ForecastOptions enabled_options() {
  ForecastOptions o;
  o.enabled = true;
  o.min_observations = 2;
  o.probe_budget_fraction = 0.5;
  o.min_probes_per_cycle = 1;
  return o;
}

TEST(PredictivePolicy, DisabledDelegatesToFixedPolicyVerbatim) {
  ViewCache cache(4);
  for (const ProbePair& p : measure::all_ordered_pairs(4)) {
    cache.store(p.src, p.dst, mbps(500), 1);
  }
  cache.store(0, 1, mbps(2000), 2);  // volatile under the fixed rule
  cache.invalidate(2, 3);

  RefreshPolicy fixed;
  fixed.max_age_epochs = 8;
  fixed.volatility_threshold = 0.5;

  PredictivePolicy policy(ForecastOptions{}, 4);  // default: disabled
  const RefreshPlan got = policy.plan_refresh(cache, 3, fixed);
  const RefreshPlan want = cache.plan_refresh(3, fixed);
  ASSERT_EQ(got.pairs.size(), want.pairs.size());
  for (std::size_t k = 0; k < got.pairs.size(); ++k) {
    EXPECT_TRUE(got.pairs[k] == want.pairs[k]) << "pair order diverged at " << k;
  }
  EXPECT_EQ(got.never_measured, want.never_measured);
  EXPECT_EQ(got.stale, want.stale);
  EXPECT_EQ(got.volatile_pairs, want.volatile_pairs);
  EXPECT_EQ(policy.last_plan().predictable, 0u);
  EXPECT_EQ(policy.last_plan().unpredictable, 0u);
  EXPECT_EQ(policy.history().vm_count(), 0u);  // no per-pair state
}

// Every per-pair track is sized for the fleet at construction, so a probe
// result can be scored before the first plan.
TEST(PredictivePolicy, ObservesBeforeFirstPlan) {
  PredictivePolicy policy(enabled_options(), 3);
  policy.observe(0, 1, mbps(500), 1);
  policy.observe(0, 1, mbps(400), 2);
  EXPECT_EQ(policy.history().sample_count(0, 1), 2u);
  EXPECT_EQ(policy.history().sample_count(1, 0), 0u);
  EXPECT_FALSE(std::isinf(policy.predictability_error(0, 1)));
  EXPECT_TRUE(std::isinf(policy.predictability_error(2, 1)));
}

TEST(PredictivePolicy, ProbesNeverMeasuredStaleAndWarmupPairs) {
  ViewCache cache(3);
  PredictivePolicy policy(enabled_options(), 3);
  RefreshPolicy fixed;
  fixed.max_age_epochs = 4;

  // Fresh cache: everything never-measured.
  RefreshPlan plan = policy.plan_refresh(cache, 1, fixed);
  EXPECT_EQ(plan.pairs.size(), 6u);
  EXPECT_EQ(plan.never_measured, 6u);

  // One observation each: cached but under min_observations -> warm-up.
  for (const ProbePair& p : plan.pairs) {
    cache.store(p.src, p.dst, mbps(500), 1);
    policy.observe(p.src, p.dst, mbps(500), 1);
  }
  plan = policy.plan_refresh(cache, 2, fixed);
  EXPECT_EQ(plan.pairs.size(), 6u);
  EXPECT_EQ(policy.last_plan().warmup, 6u);

  // Second round: warmed up; at epoch 10 everything is stale again.
  for (const ProbePair& p : plan.pairs) {
    cache.store(p.src, p.dst, mbps(500), 2);
    policy.observe(p.src, p.dst, mbps(500), 2);
  }
  plan = policy.plan_refresh(cache, 10, fixed);
  EXPECT_EQ(plan.stale, 6u);
}

TEST(PredictivePolicy, BudgetGoesToTheWorstPredictedPairs) {
  ForecastOptions opts = enabled_options();
  opts.probe_budget_fraction = 0.25;  // 1 of 6 pairs
  ViewCache cache(3);
  PredictivePolicy policy(opts, 3);
  RefreshPolicy fixed;
  fixed.max_age_epochs = 100;  // staleness out of the picture

  // Three cycles of observations: pair (1, 2) oscillates wildly (high
  // prediction error), everything else is rock steady.
  for (std::uint64_t e = 1; e <= 3; ++e) {
    for (const ProbePair& p : measure::all_ordered_pairs(3)) {
      const bool wild = p.src == 1 && p.dst == 2;
      const double rate = wild ? mbps(e % 2 == 0 ? 2000 : 200) : mbps(500);
      cache.store(p.src, p.dst, rate, e);
      policy.observe(p.src, p.dst, rate, e);
    }
  }
  EXPECT_GT(policy.predictability_error(1, 2), policy.predictability_error(0, 1));

  const RefreshPlan plan = policy.plan_refresh(cache, 4, fixed);
  // All pairs are in control; the budget (25% of 6 -> 1) goes to the wild
  // pair, everything else coasts on forecasts.
  ASSERT_EQ(plan.pairs.size(), 1u);
  EXPECT_TRUE(plan.pairs[0] == (ProbePair{1, 2}));
  EXPECT_EQ(policy.last_plan().unpredictable, 1u);
  EXPECT_EQ(policy.last_plan().predictable, 5u);
}

TEST(PredictivePolicy, CusumFlagsRegimeShiftedPair) {
  ForecastOptions opts = enabled_options();
  opts.probe_budget_fraction = 0.0;  // isolate the change-point channel
  opts.min_probes_per_cycle = 0;
  opts.cusum.slack = 0.15;
  opts.cusum.threshold = 0.5;
  ViewCache cache(3);
  PredictivePolicy policy(opts, 3);
  RefreshPolicy fixed;
  fixed.max_age_epochs = 1000;

  for (std::uint64_t e = 1; e <= 4; ++e) {
    for (const ProbePair& p : measure::all_ordered_pairs(3)) {
      cache.store(p.src, p.dst, mbps(500), e);
      policy.observe(p.src, p.dst, mbps(500), e);
    }
  }
  // Pair (0, 2) drops to half rate: a sustained -50% residual fires the
  // CUSUM within two observations (0.35 + 0.35 > 0.5).
  policy.observe(0, 2, mbps(250), 5);
  ASSERT_FALSE(policy.changepoint_flagged(0, 2));
  policy.observe(0, 2, mbps(250), 6);
  EXPECT_TRUE(policy.changepoint_flagged(0, 2));
  EXPECT_FALSE(policy.changepoint_flagged(0, 1));

  const RefreshPlan plan = policy.plan_refresh(cache, 7, fixed);
  ASSERT_EQ(plan.pairs.size(), 1u);
  EXPECT_TRUE(plan.pairs[0] == (ProbePair{0, 2}));
  EXPECT_EQ(policy.last_plan().changepoints, 1u);

  // Probing the pair again with an on-forecast rate clears the flag.
  policy.observe(0, 2, mbps(250), 7);
  EXPECT_FALSE(policy.changepoint_flagged(0, 2));
}

TEST(PredictivePolicy, RegimeAlarmForcesFullSweep) {
  ForecastOptions opts = enabled_options();
  opts.changepoint_sweep_fraction = 0.5;
  opts.cusum.slack = 0.1;
  opts.cusum.threshold = 0.3;
  ViewCache cache(3);
  PredictivePolicy policy(opts, 3);
  RefreshPolicy fixed;
  fixed.max_age_epochs = 1000;

  for (std::uint64_t e = 1; e <= 3; ++e) {
    for (const ProbePair& p : measure::all_ordered_pairs(3)) {
      cache.store(p.src, p.dst, mbps(500), e);
      policy.observe(p.src, p.dst, mbps(500), e);
    }
  }
  policy.plan_refresh(cache, 4, fixed);  // resets the cycle counters
  // Every pair halves: all six scored probes fire the CUSUM.
  for (const ProbePair& p : measure::all_ordered_pairs(3)) {
    cache.store(p.src, p.dst, mbps(250), 4);
    policy.observe(p.src, p.dst, mbps(250), 4);
    cache.store(p.src, p.dst, mbps(250), 5);
    policy.observe(p.src, p.dst, mbps(250), 5);
  }
  const RefreshPlan plan = policy.plan_refresh(cache, 6, fixed);
  EXPECT_TRUE(policy.last_plan().full_sweep);
  EXPECT_EQ(plan.pairs.size(), 6u);
}

TEST(PredictivePolicy, AppliesForecastsAndDiscountsToView) {
  ForecastOptions opts = enabled_options();
  opts.discount_rates = true;
  opts.discount_quantile = 1.0;  // max of the recent errors: easy to compute
  ViewCache cache(2);
  PredictivePolicy policy(opts, 2);

  // Pair (0, 1) alternates 400/800: last-value error |400-800|/800 = 0.5 or
  // |800-400|/400 = 1.0. Pair (1, 0) is steady at 600.
  const std::vector<double> rates01 = {mbps(400), mbps(800), mbps(400), mbps(800)};
  for (std::uint64_t e = 1; e <= 4; ++e) {
    cache.store(0, 1, rates01[e - 1], e);
    policy.observe(0, 1, rates01[e - 1], e);
    cache.store(1, 0, mbps(600), e);
    policy.observe(1, 0, mbps(600), e);
  }

  // Cycle at epoch 5 probed nothing: both pairs coast.
  place::ClusterView view;
  view.rate_bps = cache.rates();
  view.cross_traffic = DoubleMatrix(2, 2, 0.0);
  view.cores = {4.0, 4.0};
  view.colocation_group = {0, 1};
  RefreshPlan plan;  // empty: nothing probed
  policy.apply_to_view(view, cache, plan, 5);

  EXPECT_EQ(policy.last_plan().predicted, 2u);
  // (1, 0): steady forecast 600, zero error -> no discount.
  EXPECT_DOUBLE_EQ(view.rate_bps(1, 0), mbps(600));
  // (0, 1): the best predictor's forecast, discounted by 1/(1 + max err).
  const double q = policy.error_quantile(0, 1);
  EXPECT_GT(q, 0.0);
  const double forecast = policy.predict(0, 1, 5);
  EXPECT_DOUBLE_EQ(view.rate_bps(0, 1), forecast / (1.0 + q));
}

// The uncertainty-aware placement hook discounts the ClusterView
// (place::apply_rate_discount, what PredictivePolicy::apply_to_view does),
// and a live state takes the discounted view through update_view. The
// committed state must keep its occupancy, rebuild the rate indexes, match
// a state built on the discounted view, and preserve the engine/exhaustive-
// oracle bit-identity under the discount.
TEST(RateDiscountHook, EngineDiscountMatchesViewDiscountAndKeepsOracleIdentity) {
  const std::size_t n = 4;
  place::ClusterView view;
  view.rate_bps = DoubleMatrix(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i != j) view.rate_bps(i, j) = mbps(400 + 100 * i + 30 * j);
    }
  }
  view.cross_traffic = DoubleMatrix(n, n, 0.0);
  view.cores.assign(n, 4.0);
  view.colocation_group = {0, 1, 2, 3};

  DoubleMatrix factor(n, n, 1.0);
  factor(0, 1) = 0.5;
  factor(1, 2) = 0.7;
  factor(3, 0) = 0.9;

  Rng rng(123);
  workload::GeneratorConfig gen;
  gen.min_tasks = 4;
  gen.max_tasks = 6;
  gen.max_cpu = 1.5;
  const place::Application first = workload::generate_app(rng, gen);
  const place::Application second = workload::generate_app(rng, gen);

  place::ClusterView discounted = view;
  place::apply_rate_discount(discounted, factor);

  // Path A: build the state on the discounted view, then commit.
  place::ClusterState state_a(discounted);

  // Path B: build on the undiscounted view, commit, then update_view with
  // the discounted view.
  place::ClusterState state_b(view);
  place::GreedyPlacer greedy(place::RateModel::Hose);
  const place::Placement p_first = greedy.place(first, state_b);
  state_b.commit(first, p_first);
  state_a.commit(first, p_first);
  state_b.update_view(discounted);

  // Same rates, same residual occupancy.
  EXPECT_TRUE(state_a.view().rate_bps == state_b.view().rate_bps);
  EXPECT_DOUBLE_EQ(state_b.view().rate_bps(0, 1), view.rate_bps(0, 1) * 0.5);
  for (std::size_t m = 0; m < n; ++m) {
    EXPECT_DOUBLE_EQ(state_a.free_cores(m), state_b.free_cores(m));
    EXPECT_DOUBLE_EQ(state_a.transfers_out_of(m), state_b.transfers_out_of(m));
  }

  // Same downstream placements, and the engine-backed greedy stays
  // bit-identical to the exhaustive oracle on the discounted state.
  const place::Placement via_a = greedy.place(second, state_a);
  const place::Placement via_b = greedy.place(second, state_b);
  EXPECT_EQ(via_a.machine_of_task, via_b.machine_of_task);
  place::ExhaustiveGreedyPlacer oracle(place::RateModel::Hose);
  const place::Placement via_oracle = oracle.place(second, state_b);
  EXPECT_EQ(via_b.machine_of_task, via_oracle.machine_of_task);
}

}  // namespace
}  // namespace choreo::forecast
