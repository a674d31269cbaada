#include "forecast/refresher.h"

#include <utility>

#include "util/require.h"

namespace choreo::forecast {

Refresher::Refresher(const cloud::Cloud& cloud, std::vector<cloud::VmId> vms,
                     measure::RefreshPolicy refresh, ForecastOptions forecast)
    : cloud_(cloud),
      vms_(std::move(vms)),
      refresh_(refresh),
      cache_(vms_.size()),
      policy_(std::move(forecast), vms_.size()),
      fresh_(vms_.size() * vms_.size(), 0) {
  CHOREO_REQUIRE(vms_.size() >= 2);
}

const measure::RefreshPlan& Refresher::plan(std::uint64_t epoch,
                                            const std::vector<std::size_t>& resync_rows) {
  const std::size_t n = vms_.size();
  epoch_ = epoch;
  incremental_ = cache_.measured_pairs() > 0;
  fresh_.assign(n * n, 0);
  // With forecasting disabled this is exactly the fixed policy's plan (same
  // pairs, same order); enabled, the probe budget goes to the pairs the best
  // predictor is worst at.
  plan_ = policy_.plan_refresh(cache_, epoch, refresh_);
  if (!resync_rows.empty()) {
    std::vector<std::uint8_t> planned(n * n, 0);
    for (const measure::ProbePair& p : plan_.pairs) planned[p.src * n + p.dst] = 1;
    for (const std::size_t src : resync_rows) {
      CHOREO_REQUIRE(src < n);
      for (std::size_t dst = 0; dst < n; ++dst) {
        if (dst == src || planned[src * n + dst]) continue;
        planned[src * n + dst] = 1;
        plan_.pairs.push_back(measure::ProbePair{src, dst});
        ++plan_.stale;
      }
    }
  }
  return plan_;
}

bool Refresher::record(std::size_t src, std::size_t dst, double rate_bps,
                       std::uint64_t epoch) {
  const measure::PairEstimate& have = cache_.at(src, dst);
  // Monotone epoch guard: a sample only advances the pair's estimate. Replays
  // of the same epoch and reordered older samples are no-ops, which is what
  // makes duplicate delivery idempotent end to end.
  if (have.valid() && epoch <= have.epoch) return false;
  cache_.store(src, dst, rate_bps, epoch);
  policy_.observe(src, dst, rate_bps, epoch);
  if (epoch == epoch_) fresh_[src * vms_.size() + dst] = 1;
  return true;
}

Refresher::Cycle Refresher::finish(const Probing& probing) {
  const std::size_t n = vms_.size();
  Cycle out;
  out.view = measure::cached_cluster_view(cloud_, vms_, cache_, epoch_);

  // apply_to_view treats every pair NOT in the plan it is handed as
  // unprobed, so handing it only the pairs that landed fresh (in planned
  // order) routes lost or late pairs through the forecast fill and the
  // uncertainty discount.
  measure::RefreshPlan landed;
  landed.pairs.reserve(plan_.pairs.size());
  for (const measure::ProbePair& p : plan_.pairs) {
    if (fresh_[p.src * n + p.dst]) landed.pairs.push_back(p);
  }
  policy_.apply_to_view(out.view, cache_, landed, epoch_);

  // A never-measured pair whose result never landed leaves a zero-rate hole
  // neither the cache nor the forecast can fill, and the placement layer
  // rejects a view with one. Fill holes with the most conservative rate
  // measured so far (do not tempt the placer across a link it knows nothing
  // about), or a nominal 1 Gbps when nothing has been measured at all.
  MeasureReport& rep = out.report;
  double fallback = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      const double r = out.view.rate_bps(i, j);
      if (r <= 0.0) {
        ++rep.pairs_defaulted;
      } else if (fallback == 0.0 || r < fallback) {
        fallback = r;
      }
    }
  }
  if (rep.pairs_defaulted > 0) {
    if (fallback == 0.0) fallback = 1e9;
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        if (i != j && out.view.rate_bps(i, j) <= 0.0) out.view.rate_bps(i, j) = fallback;
      }
    }
  }

  rep.wall_time_s = probing.wall_time_s;
  rep.rounds = probing.rounds;
  rep.pairs_probed = landed.pairs.size();
  rep.incremental = incremental_;
  rep.never_measured = plan_.never_measured;
  rep.stale = plan_.stale;
  rep.volatile_pairs = plan_.volatile_pairs;
  const PredictivePolicy::PlanStats& fs = policy_.last_plan();
  rep.predictable_pairs = fs.predictable;
  rep.unpredictable_pairs = fs.unpredictable + fs.warmup;
  rep.changepoint_pairs = fs.changepoints;
  rep.predicted_pairs = fs.predicted;
  rep.forecast_full_sweep = fs.full_sweep;
  if (probing.agent_reports) {
    rep.agent_pairs_planned = plan_.pairs.size();
    rep.agent_pairs_missing = plan_.pairs.size() - landed.pairs.size();
    rep.agent_reports = *probing.agent_reports;
  }
  return out;
}

Refresher::Cycle Refresher::run_in_process(const cloud::Cloud& probe_cloud,
                                           const measure::MeasurementPlan& mplan,
                                           std::uint64_t epoch) {
  const measure::RefreshPlan& planned = plan(epoch);
  const measure::PairsResult probed =
      measure::measure_rate_pairs(probe_cloud, vms_, planned.pairs, mplan, epoch);
  for (std::size_t k = 0; k < planned.pairs.size(); ++k) {
    record(planned.pairs[k].src, planned.pairs[k].dst, probed.rate_bps[k], epoch);
  }
  return finish({probed.rounds, probed.wall_time_s, std::nullopt});
}

}  // namespace choreo::forecast
