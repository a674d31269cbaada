// Forecast-plane headline: under a cross-traffic regime change mid-session,
// predictability-driven refresh (forecast::PredictivePolicy) must probe
// FEWER pairs than the fixed stale/volatile policy at equal-or-better
// placement-rate error — the rates that drive greedy placement stay at
// least as close to ground truth while the probe budget shrinks.
//
// The regime change is emulated with twin clouds sharing one seed (identical
// topology shape, VM allocation, and hose rates — only the cross traffic
// differs): epochs before the shift measure against the calm cloud, epochs
// after it against a congested one — 4x the background flows on a fabric
// whose residual capacity is one fifth (the derated links stand in for the
// un-modeled other-tenant load a real congestion episode adds). The
// predictive policy must notice via its CUSUM change-point channel and
// re-ground itself, while spending a fraction of the fixed policy's probes
// in steady state.
//
// `--smoke` runs a reduced sweep for CI; the exit code is non-zero on any
// failed check.

#include <cstring>
#include <memory>

#include "bench_common.h"
#include "forecast/refresher.h"
#include "measure/throughput_matrix.h"
#include "place/greedy.h"
#include "workload/generator.h"

namespace {

using namespace choreo;

struct EpochScore {
  std::size_t probes = 0;
  double placement_rate_err = 0.0;  ///< mean |view - truth| / truth on placed paths
  std::size_t changepoints = 0;
  bool full_sweep = false;
};

struct RunResult {
  std::vector<EpochScore> epochs;
  std::size_t total_probes = 0;
  double mean_err = 0.0;
  double post_shift_err = 0.0;  ///< mean over the epochs after the regime change
  std::size_t changepoint_probes = 0;
  std::size_t full_sweeps = 0;
};

/// One measurement+placement session over the regime change, refreshing
/// through forecast::Refresher under `forecast` — disabled, it plans with the
/// fixed policy `refresh` verbatim. The views' topology comes from the calm
/// twin (identical to the busy one); every cycle probes the cloud of its
/// epoch.
RunResult run_session(cloud::Cloud& calm, cloud::Cloud& busy,
                      const std::vector<cloud::VmId>& vms,
                      const measure::MeasurementPlan& mplan,
                      const measure::RefreshPolicy& refresh,
                      const forecast::ForecastOptions& forecast,
                      const place::Application& app, std::size_t total_epochs,
                      std::size_t shift_epoch) {
  RunResult result;
  forecast::Refresher refresher(calm, vms, refresh, forecast);
  std::vector<double> errs, post_errs;
  for (std::uint64_t e = 1; e <= total_epochs; ++e) {
    cloud::Cloud& active = e <= shift_epoch ? calm : busy;
    const forecast::Refresher::Cycle refreshed = refresher.run_in_process(active, mplan, e);
    EpochScore score;
    score.probes = refreshed.report.pairs_probed;
    score.changepoints = refreshed.report.changepoint_pairs;
    score.full_sweep = refreshed.report.forecast_full_sweep;

    // Place the probe application on the view this policy believes in, then
    // score the believed rates of the chosen paths against ground truth.
    place::ClusterState state(refreshed.view);
    place::GreedyPlacer greedy(place::RateModel::Hose);
    const place::Placement placement = greedy.place(app, state);
    double err_sum = 0.0;
    std::size_t paths = 0;
    place::for_each_placed_transfer(
        app, placement, [&](std::size_t m, std::size_t n, double) {
          const double truth = active.true_path_rate_bps(vms[m], vms[n], e);
          if (truth <= 0.0) return;
          err_sum += std::abs(refreshed.view.rate_bps(m, n) - truth) / truth;
          ++paths;
        });
    score.placement_rate_err = paths > 0 ? err_sum / static_cast<double>(paths) : 0.0;

    result.total_probes += score.probes;
    result.changepoint_probes += score.changepoints;
    if (score.full_sweep) ++result.full_sweeps;
    errs.push_back(score.placement_rate_err);
    if (e > shift_epoch) post_errs.push_back(score.placement_rate_err);
    result.epochs.push_back(score);
  }
  result.mean_err = mean(errs);
  result.post_shift_err = post_errs.empty() ? 0.0 : mean(post_errs);
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace choreo;
  using namespace choreo::bench;

  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  const std::size_t n_vms = smoke ? 8 : 10;
  const std::size_t total_epochs = smoke ? 28 : 32;
  const std::size_t shift_epoch = total_epochs / 2;
  const std::uint64_t seed = 2024;

  header("Forecast plane under drift: fixed vs predictive refresh (" +
         std::to_string(n_vms) + " VMs, regime change at epoch " +
         std::to_string(shift_epoch) + (smoke ? ") [smoke]" : ")"));

  // Twin clouds, one seed: identical fleets, different background tenants.
  const cloud::ProviderProfile calm_profile = cloud::ec2_2013();
  cloud::ProviderProfile busy_profile = cloud::ec2_2013();
  busy_profile.bg_flow_count = calm_profile.bg_flow_count * 4;
  busy_profile.bg_core_bias = 0.9;
  busy_profile.tree.region.host_link_bps *= 0.2;
  busy_profile.tree.region.agg_link_bps *= 0.2;
  busy_profile.tree.super_link_bps *= 0.2;
  cloud::Cloud calm(calm_profile, seed);
  cloud::Cloud busy(busy_profile, seed);
  const auto vms = calm.allocate_vms(n_vms);
  const auto vms_busy = busy.allocate_vms(n_vms);
  bool twins = vms.size() == vms_busy.size();
  for (std::size_t i = 0; twins && i < vms.size(); ++i) {
    twins = vms[i] == vms_busy[i] && calm.vm_host(vms[i]) == busy.vm_host(vms_busy[i]);
  }
  check(twins, "twin clouds allocate identical fleets (regime change is background-only)");

  measure::MeasurementPlan mplan;
  mplan.train.bursts = smoke ? 5 : 8;
  mplan.train.burst_length = smoke ? 100 : 150;

  // Fixed policy: the aggressive re-probing it needs to track drift at all.
  measure::RefreshPolicy fixed;
  fixed.max_age_epochs = 4;
  fixed.volatility_threshold = 0.5;

  // Predictive policy: staleness net relaxed (forecasts carry the steady
  // state), a 10% probe budget for the worst-predicted pairs, CUSUM +
  // regime alarm for the shift.
  measure::RefreshPolicy predictive_net = fixed;
  predictive_net.max_age_epochs = 1000;
  predictive_net.refresh_volatile = false;
  forecast::ForecastOptions opts;
  opts.enabled = true;
  // One observation is enough to coast on (the forecast degenerates to the
  // cached last value, exactly what the fixed policy trusts too); unscored
  // pairs rank as maximally unpredictable, so the budget spreads the
  // warm-up over the first cycles instead of paying a second full sweep.
  opts.min_observations = 1;
  opts.probe_budget_fraction = 0.15;
  opts.cusum.slack = 0.10;
  opts.cusum.threshold = 0.35;
  opts.changepoint_baseline_alpha = 0.15;
  opts.changepoint_sweep_fraction = 0.4;

  // The probe application: dense enough to stress many paths, CPU-heavy
  // enough that tasks must spread across machines.
  Rng app_rng(seed * 13 + 1);
  workload::GeneratorConfig gen;
  gen.min_tasks = 8;
  gen.max_tasks = 8;
  gen.min_cpu = 2.0;
  gen.max_cpu = 4.0;
  gen.pattern_weights = {0.0, 0.0, 0.0, 0.0, 1.0};  // uniform all-to-all
  const place::Application app = workload::generate_app(app_rng, gen);

  const RunResult fixed_run =
      run_session(calm, busy, vms, mplan, fixed, forecast::ForecastOptions{}, app,
                  total_epochs, shift_epoch);
  const RunResult pred_run = run_session(calm, busy, vms_busy, mplan, predictive_net,
                                         opts, app, total_epochs, shift_epoch);

  Table t({"epoch", "fixed probes", "pred probes", "fixed rate err", "pred rate err",
           "changepoints"});
  for (std::size_t e = 0; e < total_epochs; ++e) {
    t.add_row({std::to_string(e + 1) + (e + 1 == shift_epoch + 1 ? " <- shift" : ""),
               std::to_string(fixed_run.epochs[e].probes),
               std::to_string(pred_run.epochs[e].probes),
               fmt_pct(fixed_run.epochs[e].placement_rate_err),
               fmt_pct(pred_run.epochs[e].placement_rate_err),
               std::to_string(pred_run.epochs[e].changepoints) +
                   (pred_run.epochs[e].full_sweep ? " +sweep" : "")});
  }
  std::cout << t.to_string();

  Table s({"policy", "total probes", "mean rate err", "post-shift rate err"});
  s.add_row({"fixed stale/volatile", std::to_string(fixed_run.total_probes),
             fmt_pct(fixed_run.mean_err), fmt_pct(fixed_run.post_shift_err)});
  s.add_row({"predictive", std::to_string(pred_run.total_probes),
             fmt_pct(pred_run.mean_err), fmt_pct(pred_run.post_shift_err)});
  std::cout << s.to_string();

  // The acceptance criteria: fewer probes, equal-or-better placement-rate
  // error (5% relative slack for probe noise), and the shift was actually
  // detected rather than coasted through.
  check(pred_run.total_probes < fixed_run.total_probes,
        "predictive policy probes fewer pairs over the session");
  check(static_cast<double>(pred_run.total_probes) <=
            0.85 * static_cast<double>(fixed_run.total_probes),
        "probe saving is substantial (>= 15%)");
  check(pred_run.mean_err <= fixed_run.mean_err * 1.05,
        "placement-rate error no worse than the fixed policy (within 5%)");
  // The post-shift window is the noisiest stretch (the congested regime's
  // background varies epoch to epoch), so its tolerance sits above that
  // noise floor; the whole-session gate above is the binding one.
  check(pred_run.post_shift_err <= fixed_run.post_shift_err * 1.10,
        "post-shift error recovers to the fixed policy's level (within 10%)");
  check(pred_run.changepoint_probes > 0 || pred_run.full_sweeps > 0,
        "the regime change was detected (CUSUM probes or a full sweep fired)");
  return finish();
}
