// Ablation (§7.2 future work): "Choreo could capture [time variation] by
// modeling applications as a time series of traffic matrices ... A straw-man
// approach is to determine the 'major' phases of an application's bandwidth
// usage, and use Choreo as-is at the beginning of each phase."
//
// We generate multi-phase applications whose hotspots move between phases,
// and compare (a) one aggregate placement (what base Choreo does — "Choreo
// loses information about how an application changes over time") against
// (b) the per-phase straw-man with cost-gated migration, executing each
// phase's transfers on the emulated cloud sequentially.

#include "bench_common.h"
#include "measure/throughput_matrix.h"
#include "place/phases.h"
#include "place/placer.h"
#include "util/rng.h"
#include "workload/phased.h"

namespace {

using namespace choreo;

/// Executes a phased plan: phases run back to back; migrations between
/// phases add downtime. Returns total wall time.
double execute_plan(const cloud::Cloud& c, const std::vector<cloud::VmId>& vms,
                    const place::PhasedApplication& app, const place::PhasedPlan& plan,
                    double migration_cost_per_task_s, std::uint64_t epoch) {
  double total = 0.0;
  for (std::size_t k = 0; k < app.phase_count(); ++k) {
    if (k > 0 && k - 1 < plan.migrations.size()) {
      total += static_cast<double>(plan.migrations[k - 1]) * migration_cost_per_task_s;
    }
    const place::Application phase = app.phase(k);
    std::vector<cloud::Cloud::Transfer> transfers;
    for (std::size_t i = 0; i < phase.task_count(); ++i) {
      for (std::size_t j = 0; j < phase.task_count(); ++j) {
        const double b = phase.traffic_bytes(i, j);
        if (b <= 0.0) continue;
        transfers.push_back({vms[plan.placements[k].machine_of_task[i]],
                             vms[plan.placements[k].machine_of_task[j]], b, 0.0});
      }
    }
    if (!transfers.empty()) {
      total += c.execute(transfers, epoch + k).makespan_s;
    }
  }
  return total;
}

}  // namespace

int main() {
  using namespace choreo;
  using namespace choreo::bench;

  header("Ablation: per-phase placement vs aggregate matrix (Section 7.2 straw-man)");

  constexpr std::size_t kRuns = 30;
  constexpr double kMigrationCost = 0.5;  // seconds per moved task
  Rng rng(71);

  std::vector<double> speedups;
  std::size_t phased_wins = 0, done = 0, attempts = 0;
  std::size_t total_migrations = 0;
  while (done < kRuns && attempts < kRuns * 10) {
    ++attempts;
    cloud::Cloud c(cloud::ec2_2013(), 8100 + attempts);
    const auto vms = c.allocate_vms(10);

    workload::PhasedConfig cfg;
    cfg.min_phases = 2;
    cfg.max_phases = 4;
    cfg.gen.min_tasks = 6;
    cfg.gen.max_tasks = 10;
    cfg.gen.max_cpu = 2.0;
    const place::PhasedApplication app = workload::generate_phased_app(rng, cfg);
    double cores = 0.0;
    for (double cd : app.cpu_demand) cores += cd;
    if (cores > 0.85 * 40.0) continue;

    const place::ClusterView view = measure::true_cluster_view(c, vms, attempts);
    place::ClusterState state(view);
    try {
      const place::PhasedPlan phased =
          place::plan_phases(app, state, place::RateModel::Hose, kMigrationCost);
      const place::PhasedPlan aggregate =
          place::plan_aggregate(app, state, place::RateModel::Hose);
      const double t_phased =
          execute_plan(c, vms, app, phased, kMigrationCost, 100 + attempts);
      const double t_aggregate =
          execute_plan(c, vms, app, aggregate, kMigrationCost, 100 + attempts);
      if (t_phased <= 0.0 || t_aggregate <= 0.0) continue;
      speedups.push_back(relative_speedup(t_phased, t_aggregate));
      if (t_phased < t_aggregate) ++phased_wins;
      for (std::size_t m : phased.migrations) total_migrations += m;
      ++done;
    } catch (const place::PlacementError&) {
      continue;
    }
  }

  const SpeedupStats s = speedup_stats(speedups);
  Table t({"metric", "value"});
  t.add_row({"runs", fmt(done, 0)});
  t.add_row({"phased plan wins", fmt(phased_wins, 0)});
  t.add_row({"mean speed-up of per-phase vs aggregate", fmt(s.mean_pct, 1) + "%"});
  t.add_row({"median speed-up", fmt(s.median_pct, 1) + "%"});
  t.add_row({"max speed-up", fmt(s.max_pct, 1) + "%"});
  t.add_row({"tasks migrated across all runs", fmt(total_migrations, 0)});
  std::cout << t.to_string();

  check(phased_wins > done / 2, "per-phase placement beats the aggregate in most runs");
  check(s.mean_pct > 0.0, "phase awareness recovers completion time on average");
  check(total_migrations > 0, "the straw-man actually migrates between phases");
  return finish();
}
