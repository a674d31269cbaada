// §3.1/§4.1 measurement-overhead accounting.
//
// Three claims are enforced:
//   1. The paper's headline: packet trains measure a ten-VM (90 ordered
//      pairs) topology in "less than three minutes", vs ~10 s per pair for a
//      stable netperf reading.
//   2. The fleet-size sweep: ProbeScheduler edge-colors the n(n-1) ordered
//      pairs into exactly n-1 conflict-free rounds whose trains run
//      concurrently, so modeled wall-clock grows ~linearly in n while a
//      train-at-a-time plan grows quadratically.
//   3. The incremental path: a forecast::Refresher cycle (forecasting off)
//      re-probes only flagged pairs — strictly fewer than a full
//      re-measurement — and carries every unchanged estimate over
//      bit-for-bit.
//
// `--smoke` runs a reduced sweep for CI; the exit code is non-zero on any
// [FAIL], which is what lets CI enforce the §4.1 claim continuously.

#include <cstring>

#include "bench_common.h"
#include "forecast/refresher.h"
#include "measure/packet_train.h"
#include "measure/probe_scheduler.h"
#include "measure/throughput_matrix.h"
#include "measure/view_cache.h"

int main(int argc, char** argv) {
  using namespace choreo;
  using namespace choreo::bench;

  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  BenchJson json("tbl_measurement_overhead");
  json.config("smoke", smoke ? "true" : "false");

  header("Measurement overhead: 10 VMs, 90 ordered pairs");

  measure::MeasurementPlan ec2_plan;
  ec2_plan.train.bursts = 10;
  ec2_plan.train.burst_length = 200;
  ec2_plan.train.line_rate_bps = 4e9;

  measure::MeasurementPlan rs_plan = ec2_plan;
  rs_plan.train.bursts = 10;
  rs_plan.train.burst_length = 2000;
  rs_plan.train.line_rate_bps = 1e9;

  const double ec2_train = measure::train_duration_s(ec2_plan.train);
  const double rs_train = measure::train_duration_s(rs_plan.train);
  const double netperf_per_pair = 10.0;

  const double ec2_wall = measure::measurement_wall_time_s(ec2_plan, 9);
  const double rs_wall = measure::measurement_wall_time_s(rs_plan, 9);
  // netperf cannot run two probes out of one VM either: 9 rounds of 10 s.
  const double netperf_wall =
      measure::kSetupOverheadS + 9.0 * (10.0 + measure::kRoundOverheadS);

  Table t({"method", "per-probe (s)", "90-pair wall clock (s)"});
  t.add_row({"packet train (EC2 10x200)", fmt(ec2_train, 3), fmt(ec2_wall, 1)});
  t.add_row({"packet train (Rackspace 10x2000)", fmt(rs_train, 3), fmt(rs_wall, 1)});
  t.add_row({"netperf 10 s", fmt(netperf_per_pair, 1), fmt(netperf_wall, 1)});
  std::cout << t.to_string();
  json.row()
      .row("kind", "snapshot")
      .row("method", "train_ec2")
      .row("per_probe_s", ec2_train)
      .row("wall_s", ec2_wall);
  json.row()
      .row("kind", "snapshot")
      .row("method", "train_rackspace")
      .row("per_probe_s", rs_train)
      .row("wall_s", rs_wall);
  json.row()
      .row("kind", "snapshot")
      .row("method", "netperf")
      .row("per_probe_s", netperf_per_pair)
      .row("wall_s", netperf_wall);

  check(ec2_train < 1.0, "one EC2 train takes under a second (paper: <1 s)");
  check(rs_train < 1.0, "one Rackspace train takes under a second");
  check(ec2_wall < 180.0, "full 90-pair EC2 snapshot under three minutes");
  check(rs_wall < 180.0, "full 90-pair Rackspace snapshot under three minutes");
  check(netperf_wall > ec2_wall, "netperf-based snapshot is slower than trains");

  // Cross-check the plan arithmetic against the orchestrator itself.
  {
    cloud::Cloud c(cloud::ec2_2013(), 5);
    const auto vms = c.allocate_vms(10);
    measure::MeasurementPlan plan = ec2_plan;
    plan.workers = 4;  // concurrent trains; results identical to sequential
    const measure::PairsResult res =
        measure::measure_rate_pairs(c, vms, measure::all_ordered_pairs(vms.size()), plan, 1);
    std::cout << "orchestrator: " << res.rate_bps.size() << " pairs in " << res.rounds
              << " rounds, modelled wall clock " << fmt(res.wall_time_s, 1) << " s\n";
    check(res.rate_bps.size() == 90, "90 ordered pairs measured");
    check(res.rounds == 9, "9 rounds (each VM sources one train per round)");
    check(std::abs(res.wall_time_s - ec2_wall) < 1e-6, "wall-clock model matches plan");
  }

  header(std::string("Fleet-size sweep: conflict-free rounds vs sequential trains") +
         (smoke ? " [smoke]" : ""));

  const std::vector<std::size_t> fleet_sizes =
      smoke ? std::vector<std::size_t>{10, 50, 200}
            : std::vector<std::size_t>{10, 25, 50, 100, 200};
  Table sweep({"VMs", "pairs", "rounds", "parallel wall (s)", "sequential wall (s)",
               "speed-up"});
  bool rounds_ok = true, linear_ok = true;
  double wall10 = 0.0;
  for (std::size_t n : fleet_sizes) {
    const measure::ProbeSchedule s =
        measure::schedule_probes(n, measure::all_ordered_pairs(n));
    s.validate(n);
    rounds_ok &= (s.round_count() == n - 1);
    const double parallel_wall = measure::measurement_wall_time_s(ec2_plan, s.round_count());
    // A train-at-a-time plan pays the per-round overhead once per pair.
    const double sequential_wall =
        measure::measurement_wall_time_s(ec2_plan, s.pair_count());
    if (n == 10) wall10 = parallel_wall;
    if (wall10 > 0.0) {
      // Linear growth: wall(n)/wall(10) tracks (n-1)/9, nowhere near the
      // quadratic pair ratio n(n-1)/90.
      const double ratio = parallel_wall / wall10;
      const double linear = static_cast<double>(n - 1) / 9.0;
      const double quadratic = static_cast<double>(n * (n - 1)) / 90.0;
      linear_ok &= ratio < 1.2 * linear && (n == 10 || ratio < 0.5 * quadratic);
    }
    sweep.add_row({fmt(static_cast<double>(n), 0),
                   fmt(static_cast<double>(s.pair_count()), 0),
                   fmt(static_cast<double>(s.round_count()), 0), fmt(parallel_wall, 0),
                   fmt(sequential_wall, 0),
                   fmt(sequential_wall / parallel_wall, 1) + "x"});
    json.row()
        .row("kind", "fleet_sweep")
        .row("vms", static_cast<double>(n))
        .row("rounds", static_cast<double>(s.round_count()))
        .row("parallel_wall_s", parallel_wall)
        .row("sequential_wall_s", sequential_wall);
  }
  std::cout << sweep.to_string();
  check(rounds_ok, "scheduler hits the Konig bound: n-1 rounds for n(n-1) pairs");
  check(linear_ok, "modeled wall-clock grows ~linearly in fleet size, not quadratically");

  header("Incremental refresh: re-probe only what changed");

  {
    cloud::Cloud c(cloud::ec2_2013(), 7);
    const std::size_t n = smoke ? 6 : 10;
    const auto vms = c.allocate_vms(n);
    measure::MeasurementPlan plan;
    plan.train.bursts = smoke ? 5 : 10;
    plan.train.burst_length = smoke ? 100 : 200;
    plan.workers = 2;
    measure::RefreshPolicy policy;
    policy.max_age_epochs = 50;
    policy.volatility_threshold = 1e9;  // isolate the staleness mechanics

    forecast::Refresher refresher(c, vms, policy, forecast::ForecastOptions{});
    const forecast::Refresher::Cycle first = refresher.run_in_process(c, plan, 1);
    refresher.invalidate(0, 1);
    refresher.invalidate(1, 0);
    refresher.invalidate(2, 3);
    const forecast::Refresher::Cycle second = refresher.run_in_process(c, plan, 5);
    const forecast::MeasureReport& full = first.report;
    const forecast::MeasureReport& incr = second.report;

    Table it({"cycle", "pairs probed", "rounds", "modeled wall (s)"});
    it.add_row({"full", fmt(static_cast<double>(full.pairs_probed), 0),
                fmt(static_cast<double>(full.rounds), 0), fmt(full.wall_time_s, 1)});
    it.add_row({"incremental", fmt(static_cast<double>(incr.pairs_probed), 0),
                fmt(static_cast<double>(incr.rounds), 0), fmt(incr.wall_time_s, 1)});
    std::cout << it.to_string();

    bool unchanged_identical = true;
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        if (i == j || second.view.pair_epoch(i, j) != 1) continue;
        unchanged_identical &= second.view.rate_bps(i, j) == first.view.rate_bps(i, j);
      }
    }
    check(full.pairs_probed == n * (n - 1), "first cycle probes the full matrix");
    check(incr.pairs_probed == 3 && incr.pairs_probed < full.pairs_probed,
          "incremental cycle probes strictly fewer pairs");
    check(incr.wall_time_s < full.wall_time_s,
          "incremental cycle is proportionally cheaper");
    check(unchanged_identical, "unchanged pairs carry over bit-for-bit");
    json.row()
        .row("kind", "refresh")
        .row("cycle", "full")
        .row("pairs_probed", static_cast<double>(full.pairs_probed))
        .row("wall_s", full.wall_time_s);
    json.row()
        .row("kind", "refresh")
        .row("cycle", "incremental")
        .row("pairs_probed", static_cast<double>(incr.pairs_probed))
        .row("wall_s", incr.wall_time_s);
  }

  const std::string json_path =
      json_path_from_args(argc, argv, "tbl_measurement_overhead");
  if (!json_path.empty()) json.write(json_path);
  return finish();
}
