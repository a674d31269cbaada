// Distributed agent plane under degraded transport: how much placement
// quality the controller loses when StatsReports are dropped, delayed,
// duplicated, and agents crash — and what the report budget does to the
// bytes on the wire. Sweeps loss rate x report budget at fleet scale
// (100-500 VMs full, 40 in --smoke) and scores each configuration by the
// believed-vs-true rate error on the paths a greedy placement actually
// chose (the tbl_forecast metric), the fraction of planned pairs whose
// report never landed in-cycle, and the transport byte counts.
//
// The qualitative claims checked: the lossless transport is exact (nothing
// missing, nothing retransmitted — the bit-identity oracle's precondition),
// loss degrades coverage but the controller keeps placing against its
// stale-or-partial view with bounded rate error, and a tighter report
// budget trades bytes for deferral without breaking the cycle.

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "agent/options.h"
#include "agent/plane.h"
#include "bench_common.h"
#include "cloud/profile.h"
#include "measure/throughput_matrix.h"
#include "place/greedy.h"
#include "workload/generator.h"

namespace {

using namespace choreo;

struct SweepPoint {
  std::size_t vms = 0;
  double loss = 0.0;
  std::size_t max_samples = 0;  ///< per report; 0 = unlimited
  std::size_t max_reports = 0;  ///< per cycle; 0 = unlimited
  std::size_t cycles = 0;
};

struct SweepResult {
  double mean_rate_err = 0.0;      ///< believed vs true on placed paths
  double missing_fraction = 0.0;   ///< planned pairs with no in-cycle report
  double defaulted_fraction = 0.0; ///< view holes filled with the fallback rate
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_delivered = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t crashes = 0;
  std::uint64_t samples_deferred = 0;
};

SweepResult run_point(const SweepPoint& point, const measure::MeasurementPlan& mplan,
                      std::uint64_t seed) {
  const std::size_t cycles = point.cycles;
  cloud::Cloud cloud(cloud::ec2_2013(), seed);
  const auto vms = cloud.allocate_vms(point.vms);

  measure::RefreshPolicy refresh;
  refresh.max_age_epochs = 3;  // keep re-probing so losses get retried

  agent::AgentOptions opts;
  opts.enabled = true;
  opts.transport.seed = seed * 17 + 3;
  opts.transport.fault.loss = point.loss;
  if (point.loss > 0.0) {
    opts.transport.fault.duplicate = 0.05;
    opts.transport.fault.delay_max_cycles = 2;
    opts.crash_rate = 0.01;
    opts.crash_seed = seed + 11;
  }
  opts.max_samples_per_report = point.max_samples;
  opts.max_reports_per_cycle = point.max_reports;

  agent::AgentPlane plane(cloud, vms, mplan, refresh, forecast::ForecastOptions{},
                          opts);

  // One dense CPU-heavy application placed on every cycle's view; believed
  // rates on its chosen paths are scored against ground truth.
  Rng app_rng(seed * 13 + 1);
  workload::GeneratorConfig gen;
  gen.min_tasks = 8;
  gen.max_tasks = 8;
  gen.min_cpu = 2.0;
  gen.max_cpu = 4.0;
  gen.pattern_weights = {0.0, 0.0, 0.0, 0.0, 1.0};  // uniform all-to-all
  const place::Application app = workload::generate_app(app_rng, gen);

  SweepResult result;
  std::vector<double> errs;
  std::size_t planned = 0, missing = 0, defaulted = 0;
  for (std::uint64_t epoch = 1; epoch <= cycles; ++epoch) {
    const agent::ClusterAgent::CycleReport rep = plane.run_cycle(epoch);
    planned += rep.report.agent_pairs_planned;
    missing += rep.report.agent_pairs_missing;
    defaulted += rep.report.pairs_defaulted;

    place::ClusterState state(rep.view);
    place::GreedyPlacer greedy(place::RateModel::Hose);
    const place::Placement placement = greedy.place(app, state);
    double err_sum = 0.0;
    std::size_t paths = 0;
    place::for_each_placed_transfer(
        app, placement, [&](std::size_t m, std::size_t n, double) {
          const double truth = cloud.true_path_rate_bps(vms[m], vms[n], epoch);
          if (truth <= 0.0) return;
          err_sum += std::abs(rep.view.rate_bps(m, n) - truth) / truth;
          ++paths;
        });
    if (paths > 0) errs.push_back(err_sum / static_cast<double>(paths));
  }

  result.mean_rate_err = errs.empty() ? 0.0 : mean(errs);
  result.missing_fraction =
      planned > 0 ? static_cast<double>(missing) / static_cast<double>(planned) : 0.0;
  result.defaulted_fraction =
      planned > 0 ? static_cast<double>(defaulted) / static_cast<double>(planned) : 0.0;
  const agent::AgentPlane::Stats stats = plane.stats();
  result.bytes_sent = stats.transport.bytes_sent;
  result.bytes_delivered = stats.transport.bytes_delivered;
  result.retransmits = stats.retransmits;
  result.crashes = stats.crashes;
  result.samples_deferred = stats.samples_deferred;
  return result;
}

std::string budget_label(const SweepPoint& p) {
  if (p.max_samples == 0 && p.max_reports == 0) return "unlimited";
  return std::to_string(p.max_reports) + "x" + std::to_string(p.max_samples);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace choreo;
  using namespace choreo::bench;

  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  // The loss x budget sweep runs at the base fleet (every full-mesh sweep is
  // O(vms^2) packet trains, so this is where the cycle budget goes); the
  // larger fleets get one representative degraded row each, enough to show
  // how the byte and coverage numbers scale toward the paper's 100-500 VM
  // range without an hour-long run.
  const std::size_t base_fleet = smoke ? 40 : 100;
  const std::vector<std::size_t> scale_fleets =
      smoke ? std::vector<std::size_t>{} : std::vector<std::size_t>{250, 500};
  const std::vector<double> losses = smoke ? std::vector<double>{0.0, 0.3}
                                           : std::vector<double>{0.0, 0.1, 0.3, 0.5};
  const double scale_loss = 0.3;
  const std::size_t cycles = smoke ? 3 : 6;
  const std::size_t scale_cycles = 3;
  const std::uint64_t seed = 2024;

  header("Agent plane under lossy transport: placement error and report bytes (" +
         std::to_string(base_fleet) + "-" +
         std::to_string(scale_fleets.empty() ? base_fleet : scale_fleets.back()) +
         " VMs" + (smoke ? ") [smoke]" : ")"));

  measure::MeasurementPlan mplan;
  mplan.train.bursts = smoke ? 3 : 5;
  mplan.train.burst_length = smoke ? 60 : 100;

  BenchJson json("tbl_agents");
  json.config("cycles", static_cast<double>(cycles));
  json.config("seed", static_cast<double>(seed));

  Table t({"VMs", "loss", "budget", "rate err", "missing", "defaulted", "MB sent",
           "retransmits", "deferred"});
  // Keyed results for the qualitative gates below.
  double err_lossless = 0.0, err_low = 0.0, err_high = 0.0;
  double missing_lossless = 1.0, missing_high = 0.0;
  std::uint64_t retrans_lossless = 1, bytes_unlimited = 0, bytes_tight = 0;

  std::vector<SweepPoint> points;
  for (const double loss : losses) {
    points.push_back({base_fleet, loss, 0, 0, cycles});
  }
  // The report budget axis, at the highest loss: tight budgets defer
  // samples instead of flooding the wire.
  points.push_back({base_fleet, losses.back(), 16, 2, cycles});
  for (const std::size_t n : scale_fleets) {
    points.push_back({n, scale_loss, 0, 0, scale_cycles});
  }

  for (const SweepPoint& p : points) {
    const SweepResult r = run_point(p, mplan, seed);
    t.add_row({std::to_string(p.vms), fmt_pct(p.loss), budget_label(p),
               fmt_pct(r.mean_rate_err), fmt_pct(r.missing_fraction),
               fmt_pct(r.defaulted_fraction),
               fmt(static_cast<double>(r.bytes_sent) / 1e6, 2),
               std::to_string(r.retransmits), std::to_string(r.samples_deferred)});
    json.row()
        .row("vms", static_cast<double>(p.vms))
        .row("loss", p.loss)
        .row("budget", budget_label(p))
        .row("rate_err", r.mean_rate_err)
        .row("missing_fraction", r.missing_fraction)
        .row("defaulted_fraction", r.defaulted_fraction)
        .row("bytes_sent", static_cast<double>(r.bytes_sent))
        .row("bytes_delivered", static_cast<double>(r.bytes_delivered))
        .row("retransmits", static_cast<double>(r.retransmits))
        .row("crashes", static_cast<double>(r.crashes))
        .row("samples_deferred", static_cast<double>(r.samples_deferred));

    if (p.vms == base_fleet) {
      if (p.max_samples == 0 && p.loss == 0.0) {
        err_lossless = r.mean_rate_err;
        missing_lossless = r.missing_fraction;
        retrans_lossless = r.retransmits;
      }
      if (p.max_samples == 0 && p.loss == losses[1]) err_low = r.mean_rate_err;
      if (p.max_samples == 0 && p.loss == losses.back()) {
        err_high = r.mean_rate_err;
        missing_high = r.missing_fraction;
        bytes_unlimited = r.bytes_sent;
      }
      if (p.max_samples != 0) bytes_tight = r.bytes_sent;
    }
  }
  std::cout << t.to_string();

  // Qualitative gates. The lossless column doubles as the oracle
  // precondition check: nothing missing, nothing retransmitted.
  check(missing_lossless == 0.0 && retrans_lossless == 0,
        "lossless transport delivers every planned pair with no retries");
  check(missing_high > 0.0, "loss actually produces in-cycle coverage gaps");
  check(err_high >= err_lossless,
        "placement-rate error does not improve under loss (sanity)");
  check(err_high <= err_lossless + 0.5,
        "degradation is graceful: high-loss error within 50 points of lossless");
  check(err_low <= err_high + 0.10,
        "error roughly tracks loss (low-loss within 10 points of high-loss)");
  check(bytes_tight < bytes_unlimited,
        "a tight report budget spends fewer bytes than unlimited at equal loss");

  const std::string json_path = json_path_from_args(argc, argv, "tbl_agents");
  if (!json_path.empty()) json.write(json_path);
  return finish();
}
