// Measurement study: point Choreo's measurement subsystem at a cloud and
// print everything a tenant can learn without provider cooperation (§3-4):
//   * the pairwise throughput matrix from packet trains,
//   * co-location groups and hop counts from traceroute,
//   * cross-traffic estimates on the busiest paths,
//   * bottleneck location / hose-model detection probes,
//   * a packet-train calibration sweep (which train parameters to trust).
//
// Usage: measure_cloud [ec2|ec2-2012|rackspace] [vms] [seed]

#include <cstdlib>
#include <iostream>
#include <string>

#include "measure/bottleneck.h"
#include "measure/calibration.h"
#include "measure/cross_traffic.h"
#include "measure/throughput_matrix.h"
#include "util/table.h"
#include "util/units.h"

int main(int argc, char** argv) {
  using namespace choreo;
  using units::to_mbps;

  const std::string provider = argc > 1 ? argv[1] : "ec2";
  const std::size_t n_vms = argc > 2 ? static_cast<std::size_t>(std::atoi(argv[2])) : 8;
  const std::uint64_t seed = argc > 3 ? static_cast<std::uint64_t>(std::atoll(argv[3])) : 1;

  cloud::ProviderProfile profile;
  if (provider == "rackspace") {
    profile = cloud::rackspace();
  } else if (provider == "ec2-2012") {
    profile = cloud::ec2_2012();
  } else {
    profile = cloud::ec2_2013();
  }
  std::cout << "provider: " << profile.name << ", VMs: " << n_vms << ", seed: " << seed
            << "\n\n";

  cloud::Cloud cloud(profile, seed);
  const auto vms = cloud.allocate_vms(n_vms);

  // --- pairwise throughput via packet trains ---
  measure::MeasurementPlan plan;
  plan.train.bursts = 10;
  plan.train.burst_length = profile.name == "rackspace" ? 2000 : 200;
  plan.workers = 4;  // one round's trains run concurrently (§4.1)
  const std::vector<measure::ProbePair> pairs = measure::all_ordered_pairs(n_vms);
  const measure::PairsResult probed = measure::measure_rate_pairs(cloud, vms, pairs, plan, 1);
  DoubleMatrix rate_bps(n_vms, n_vms, 0.0);
  for (std::size_t k = 0; k < pairs.size(); ++k) {
    rate_bps(pairs[k].src, pairs[k].dst) = probed.rate_bps[k];
  }
  std::cout << "pairwise TCP throughput estimates (Mbit/s), " << pairs.size()
            << " pairs in " << probed.rounds << " conflict-free rounds, "
            << fmt(probed.wall_time_s, 0) << " s wall clock:\n";
  {
    std::vector<std::string> headers{"src\\dst"};
    for (std::size_t j = 0; j < n_vms; ++j) headers.push_back("vm" + std::to_string(j));
    Table t(headers);
    for (std::size_t i = 0; i < n_vms; ++i) {
      std::vector<std::string> row{"vm" + std::to_string(i)};
      for (std::size_t j = 0; j < n_vms; ++j) {
        row.push_back(i == j ? "-" : fmt(to_mbps(rate_bps(i, j)), 0));
      }
      t.add_row(row);
    }
    std::cout << t.to_string() << "\n";
  }

  // --- incremental refresh: keeping the view fresh without re-probing ---
  {
    measure::ViewCache cache;
    measure::RefreshPolicy policy;
    policy.max_age_epochs = 4;
    const auto full = measure::refresh_cluster_view(cloud, vms, plan, 1, cache, policy);
    // A few paths looked off (an operator flag, a failed transfer): drop
    // just those estimates and refresh. Disjoint pairs share rounds, so the
    // re-probe is cheap; everything else carries over from epoch 1.
    cache.invalidate(0, 1);
    cache.invalidate(1, 0);
    cache.invalidate(2, n_vms - 1);
    const auto incr = measure::refresh_cluster_view(cloud, vms, plan, 3, cache, policy);
    std::cout << "incremental refresh of 3 flagged paths: " << incr.pairs_probed << "/"
              << full.pairs_probed << " pairs re-probed in " << incr.rounds
              << " round(s), modeled wall clock " << fmt(incr.wall_time_s, 0) << " s vs "
              << fmt(full.wall_time_s, 0) << " s for a full sweep\n\n";
  }

  // --- traceroute topology hints ---
  std::cout << "traceroute hop counts:\n";
  {
    Table t({"pair", "hops", "interpretation"});
    for (std::size_t i = 0; i < n_vms; ++i) {
      for (std::size_t j = i + 1; j < n_vms; ++j) {
        const std::size_t hops = cloud.traceroute_hops(vms[i], vms[j]);
        std::string meaning;
        switch (hops) {
          case 1: meaning = "same physical machine"; break;
          case 2: meaning = "same rack"; break;
          case 4: meaning = "same pod (via aggregation)"; break;
          case 6: meaning = "same region (via core)"; break;
          case 8: meaning = "across regions"; break;
          default: meaning = "?";
        }
        t.add_row({"vm" + std::to_string(i) + " <-> vm" + std::to_string(j),
                   std::to_string(hops), meaning});
      }
    }
    std::cout << t.to_string() << "\n";
  }

  // --- cross traffic on the slowest path ---
  {
    std::size_t worst_i = 0, worst_j = 1;
    double worst = 1e30;
    for (std::size_t i = 0; i < n_vms; ++i) {
      for (std::size_t j = 0; j < n_vms; ++j) {
        if (i != j && rate_bps(i, j) < worst) {
          worst = rate_bps(i, j);
          worst_i = i;
          worst_j = j;
        }
      }
    }
    const auto series = measure::measure_cross_traffic(
        cloud, vms[worst_i], vms[worst_j], /*path_rate=*/rate_bps(worst_i, worst_j),
        /*duration=*/5.0, /*interval=*/0.01, /*epoch=*/3);
    double c_mean = 0.0;
    for (double c : series) c_mean += c;
    c_mean /= static_cast<double>(series.size());
    std::cout << "cross traffic on slowest path vm" << worst_i << "->vm" << worst_j
              << ": c = " << fmt(c_mean, 2)
              << " equivalent backlogged connections (0 = path to ourselves)\n\n";
  }

  // --- bottleneck location ---
  if (n_vms >= 4) {
    const auto report = measure::locate_bottlenecks(cloud, vms, 5, 3.0, seed + 9, 50);
    std::cout << "bottleneck probes: same-source interfering "
              << report.same_source_interfering << "/" << report.same_source_probes
              << ", disjoint interfering " << report.disjoint_interfering << "/"
              << report.disjoint_probes << "\n";
    std::cout << "  => source bottleneck: " << (report.source_bottleneck ? "yes" : "no")
              << ", hose model: " << (report.hose_model ? "yes" : "no")
              << " (sum ratio " << fmt(report.mean_same_source_sum_ratio, 2) << ")\n\n";
  }

  // --- calibration sweep (small) ---
  measure::CalibrationConfig cal;
  cal.burst_counts = {10};
  cal.burst_lengths = {100, 500, 2000};
  cal.max_paths = 6;
  const auto points = measure::calibrate_trains(cloud, vms, cal, 200);
  Table t({"bursts", "burst length", "mean error vs netperf"});
  for (const auto& p : points) {
    t.add_row({std::to_string(p.bursts), std::to_string(p.burst_length),
               fmt_pct(p.mean_rel_error)});
  }
  std::cout << "packet-train calibration:\n" << t.to_string();
  return 0;
}
