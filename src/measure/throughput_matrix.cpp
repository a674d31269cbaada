#include "measure/throughput_matrix.h"

#include <unordered_map>
#include <utility>
#include <vector>

#include "measure/packet_train.h"
#include "util/require.h"

namespace choreo::measure {

double measurement_wall_time_s(const MeasurementPlan& plan, std::size_t rounds) {
  if (rounds == 0) return 0.0;
  return kSetupOverheadS +
         static_cast<double>(rounds) * (train_duration_s(plan.train) + kRoundOverheadS);
}

PairsResult measure_rate_pairs(cloud::Cloud& cloud, const std::vector<cloud::VmId>& vms,
                               const std::vector<ProbePair>& pairs,
                               const MeasurementPlan& plan, std::uint64_t epoch) {
  const std::size_t n = vms.size();
  CHOREO_REQUIRE(n >= 2);
  PairsResult out;
  out.rate_bps.assign(pairs.size(), 0.0);
  if (pairs.empty()) return out;

  // Input position of each pair, to map scheduled results back.
  std::unordered_map<std::uint64_t, std::size_t> position;
  position.reserve(pairs.size());
  for (std::size_t k = 0; k < pairs.size(); ++k) {
    const std::uint64_t key = pairs[k].src * n + pairs[k].dst;
    CHOREO_REQUIRE_MSG(position.emplace(key, k).second, "duplicate probe pair");
  }

  const ProbeSchedule schedule = schedule_probes(n, pairs);
  // Reused round to round and call to call, so warm rounds allocate no
  // summary buffers.
  thread_local std::vector<packetsim::TrainSummary> summaries;
  std::vector<std::pair<cloud::VmId, cloud::VmId>> vm_pairs;
  for (std::size_t r = 0; r < schedule.rounds.size(); ++r) {
    const auto& round = schedule.rounds[r];
    // All trains of the round observe the same background realization; the
    // snapshot is computed once and shared across the round's workers.
    const cloud::Cloud::TrafficSnapshot snapshot = cloud.round_snapshot(epoch, r);
    vm_pairs.clear();
    for (const ProbePair& p : round) vm_pairs.emplace_back(vms[p.src], vms[p.dst]);
    cloud.run_train_round(vm_pairs, plan.train, snapshot, summaries, plan.workers);
    for (std::size_t k = 0; k < round.size(); ++k) {
      const ProbePair& p = round[k];
      const double rtt = cloud.ping_rtt_s(vms[p.src], vms[p.dst]);
      const TrainEstimate est = estimate_train_throughput(summaries[k], plan.train, rtt);
      out.rate_bps[position.at(p.src * n + p.dst)] = est.throughput_bps;
    }
  }
  out.rounds = schedule.rounds.size();
  out.wall_time_s = measurement_wall_time_s(plan, out.rounds);
  return out;
}

RefreshResult refresh_cluster_view(cloud::Cloud& cloud,
                                   const std::vector<cloud::VmId>& vms,
                                   const MeasurementPlan& plan, std::uint64_t epoch,
                                   ViewCache& cache, const RefreshPolicy& policy) {
  CHOREO_REQUIRE(vms.size() >= 2);
  cache.resize(vms.size());
  RefreshResult out;
  out.plan = cache.plan_refresh(epoch, policy);
  if (!out.plan.pairs.empty()) {
    const PairsResult probed = measure_rate_pairs(cloud, vms, out.plan.pairs, plan, epoch);
    for (std::size_t k = 0; k < out.plan.pairs.size(); ++k) {
      cache.store(out.plan.pairs[k].src, out.plan.pairs[k].dst, probed.rate_bps[k],
                  epoch);
    }
    out.pairs_probed = out.plan.pairs.size();
    out.rounds = probed.rounds;
    out.wall_time_s = probed.wall_time_s;
  }
  out.view = cached_cluster_view(cloud, vms, cache, epoch);
  return out;
}

namespace {

/// The tenant topology every view carries: CPU capacities from the instance
/// type, traceroute hop counts, and co-location groups — VMs one hop apart
/// share a host (§3.3.1), numbered in order of each group's first VM.
void fill_topology(const cloud::Cloud& cloud, const std::vector<cloud::VmId>& vms,
                   place::ClusterView& view) {
  const std::size_t n = vms.size();
  view.cores.assign(n, static_cast<double>(cloud.machine_cores()));
  view.hops = DoubleMatrix(n, n, 0.0);
  view.colocation_group.assign(n, -1);
  int next_group = 0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i != j) view.hops(i, j) = static_cast<double>(cloud.traceroute_hops(vms[i], vms[j]));
    }
    if (view.colocation_group[i] < 0) view.colocation_group[i] = next_group++;
    for (std::size_t j = i + 1; j < n; ++j) {
      if (view.hops(i, j) == 1.0) view.colocation_group[j] = view.colocation_group[i];
    }
  }
}

}  // namespace

place::ClusterView cached_cluster_view(cloud::Cloud& cloud,
                                       const std::vector<cloud::VmId>& vms,
                                       const ViewCache& cache, std::uint64_t epoch) {
  const std::size_t n = vms.size();
  CHOREO_REQUIRE(n >= 2);
  CHOREO_REQUIRE(cache.vm_count() == n);
  place::ClusterView view;
  view.rate_bps = cache.rates();
  view.cross_traffic = DoubleMatrix(n, n, 0.0);
  view.pair_epoch = cache.epochs();
  view.view_epoch = epoch;
  fill_topology(cloud, vms, view);
  return view;
}

place::ClusterView measured_cluster_view(cloud::Cloud& cloud,
                                         const std::vector<cloud::VmId>& vms,
                                         const MeasurementPlan& plan,
                                         std::uint64_t epoch) {
  // A one-shot full measurement is an incremental refresh of an empty cache.
  ViewCache cache(vms.size());
  return refresh_cluster_view(cloud, vms, plan, epoch, cache, RefreshPolicy{}).view;
}

place::ClusterView true_cluster_view(cloud::Cloud& cloud,
                                     const std::vector<cloud::VmId>& vms,
                                     std::uint64_t epoch) {
  const std::size_t n = vms.size();
  CHOREO_REQUIRE(n >= 2);
  place::ClusterView view;
  view.rate_bps = DoubleMatrix(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i != j) view.rate_bps(i, j) = cloud.true_path_rate_bps(vms[i], vms[j], epoch);
    }
  }
  view.cross_traffic = DoubleMatrix(n, n, 0.0);
  view.view_epoch = epoch;
  fill_topology(cloud, vms, view);
  return view;
}

}  // namespace choreo::measure
