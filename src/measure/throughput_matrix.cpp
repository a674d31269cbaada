#include "measure/throughput_matrix.h"

#include <algorithm>
#include <atomic>
#include <unordered_map>
#include <vector>

#include "measure/packet_train.h"
#include "util/require.h"
#include "util/worker_pool.h"

namespace choreo::measure {

double measurement_wall_time_s(const MeasurementPlan& plan, std::size_t rounds) {
  if (rounds == 0) return 0.0;
  return kSetupOverheadS +
         static_cast<double>(rounds) * (train_duration_s(plan.train) + kRoundOverheadS);
}

double probe_rate_bps(const cloud::Cloud& cloud, cloud::VmId src, cloud::VmId dst,
                      const packetsim::TrainParams& train,
                      const cloud::Cloud::TrafficSnapshot& snapshot) {
  // Reused call to call, so warm probes allocate no summary buffers.
  thread_local packetsim::TrainSummary summary;
  cloud.run_train_in_snapshot(src, dst, train, snapshot, summary);
  return estimate_train_throughput(summary, train, cloud.ping_rtt_s(src, dst)).throughput_bps;
}

PairsResult measure_rate_pairs(const cloud::Cloud& cloud, const std::vector<cloud::VmId>& vms,
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
  std::vector<char> src_busy, dst_busy;
  for (std::size_t r = 0; r < schedule.rounds.size(); ++r) {
    const std::vector<ProbePair>& round = schedule.rounds[r];
    // Enforce the conflict-free contract: a VM sourcing (or sinking) two
    // simultaneous trains would share its hose (vNIC) between them and bias
    // both estimates (§4.1).
    src_busy.assign(cloud.vm_count(), 0);
    dst_busy.assign(cloud.vm_count(), 0);
    for (const ProbePair& p : round) {
      const cloud::VmId s = vms[p.src], d = vms[p.dst];
      CHOREO_REQUIRE(s < cloud.vm_count() && d < cloud.vm_count() && s != d);
      CHOREO_REQUIRE_MSG(!src_busy[s] && !dst_busy[d],
                         "round is not conflict-free: a VM appears twice");
      src_busy[s] = dst_busy[d] = 1;
    }

    // All trains of the round observe the same background realization; the
    // snapshot is computed once and shared across the round's workers, each
    // claiming the next train from one shared index.
    const cloud::Cloud::TrafficSnapshot snapshot = cloud.round_snapshot(epoch, r);
    const unsigned workers =
        std::max(1u, std::min<unsigned>(plan.workers, static_cast<unsigned>(round.size())));
    std::atomic<std::size_t> next{0};
    util::run_workers(workers, [&](unsigned) {
      for (std::size_t k = next.fetch_add(1); k < round.size(); k = next.fetch_add(1)) {
        const ProbePair& p = round[k];
        out.rate_bps[position.at(p.src * n + p.dst)] =
            probe_rate_bps(cloud, vms[p.src], vms[p.dst], plan.train, snapshot);
      }
    });
  }
  out.rounds = schedule.rounds.size();
  out.wall_time_s = measurement_wall_time_s(plan, out.rounds);
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

place::ClusterView cached_cluster_view(const cloud::Cloud& cloud,
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

place::ClusterView measured_cluster_view(const cloud::Cloud& cloud,
                                         const std::vector<cloud::VmId>& vms,
                                         const MeasurementPlan& plan,
                                         std::uint64_t epoch) {
  ViewCache cache(vms.size());
  const std::vector<ProbePair> pairs = all_ordered_pairs(vms.size());
  const PairsResult probed = measure_rate_pairs(cloud, vms, pairs, plan, epoch);
  for (std::size_t k = 0; k < pairs.size(); ++k) {
    cache.store(pairs[k].src, pairs[k].dst, probed.rate_bps[k], epoch);
  }
  return cached_cluster_view(cloud, vms, cache, epoch);
}

place::ClusterView true_cluster_view(const cloud::Cloud& cloud,
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
