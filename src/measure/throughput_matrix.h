#pragma once

#include <cstdint>
#include <vector>

#include "cloud/cloud.h"
#include "measure/probe_scheduler.h"
#include "measure/view_cache.h"
#include "packetsim/udp_train.h"
#include "place/cluster.h"
#include "util/matrix.h"

namespace choreo::measure {

/// Fixed per-round cost in seconds of a measurement phase: starting
/// receivers, collecting timestamp logs, shipping them to the coordinator.
inline constexpr double kRoundOverheadS = 8.0;
/// One-off cost in seconds of setting up / tearing down the measurement
/// servers.
inline constexpr double kSetupOverheadS = 30.0;

/// How Choreo measures a tenant's N VMs (§2.2, §4.1): one packet train per
/// ordered pair, edge-colored by ProbeScheduler into conflict-free rounds
/// (no VM is source or sink of two simultaneous trains) that execute their
/// trains concurrently.
struct MeasurementPlan {
  packetsim::TrainParams train;  ///< calibrated per provider (§4.1, Fig 6)
  /// Local worker threads simulating one round's concurrent trains; purely
  /// a simulation-speed knob — results are byte-identical for any value
  /// (pinned by test_determinism) and the modeled wall-clock always assumes
  /// the round's trains overlap on the real cloud.
  unsigned workers = 1;
};

/// Modeled wall-clock of a measurement phase that needed `rounds` rounds.
double measurement_wall_time_s(const MeasurementPlan& plan, std::size_t rounds);

/// Output of probing an arbitrary pair subset (the incremental path).
struct PairsResult {
  std::vector<double> rate_bps;  ///< parallel to the input pairs
  double wall_time_s = 0.0;
  std::size_t rounds = 0;
};

/// One §3.1 probe: a packet train src->dst against `snapshot`, estimated
/// into a TCP throughput in bits/s. The one place a train becomes a rate:
/// measure_rate_pairs, the agent plane's host agents and the calibration
/// sweep all probe through it. Thread-safe; the train's summary lands in a
/// per-thread buffer, so a warm call allocates none.
double probe_rate_bps(const cloud::Cloud& cloud, cloud::VmId src, cloud::VmId dst,
                      const packetsim::TrainParams& train,
                      const cloud::Cloud::TrafficSnapshot& snapshot);

/// Probes exactly `pairs` with packet trains (§4.1): schedules them into
/// conflict-free rounds, runs each round's trains concurrently (up to
/// plan.workers threads) against a per-round cross-traffic snapshot
/// (Cloud::round_snapshot(epoch, r)), and estimates throughput per pair.
/// `epoch` selects the snapshots, so repeated measurements of the same
/// epoch are reproducible. A full sweep probes all_ordered_pairs(vms.size());
/// incremental refreshes probe what a ViewCache plans.
PairsResult measure_rate_pairs(const cloud::Cloud& cloud, const std::vector<cloud::VmId>& vms,
                               const std::vector<ProbePair>& pairs,
                               const MeasurementPlan& plan, std::uint64_t epoch);

/// The ClusterView `cache` stands for at `epoch`: its rates and per-pair
/// epochs (never-measured pairs read zero), no cross traffic, plus the
/// tenant topology — CPU capacities from the instance type, traceroute hop
/// counts, and co-location groups (hop count 1 => same host, §3.3.1).
/// Requires cache.vm_count() == vms.size().
place::ClusterView cached_cluster_view(const cloud::Cloud& cloud,
                                       const std::vector<cloud::VmId>& vms,
                                       const ViewCache& cache, std::uint64_t epoch);

/// Builds the tenant's ClusterView from measurements alone: a full sweep of
/// packet-train rates (all_ordered_pairs through measure_rate_pairs, stored
/// at `epoch`), traceroute co-location groups (hop count 1 => same host),
/// CPU capacities from the instance type. This is exactly the information
/// Choreo's placement stage runs on, and the view a first
/// forecast::Refresher cycle at `epoch` builds.
place::ClusterView measured_cluster_view(const cloud::Cloud& cloud,
                                         const std::vector<cloud::VmId>& vms,
                                         const MeasurementPlan& plan, std::uint64_t epoch);

/// Harness helper: the same view with ground-truth (noise-free) rates —
/// what an omniscient tenant would know. Its topology is the measured
/// views', and traceroute's hop count 1 is exactly a shared host, so its
/// co-location groups are the true ones. Used by tests and by benches that
/// isolate placement quality from measurement error.
place::ClusterView true_cluster_view(const cloud::Cloud& cloud,
                                     const std::vector<cloud::VmId>& vms,
                                     std::uint64_t epoch);

}  // namespace choreo::measure
