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

/// Output of one measurement phase over a fleet (§4.1).
struct MatrixResult {
  /// Estimated single-connection throughput per ordered VM pair (bits/s);
  /// diagonal entries are zero.
  DoubleMatrix rate_bps;
  /// Wall-clock the measurement would take on the real cloud — the quantity
  /// behind "less than three minutes for a ten-node topology".
  double wall_time_s = 0.0;
  std::size_t pairs_measured = 0;  ///< N * (N - 1) ordered pairs
  std::size_t rounds = 0;          ///< conflict-free scheduling rounds
};

/// Output of probing an arbitrary pair subset (the incremental path).
struct PairsResult {
  std::vector<double> rate_bps;  ///< parallel to the input pairs
  double wall_time_s = 0.0;
  std::size_t rounds = 0;
};

/// Probes exactly `pairs`: schedules them into conflict-free rounds, runs
/// each round's trains concurrently against a per-round cross-traffic
/// snapshot (round r uses epoch + r), and estimates throughput per pair.
/// This is the primitive both the full matrix and incremental refreshes are
/// built on.
PairsResult measure_rate_pairs(cloud::Cloud& cloud, const std::vector<cloud::VmId>& vms,
                               const std::vector<ProbePair>& pairs,
                               const MeasurementPlan& plan, std::uint64_t epoch);

/// Measures every ordered pair among `vms` with packet trains (§4.1).
/// `epoch` selects the cloud's cross-traffic snapshot, making repeated
/// measurements of the same epoch reproducible.
MatrixResult measure_rate_matrix(cloud::Cloud& cloud, const std::vector<cloud::VmId>& vms,
                                 const MeasurementPlan& plan, std::uint64_t epoch);

/// Result of refreshing a ClusterView through a ViewCache.
struct RefreshResult {
  place::ClusterView view;
  double wall_time_s = 0.0;
  std::size_t pairs_probed = 0;  ///< strictly < n(n-1) on incremental cycles
  std::size_t rounds = 0;
  RefreshPlan plan;              ///< why each probed pair qualified
};

/// Incremental measurement cycle (§2.4 re-evaluation, arrivals): probes only
/// the pairs `cache` flags under `policy` — never measured, stale, or
/// volatile — stores the estimates back, and rebuilds the ClusterView from
/// the cache. Unchanged pairs keep their cached estimate bit-for-bit; on an
/// empty cache this is exactly a full measurement. The view's pair_epoch
/// records per-pair provenance. (core::Choreo refreshes through
/// forecast::Refresher instead, which plans through the forecast plane; with
/// forecasting disabled the two agree bit for bit.)
RefreshResult refresh_cluster_view(cloud::Cloud& cloud,
                                   const std::vector<cloud::VmId>& vms,
                                   const MeasurementPlan& plan, std::uint64_t epoch,
                                   ViewCache& cache, const RefreshPolicy& policy);

/// The ClusterView `cache` stands for at `epoch`: its rates and per-pair
/// epochs (never-measured pairs read zero), no cross traffic, plus the
/// tenant topology — traceroute hop counts, co-location groups (hop count 1
/// => same host, §3.3.1) and CPU capacities from the instance type.
/// Requires cache.vm_count() == vms.size().
place::ClusterView cached_cluster_view(cloud::Cloud& cloud,
                                       const std::vector<cloud::VmId>& vms,
                                       const ViewCache& cache, std::uint64_t epoch);

/// Builds the tenant's ClusterView from measurements alone: packet-train
/// rates, traceroute co-location groups (hop count 1 => same host), CPU
/// capacities from the instance type. This is exactly the information
/// Choreo's placement stage runs on.
place::ClusterView measured_cluster_view(cloud::Cloud& cloud,
                                         const std::vector<cloud::VmId>& vms,
                                         const MeasurementPlan& plan, std::uint64_t epoch);

/// Harness helper: the same view built from ground truth (noise-free rates,
/// true co-location) — what an omniscient tenant would know. Used by tests
/// and by benches that isolate placement quality from measurement error.
place::ClusterView true_cluster_view(cloud::Cloud& cloud,
                                     const std::vector<cloud::VmId>& vms,
                                     std::uint64_t epoch);

}  // namespace choreo::measure
