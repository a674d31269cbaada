#pragma once

#include <cstdint>
#include <vector>

#include "cloud/cloud.h"

namespace choreo::measure {

/// Result of one §3.3.2 concurrency probe: run netperf on A->B and C->D
/// simultaneously and compare against their solo throughputs.
struct InterferenceProbe {
  cloud::VmId a = 0, b = 0, c = 0, d = 0;
  double solo_ab_bps = 0.0;
  double solo_cd_bps = 0.0;
  double joint_ab_bps = 0.0;
  double joint_cd_bps = 0.0;
  bool interferes = false;  ///< joint_ab dropped significantly vs solo_ab
};

/// Runs one interference probe. `drop_threshold` is the relative throughput
/// decrease that counts as interference (the paper looks for a significant
/// drop; 50% sharing shows as ~0.5).
InterferenceProbe probe_interference(const cloud::Cloud& cloud, cloud::VmId a, cloud::VmId b,
                                     cloud::VmId c, cloud::VmId d, double duration_s,
                                     double drop_threshold, std::uint64_t epoch);

/// §3.3.2's interference-prediction rules, given the topological relations
/// Choreo infers from traceroute. Returns whether connections A->B and C->D
/// are predicted to contend.
struct PathRelations {
  bool same_source = false;         ///< A == C
  bool sources_same_rack = false;   ///< A and C share a rack
  bool b_on_that_rack = false;      ///< B is on A/C's rack
  bool d_on_that_rack = false;      ///< D is on A/C's rack
  bool sources_same_subtree = false;  ///< A and C in one aggregation subtree
  bool b_in_that_subtree = false;
  bool d_in_that_subtree = false;
};

enum class BottleneckSite { SourceHose, TorUplink, AggToCore };

bool predict_interference(const PathRelations& rel, BottleneckSite site);

/// The §4.3 experiment: many same-source pairs and many 4-distinct-endpoint
/// pairs, with the verdicts the paper reports (EC2/Rackspace: same-source
/// always interferes, disjoint endpoints never => bottleneck is the first
/// hop => hose model).
struct BottleneckReport {
  std::size_t same_source_probes = 0;
  std::size_t same_source_interfering = 0;
  std::size_t disjoint_probes = 0;
  std::size_t disjoint_interfering = 0;
  /// True when every same-source probe interfered and no disjoint one did.
  bool source_bottleneck = false;
  /// True when, additionally, the sum of concurrent same-source connections
  /// stayed (within tolerance) equal to the solo throughput — the signature
  /// of hose-model rate limiting.
  bool hose_model = false;
  double mean_same_source_sum_ratio = 0.0;  ///< (joint_ab+joint_cd)/solo_ab
};

BottleneckReport locate_bottlenecks(const cloud::Cloud& cloud,
                                    const std::vector<cloud::VmId>& vms,
                                    std::size_t probes_per_kind, double duration_s,
                                    std::uint64_t seed, std::uint64_t epoch);

/// Clusters VMs by rack from traceroute alone (§3.3.1-2): hop count 1 means
/// same physical machine, 2 means same rack. Returns one group id per VM
/// (same id = same rack). "Because we can cluster VMs by rack, in many
/// cases, Choreo can generalize one measurement to the entire rack."
std::vector<int> cluster_by_rack(const cloud::Cloud& cloud, const std::vector<cloud::VmId>& vms);

/// Predicts, for every ordered pair of paths (a->b, c->d) over `vms`,
/// whether their connections would interfere — using only the rack clusters
/// and the detected bottleneck site, i.e. without measuring every pair of
/// paths (the §3.3.2 generalization). Entry [p][q] corresponds to paths
/// enumerated in row-major (src, dst) order with src != dst.
struct InterferencePrediction {
  std::vector<std::pair<cloud::VmId, cloud::VmId>> paths;
  std::vector<std::vector<bool>> interferes;
};
InterferencePrediction predict_all_interference(const cloud::Cloud& cloud,
                                                const std::vector<cloud::VmId>& vms,
                                                BottleneckSite site);

}  // namespace choreo::measure
