#include "measure/bottleneck.h"

#include <algorithm>
#include <cmath>

#include "util/require.h"
#include "util/rng.h"

namespace choreo::measure {

InterferenceProbe probe_interference(const cloud::Cloud& cloud, cloud::VmId a, cloud::VmId b,
                                     cloud::VmId c, cloud::VmId d, double duration_s,
                                     double drop_threshold, std::uint64_t epoch) {
  CHOREO_REQUIRE(duration_s > 0.0);
  CHOREO_REQUIRE(drop_threshold > 0.0 && drop_threshold < 1.0);
  InterferenceProbe probe;
  probe.a = a;
  probe.b = b;
  probe.c = c;
  probe.d = d;
  probe.solo_ab_bps = cloud.netperf_bps(a, b, duration_s, epoch);
  probe.solo_cd_bps = cloud.netperf_bps(c, d, duration_s, epoch);
  const std::vector<double> joint =
      cloud.netperf_concurrent_bps({{a, b}, {c, d}}, duration_s, epoch);
  probe.joint_ab_bps = joint[0];
  probe.joint_cd_bps = joint[1];
  probe.interferes =
      probe.joint_ab_bps < probe.solo_ab_bps * (1.0 - drop_threshold) ||
      probe.joint_cd_bps < probe.solo_cd_bps * (1.0 - drop_threshold);
  return probe;
}

bool predict_interference(const PathRelations& rel, BottleneckSite site) {
  switch (site) {
    case BottleneckSite::SourceHose:
      // Hose enforcement: only connections out of the very same VM contend.
      return rel.same_source;
    case BottleneckSite::TorUplink:
      // Rule 1: (a) same source, or (b) sources share the rack and both
      // destinations leave it.
      if (rel.same_source) return true;
      return rel.sources_same_rack && !rel.b_on_that_rack && !rel.d_on_that_rack;
    case BottleneckSite::AggToCore:
      // Rule 2: both connections originate in one subtree and must leave it
      // (they then *may* contend, subject to ECMP spreading — we predict the
      // conservative "potentially interfere").
      if (rel.same_source) return true;
      return rel.sources_same_subtree && !rel.b_in_that_subtree && !rel.d_in_that_subtree;
  }
  CHOREO_ASSERT(false);
  return false;
}

BottleneckReport locate_bottlenecks(const cloud::Cloud& cloud,
                                    const std::vector<cloud::VmId>& vms,
                                    std::size_t probes_per_kind, double duration_s,
                                    std::uint64_t seed, std::uint64_t epoch) {
  CHOREO_REQUIRE(vms.size() >= 4);
  CHOREO_REQUIRE(probes_per_kind >= 1);
  Rng rng(seed);
  BottleneckReport report;
  double sum_ratio = 0.0;

  const auto pick = [&](std::size_t exclude_count, const cloud::VmId* exclude) {
    for (std::size_t attempt = 0; attempt < 10000; ++attempt) {
      const cloud::VmId v = vms[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(vms.size()) - 1))];
      bool clash = false;
      for (std::size_t k = 0; k < exclude_count; ++k) {
        if (exclude[k] == v || cloud.vm_host(exclude[k]) == cloud.vm_host(v)) clash = true;
      }
      if (!clash) return v;
    }
    throw PreconditionError("locate_bottlenecks: needs VMs on >= 4 distinct hosts");
  };

  // Same-source pairs: A->B and A->D.
  for (std::size_t p = 0; p < probes_per_kind; ++p) {
    const cloud::VmId a = vms[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(vms.size()) - 1))];
    cloud::VmId chosen[3] = {a, a, a};
    const cloud::VmId b = pick(1, chosen);
    chosen[1] = b;
    const cloud::VmId d = pick(2, chosen);
    const InterferenceProbe probe =
        probe_interference(cloud, a, b, a, d, duration_s, 0.25, epoch + p);
    ++report.same_source_probes;
    if (probe.interferes) ++report.same_source_interfering;
    sum_ratio += (probe.joint_ab_bps + probe.joint_cd_bps) /
                 std::max(probe.solo_ab_bps, 1.0);
  }
  report.mean_same_source_sum_ratio =
      sum_ratio / static_cast<double>(report.same_source_probes);

  // Four distinct endpoints on distinct hosts.
  for (std::size_t p = 0; p < probes_per_kind; ++p) {
    cloud::VmId chosen[4];
    chosen[0] = vms[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(vms.size()) - 1))];
    chosen[1] = pick(1, chosen);
    chosen[2] = pick(2, chosen);
    chosen[3] = pick(3, chosen);
    const InterferenceProbe probe = probe_interference(
        cloud, chosen[0], chosen[1], chosen[2], chosen[3], duration_s, 0.25, epoch + 1000 + p);
    ++report.disjoint_probes;
    if (probe.interferes) ++report.disjoint_interfering;
  }

  report.source_bottleneck =
      report.same_source_interfering == report.same_source_probes &&
      report.disjoint_interfering == 0;
  // Hose signature: concurrent same-source connections sum to the solo rate.
  report.hose_model = report.source_bottleneck &&
                      std::abs(report.mean_same_source_sum_ratio - 1.0) < 0.1;
  return report;
}

std::vector<int> cluster_by_rack(const cloud::Cloud& cloud,
                                 const std::vector<cloud::VmId>& vms) {
  CHOREO_REQUIRE(!vms.empty());
  // Union-find over "hop count <= 2" (same machine or same rack).
  std::vector<int> group(vms.size(), -1);
  int next = 0;
  for (std::size_t i = 0; i < vms.size(); ++i) {
    if (group[i] < 0) group[i] = next++;
    for (std::size_t j = i + 1; j < vms.size(); ++j) {
      if (cloud.traceroute_hops(vms[i], vms[j]) <= 2) {
        if (group[j] < 0) {
          group[j] = group[i];
        } else if (group[j] != group[i]) {
          // Merge the later group into the earlier one.
          const int from = group[j], to = group[i];
          for (int& g : group) {
            if (g == from) g = to;
          }
        }
      }
    }
  }
  return group;
}

InterferencePrediction predict_all_interference(const cloud::Cloud& cloud,
                                                const std::vector<cloud::VmId>& vms,
                                                BottleneckSite site) {
  CHOREO_REQUIRE(vms.size() >= 2);
  InterferencePrediction out;
  const std::vector<int> rack = cluster_by_rack(cloud, vms);
  std::vector<std::pair<std::size_t, std::size_t>> idx;
  for (std::size_t i = 0; i < vms.size(); ++i) {
    for (std::size_t j = 0; j < vms.size(); ++j) {
      if (i == j) continue;
      out.paths.emplace_back(vms[i], vms[j]);
      idx.emplace_back(i, j);
    }
  }
  out.interferes.assign(out.paths.size(), std::vector<bool>(out.paths.size(), false));
  for (std::size_t p = 0; p < idx.size(); ++p) {
    for (std::size_t q = 0; q < idx.size(); ++q) {
      if (p == q) continue;
      const auto [a, b] = idx[p];
      const auto [c, d] = idx[q];
      PathRelations rel;
      rel.same_source = vms[a] == vms[c];
      rel.sources_same_rack = rack[a] == rack[c];
      rel.b_on_that_rack = rack[b] == rack[a];
      rel.d_on_that_rack = rack[d] == rack[a];
      // With traceroute-only knowledge, "subtree" is approximated by rack
      // at one level coarser; we reuse rack clusters (conservative).
      rel.sources_same_subtree = rel.sources_same_rack;
      rel.b_in_that_subtree = rel.b_on_that_rack;
      rel.d_in_that_subtree = rel.d_on_that_rack;
      out.interferes[p][q] = predict_interference(rel, site);
    }
  }
  return out;
}

}  // namespace choreo::measure
