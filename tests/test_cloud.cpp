#include "cloud/cloud.h"

#include <gtest/gtest.h>

#include <set>

#include "util/stats.h"
#include "util/units.h"

namespace choreo::cloud {
namespace {

using units::mbps;

TEST(Profiles, FactoriesAreSane) {
  for (const ProviderProfile& p : {ec2_2013(), ec2_2012(), rackspace()}) {
    EXPECT_FALSE(p.name.empty());
    EXPECT_GT(p.vnic_rate_bps, 0.0);
    EXPECT_GT(p.bucket_depth_bytes, 0.0);
    EXPECT_GT(p.cores_per_machine, 0);
  }
  EXPECT_TRUE(rackspace().traceroute_hides_tiers);
  EXPECT_FALSE(ec2_2013().traceroute_hides_tiers);
  // Rackspace's burst allowance is much deeper than EC2's (Fig 6 mechanism).
  EXPECT_GT(rackspace().bucket_depth_bytes, 10 * ec2_2013().bucket_depth_bytes);
}

TEST(Cloud, AllocatesVmsOnHosts) {
  Cloud cloud(ec2_2013(), 1);
  const auto vms = cloud.allocate_vms(10);
  EXPECT_EQ(vms.size(), 10u);
  EXPECT_EQ(cloud.vm_count(), 10u);
  for (VmId vm : vms) {
    EXPECT_GT(cloud.vm_hose_bps(vm), 0.0);
  }
  // Repeated allocation extends the fleet.
  cloud.allocate_vms(5);
  EXPECT_EQ(cloud.vm_count(), 15u);
}

TEST(Cloud, DeterministicForSeed) {
  Cloud a(ec2_2013(), 99), b(ec2_2013(), 99);
  const auto va = a.allocate_vms(8);
  const auto vb = b.allocate_vms(8);
  for (std::size_t i = 0; i < va.size(); ++i) {
    EXPECT_EQ(a.vm_host(va[i]), b.vm_host(vb[i]));
    EXPECT_DOUBLE_EQ(a.vm_hose_bps(va[i]), b.vm_hose_bps(vb[i]));
  }
  EXPECT_DOUBLE_EQ(a.netperf_bps(va[0], va[1], 5.0, 1), b.netperf_bps(vb[0], vb[1], 5.0, 1));
}

// Allocation keeps its one stream: it is consumed in VM-index order and each
// distribution is a temporary (no spare normal carries over), so VM k's host
// and hose rate are a function of (seed, k) however the calls are batched.
TEST(Cloud, AllocationBatchingDoesNotMoveVms) {
  ProviderProfile packed = ec2_2013();
  packed.colocate_prob = 0.5;  // reach the co-location draw often too
  for (const ProviderProfile& profile : {ec2_2013(), rackspace(), packed}) {
    Cloud batched(profile, 17), whole(profile, 17);
    batched.allocate_vms(3);
    batched.allocate_vms(2);
    whole.allocate_vms(5);
    ASSERT_EQ(batched.vm_count(), 5u);
    for (VmId vm = 0; vm < 5; ++vm) {
      EXPECT_EQ(batched.vm_host(vm), whole.vm_host(vm)) << profile.name << " vm " << vm;
      EXPECT_EQ(batched.vm_hose_bps(vm), whole.vm_hose_bps(vm)) << profile.name << " vm " << vm;
    }
  }
}

TEST(Cloud, NetperfTracksSourceHose) {
  Cloud cloud(ec2_2013(), 7);
  const auto vms = cloud.allocate_vms(12);
  for (std::size_t i = 0; i + 1 < vms.size(); i += 2) {
    if (cloud.vm_host(vms[i]) == cloud.vm_host(vms[i + 1])) continue;
    const double hose = cloud.vm_hose_bps(vms[i]);
    const double measured = cloud.netperf_bps(vms[i], vms[i + 1], 5.0, i);
    // Within 12%: background and noise can shave a little off the hose.
    EXPECT_LT(measured, hose * 1.05);
    EXPECT_GT(measured, hose * 0.6);
  }
}

TEST(Cloud, RackspaceIsFlat300) {
  Cloud cloud(rackspace(), 3);
  const auto vms = cloud.allocate_vms(10);
  std::vector<double> rates;
  for (std::size_t i = 0; i < vms.size(); ++i) {
    const std::size_t j = (i + 1) % vms.size();
    if (cloud.vm_host(vms[i]) == cloud.vm_host(vms[j])) continue;
    rates.push_back(cloud.netperf_bps(vms[i], vms[j], 5.0, i));
  }
  ASSERT_GE(rates.size(), 5u);
  const Summary s = summarize(rates);
  EXPECT_NEAR(s.mean, mbps(300), mbps(10));
  EXPECT_LT(s.stddev, mbps(8));
}

TEST(Cloud, SameHostPairsAreFast) {
  ProviderProfile profile = ec2_2013();
  profile.colocate_prob = 1.0;  // force co-location
  Cloud cloud(profile, 5);
  const auto vms = cloud.allocate_vms(2);
  ASSERT_EQ(cloud.vm_host(vms[0]), cloud.vm_host(vms[1]));
  EXPECT_EQ(cloud.traceroute_hops(vms[0], vms[1]), 1u);
  const double rate = cloud.netperf_bps(vms[0], vms[1], 2.0, 1);
  EXPECT_GT(rate, units::gbps(3.5));
}

TEST(Cloud, TracerouteHopCountsAreEven) {
  Cloud cloud(ec2_2013(), 11);
  const auto vms = cloud.allocate_vms(14);
  const std::set<std::size_t> allowed{1, 2, 4, 6, 8};
  for (std::size_t i = 0; i < vms.size(); ++i) {
    for (std::size_t j = i + 1; j < vms.size(); ++j) {
      EXPECT_TRUE(allowed.count(cloud.traceroute_hops(vms[i], vms[j])))
          << cloud.traceroute_hops(vms[i], vms[j]);
    }
  }
}

TEST(Cloud, RackspaceTracerouteHidesTiers) {
  Cloud cloud(rackspace(), 11);
  const auto vms = cloud.allocate_vms(12);
  for (std::size_t i = 0; i < vms.size(); ++i) {
    for (std::size_t j = i + 1; j < vms.size(); ++j) {
      const std::size_t hops = cloud.traceroute_hops(vms[i], vms[j]);
      EXPECT_TRUE(hops == 1 || hops == 4) << hops;
    }
  }
}

TEST(Cloud, ConcurrentSameSourceSharesHose) {
  Cloud cloud(ec2_2013(), 21);
  const auto vms = cloud.allocate_vms(10);
  // Find a source and two destinations on distinct hosts.
  VmId a = vms[0], b = vms[1], c = vms[2];
  for (VmId v : vms) {
    if (cloud.vm_host(v) != cloud.vm_host(a) && b == vms[1]) b = v;
  }
  const double solo = cloud.netperf_bps(a, b, 5.0, 1);
  const auto joint = cloud.netperf_concurrent_bps({{a, b}, {a, c}}, 5.0, 1);
  // §4.3: connections out of the same source always interfere; the sum stays
  // near the solo rate (hose signature).
  EXPECT_LT(joint[0], solo * 0.75);
  EXPECT_NEAR(joint[0] + joint[1], solo, solo * 0.25);
}

TEST(Cloud, ExecuteRunsTransfersToCompletion) {
  Cloud cloud(ec2_2013(), 31);
  const auto vms = cloud.allocate_vms(4);
  std::vector<Cloud::Transfer> transfers;
  transfers.push_back({vms[0], vms[1], units::megabytes(100), 0.0});
  transfers.push_back({vms[2], vms[3], units::megabytes(50), 0.0});
  transfers.push_back({vms[0], vms[0], units::megabytes(500), 0.0});  // same VM: free
  const auto result = cloud.execute(transfers, 1);
  ASSERT_EQ(result.completion_s.size(), 3u);
  EXPECT_GT(result.completion_s[0], 0.0);
  EXPECT_DOUBLE_EQ(result.completion_s[2], 0.0);
  EXPECT_GE(result.makespan_s, result.completion_s[0]);
  // 100 MB at ~1 Gbit/s is ~0.8s; allow for slow-band hoses (down to ~300M).
  EXPECT_LT(result.makespan_s, 5.0);
}

TEST(Cloud, TruePathRateIsNoiseFree) {
  Cloud cloud(rackspace(), 41);
  const auto vms = cloud.allocate_vms(6);
  if (cloud.vm_host(vms[0]) != cloud.vm_host(vms[1])) {
    const double r1 = cloud.true_path_rate_bps(vms[0], vms[1], 5);
    const double r2 = cloud.true_path_rate_bps(vms[0], vms[1], 5);
    EXPECT_DOUBLE_EQ(r1, r2);
    EXPECT_NEAR(r1, cloud.vm_hose_bps(vms[0]), mbps(6));
  }
}

TEST(Cloud, ProbeSeriesReflectsSharing) {
  Cloud cloud(ec2_2013(), 51);
  const auto vms = cloud.allocate_vms(6);
  const auto series = cloud.probe_series_bps(vms[0], vms[1], 2.0, 0.01, 3);
  EXPECT_NEAR(static_cast<double>(series.size()), 200.0, 2.0);
  for (double s : series) EXPECT_GT(s, 0.0);
}

}  // namespace
}  // namespace choreo::cloud
