#include "cloud/cloud.h"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "packetsim/train_recurrence.h"
#include "util/require.h"
#include "util/units.h"
#include "util/worker_pool.h"

namespace choreo::cloud {
namespace {

/// Mixes a cloud seed with an epoch and a salt into an independent stream id.
std::uint64_t substream(std::uint64_t seed, std::uint64_t epoch, std::uint64_t salt) {
  std::uint64_t x = seed ^ (epoch * 0x9e3779b97f4a7c15ULL) ^ (salt * 0xbf58476d1ce4e5b9ULL);
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Salt for per-pair noise streams: a train's jitter must depend only on
/// (seed, epoch, src, dst) so that concurrent and sequential execution of a
/// round produce byte-identical records.
std::uint64_t pair_salt(VmId src, VmId dst, std::uint64_t lane) {
  return 0x5851f42d4c957f2dULL + src * 1000003ULL + dst * 8191ULL + lane;
}

/// Salt base of round snapshot keys, clear of the other salts in this file.
constexpr std::uint64_t kRoundSalt = 0x726f756e64000000ULL;

}  // namespace

void Cloud::summarize_chain(const TrainChain& chain, packetsim::TrainSummary& out) {
  packetsim::simulate_train(chain.shaper, chain.hops, chain.params, chain.timestamp_jitter_s,
                            chain.sink_seed, out);
}

Cloud::Cloud(ProviderProfile profile, std::uint64_t seed)
    : profile_(std::move(profile)),
      seed_(seed),
      topo_(net::make_regional_tree(profile_.tree)),
      router_(topo_),
      hosts_(topo_.nodes_of_kind(net::NodeKind::Host)),
      alloc_rng_(substream(seed, 0, 1)),
      noise_rng_(substream(seed, 0, 2)) {
  CHOREO_REQUIRE(!profile_.hose_clusters.empty() || profile_.slow_band_weight > 0.0);
  CHOREO_REQUIRE(!hosts_.empty());
}

double Cloud::draw_hose_rate(Rng& rng) const {
  std::vector<double> weights;
  weights.reserve(profile_.hose_clusters.size() + 1);
  for (const HoseCluster& c : profile_.hose_clusters) weights.push_back(c.weight);
  weights.push_back(profile_.slow_band_weight);
  const std::size_t pick = rng.weighted_index(weights);
  double rate;
  if (pick == profile_.hose_clusters.size()) {
    rate = rng.uniform(profile_.slow_lo_bps, profile_.slow_hi_bps);
  } else {
    const HoseCluster& c = profile_.hose_clusters[pick];
    rate = rng.normal(c.mean_bps, c.stddev_bps);
  }
  return std::max(rate, units::mbps(10));  // keep degenerate draws sane
}

std::vector<VmId> Cloud::allocate_vms(std::size_t count) {
  CHOREO_REQUIRE(count >= 1);
  std::vector<VmId> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    net::NodeId host;
    if (!vms_.empty() && alloc_rng_.chance(profile_.colocate_prob)) {
      // Pack onto a host the tenant already occupies.
      const VmId other = static_cast<VmId>(
          alloc_rng_.uniform_int(0, static_cast<std::int64_t>(vms_.size()) - 1));
      host = vms_[other].host;
    } else {
      host = hosts_[static_cast<std::size_t>(
          alloc_rng_.uniform_int(0, static_cast<std::int64_t>(hosts_.size()) - 1))];
    }
    const VmId id = vms_.size();
    vms_.push_back(VmRecord{host, draw_hose_rate(alloc_rng_)});
    host_vms_[host].push_back(id);
    out.push_back(id);
  }
  return out;
}

net::NodeId Cloud::vm_host(VmId vm) const {
  CHOREO_REQUIRE(vm < vms_.size());
  return vms_[vm].host;
}

double Cloud::vm_hose_bps(VmId vm) const {
  CHOREO_REQUIRE(vm < vms_.size());
  return vms_[vm].hose_bps;
}

std::size_t Cloud::traceroute_hops(VmId a, VmId b) const {
  CHOREO_REQUIRE(a < vms_.size() && b < vms_.size());
  if (vms_[a].host == vms_[b].host) return 1;
  const std::size_t hops = router_.hop_count(vms_[a].host, vms_[b].host);
  if (profile_.traceroute_hides_tiers) return 4;
  return hops;
}

double Cloud::ping_rtt_s(VmId a, VmId b) const {
  CHOREO_REQUIRE(a < vms_.size() && b < vms_.size());
  if (vms_[a].host == vms_[b].host) return 50e-6;
  const net::Route route = router_.route(vms_[a].host, vms_[b].host, 0);
  double one_way = 0.0;
  for (net::LinkId l : route.links) {
    const net::Link& link = topo_.link(l);
    one_way += link.delay_s + 64.0 * 8.0 / link.capacity_bps;
  }
  return 2.0 * one_way + 40e-6;  // virtualization overhead floor
}

std::unique_ptr<Cloud::SimBundle> Cloud::make_sim(std::uint64_t epoch) const {
  auto bundle = std::make_unique<SimBundle>(router_);
  bundle->vm_egress.reserve(vms_.size());
  for (const VmRecord& vm : vms_) {
    bundle->vm_egress.push_back(bundle->sim.add_resource(vm.hose_bps));
  }
  for (net::NodeId host : hosts_) {
    bundle->host_vswitch.emplace(host, bundle->sim.add_resource(profile_.vswitch_rate_bps));
  }
  add_background(bundle->sim, epoch);
  return bundle;
}

void Cloud::add_background(flowsim::Sim& sim, std::uint64_t epoch) const {
  Rng rng(substream(seed_, epoch, 3));
  for (std::size_t i = 0; i < profile_.bg_flow_count; ++i) {
    // Background endpoints are other tenants' VMs; we model them as host-level
    // sources with a per-flow cap (their own hose).
    net::NodeId src, dst;
    if (rng.chance(profile_.bg_core_bias) && topo_.node(hosts_.front()).pod >= 0) {
      // Bias: pick hosts in different pods so the flow crosses core links.
      do {
        src = hosts_[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(hosts_.size()) - 1))];
        dst = hosts_[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(hosts_.size()) - 1))];
      } while (src == dst || topo_.node(src).pod == topo_.node(dst).pod);
    } else {
      do {
        src = hosts_[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(hosts_.size()) - 1))];
        dst = hosts_[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(hosts_.size()) - 1))];
      } while (src == dst);
    }
    flowsim::FlowSpec spec;
    spec.src = src;
    spec.dst = dst;
    spec.start_time = 0.0;
    spec.flow_key = substream(seed_, epoch, 100 + i);
    spec.rate_cap = profile_.bg_rate_cap_bps;
    const bool start_on = rng.chance(profile_.bg_mean_on_s /
                                     (profile_.bg_mean_on_s + profile_.bg_mean_off_s));
    sim.add_on_off_flow(spec, profile_.bg_mean_on_s, profile_.bg_mean_off_s, start_on,
                        substream(seed_, epoch, 200 + i));
  }
}

flowsim::FlowSpec Cloud::tenant_flow(const SimBundle& bundle, VmId src, VmId dst,
                                     double bytes, double start_s,
                                     std::uint64_t flow_key) const {
  CHOREO_REQUIRE(src < vms_.size() && dst < vms_.size());
  CHOREO_REQUIRE(src != dst);
  flowsim::FlowSpec spec;
  spec.src = vms_[src].host;
  spec.dst = vms_[dst].host;
  spec.bytes = bytes;
  spec.start_time = start_s;
  spec.flow_key = flow_key;
  if (vms_[src].host == vms_[dst].host) {
    spec.extra_resources.push_back(bundle.host_vswitch.at(vms_[src].host));
  } else {
    spec.extra_resources.push_back(bundle.vm_egress[src]);
  }
  return spec;
}

double Cloud::netperf_bps(VmId src, VmId dst, double duration_s, std::uint64_t epoch) {
  CHOREO_REQUIRE(duration_s > 0.0);
  auto bundle = make_sim(epoch);
  flowsim::FlowSpec spec =
      tenant_flow(*bundle, src, dst, flowsim::kInfiniteBytes, 0.0, substream(seed_, epoch, 7));
  const flowsim::FlowId probe = bundle->sim.add_flow(spec);
  bundle->sim.run_until(duration_s);
  const double raw = bundle->sim.flow(probe).bytes_received * 8.0 / duration_s;
  return raw * (1.0 + noise_rng_.normal(0.0, profile_.netperf_noise_frac));
}

std::vector<double> Cloud::netperf_concurrent_bps(
    const std::vector<std::pair<VmId, VmId>>& pairs, double duration_s,
    std::uint64_t epoch) {
  CHOREO_REQUIRE(!pairs.empty());
  CHOREO_REQUIRE(duration_s > 0.0);
  auto bundle = make_sim(epoch);
  std::vector<flowsim::FlowId> probes;
  probes.reserve(pairs.size());
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    flowsim::FlowSpec spec = tenant_flow(*bundle, pairs[i].first, pairs[i].second,
                                         flowsim::kInfiniteBytes, 0.0,
                                         substream(seed_, epoch, 10 + i));
    probes.push_back(bundle->sim.add_flow(spec));
  }
  bundle->sim.run_until(duration_s);
  std::vector<double> out;
  out.reserve(probes.size());
  for (flowsim::FlowId id : probes) {
    const double raw = bundle->sim.flow(id).bytes_received * 8.0 / duration_s;
    out.push_back(raw * (1.0 + noise_rng_.normal(0.0, profile_.netperf_noise_frac)));
  }
  return out;
}

std::vector<double> Cloud::probe_series_bps(VmId src, VmId dst, double duration_s,
                                            double interval_s, std::uint64_t epoch) {
  CHOREO_REQUIRE(duration_s > 0.0 && interval_s > 0.0);
  auto bundle = make_sim(epoch);
  flowsim::FlowSpec spec =
      tenant_flow(*bundle, src, dst, flowsim::kInfiniteBytes, 0.0, substream(seed_, epoch, 8));
  const flowsim::FlowId probe = bundle->sim.add_flow(spec);

  std::vector<double> series;
  series.reserve(static_cast<std::size_t>(duration_s / interval_s) + 1);
  auto* sim_ptr = &bundle->sim;
  double last_bytes = 0.0;
  bundle->sim.add_sampler(interval_s, interval_s, [&series, sim_ptr, probe, &last_bytes,
                                                   interval_s](double) {
    const double bytes = sim_ptr->flow(probe).bytes_received;
    series.push_back((bytes - last_bytes) * 8.0 / interval_s);
    last_bytes = bytes;
  });
  bundle->sim.run_until(duration_s);
  return series;
}

Cloud::TrainChain Cloud::train_chain(VmId src, VmId dst,
                                     const packetsim::TrainParams& params,
                                     std::uint64_t sink_seed, std::uint64_t route_key,
                                     const std::function<double()>& shaper_jitter_frac,
                                     const TrafficSnapshot* snapshot) const {
  CHOREO_REQUIRE(src < vms_.size() && dst < vms_.size());
  CHOREO_REQUIRE(src != dst);
  TrainChain chain;
  chain.params = params;
  chain.params.line_rate_bps = profile_.vnic_rate_bps;
  chain.timestamp_jitter_s = profile_.timestamp_jitter_s;
  chain.sink_seed = sink_seed;

  const net::NodeId src_host = vms_[src].host;
  const net::NodeId dst_host = vms_[dst].host;
  packetsim::ShaperSpec& shaper = chain.shaper;
  std::vector<packetsim::HopSpec>& hops = chain.hops;
  if (src_host == dst_host) {
    shaper.enabled = false;
    hops.push_back(packetsim::HopSpec{profile_.vswitch_rate_bps, 5e-6, 2e6});
  } else {
    shaper.enabled = true;
    // Virtualization noise: this train observes the hose through one
    // scheduling quantum, not the long-run average. The jitter draw happens
    // only on this branch, so same-host trains consume no randomness.
    shaper.rate_bps = vms_[src].hose_bps * (1.0 + shaper_jitter_frac());
    shaper.rate_bps = std::max(shaper.rate_bps, units::mbps(10));
    shaper.depth_bytes = profile_.bucket_depth_bytes;
    shaper.idle_reset_s = profile_.bucket_idle_reset_s;
    const net::Route route = router_.route(src_host, dst_host, route_key);
    hops.reserve(route.links.size());
    for (net::LinkId l : route.links) {
      const net::Link& link = topo_.link(l);
      // With a snapshot, each hop is capped at what the background tenants
      // left over; without one the train sees raw link capacity.
      const double cap = snapshot && l < snapshot->available_bps.size()
                             ? std::min(link.capacity_bps, snapshot->available_bps[l])
                             : link.capacity_bps;
      hops.push_back(packetsim::HopSpec{cap, link.delay_s, 2e6});
    }
  }
  return chain;
}

packetsim::TrainSummary Cloud::run_train(VmId src, VmId dst,
                                         const packetsim::TrainParams& params,
                                         std::uint64_t epoch) {
  const auto jitter = [this] { return noise_rng_.normal(0.0, profile_.train_rate_jitter_frac); };
  packetsim::TrainSummary out;
  summarize_chain(train_chain(src, dst, params, substream(seed_, epoch, 21),
                              substream(seed_, epoch, 22), jitter, /*snapshot=*/nullptr),
                  out);
  return out;
}

Cloud::TrafficSnapshot Cloud::traffic_snapshot(std::uint64_t epoch) const {
  TrafficSnapshot snap;
  snap.epoch = epoch;
  // Only the background: a snapshot reads link loads, never the tenant
  // hoses or vswitches make_sim would register.
  flowsim::Sim sim(router_);
  add_background(sim, epoch);
  // Let the ON-OFF background settle into its epoch state before sampling —
  // the same warm-up true_path_rate_bps uses.
  sim.run_until(1e-3);
  const auto loads = sim.link_loads();
  snap.available_bps.resize(loads.size());
  for (std::size_t l = 0; l < loads.size(); ++l) {
    const double cap = topo_.link(l).capacity_bps;
    // Residual capacity, floored at the max-min share a persistent probe
    // would win back from the background flows sharing the link.
    const double fair = cap / static_cast<double>(loads[l].flows + 1);
    snap.available_bps[l] = std::max(cap - loads[l].used_bps, fair);
  }
  return snap;
}

Cloud::TrafficSnapshot Cloud::round_snapshot(std::uint64_t epoch,
                                             std::uint64_t round) const {
  return traffic_snapshot(substream(seed_, epoch, kRoundSalt + round));
}

Cloud::TrainChain Cloud::train_chain_in_snapshot(VmId src, VmId dst,
                                                 const packetsim::TrainParams& params,
                                                 const TrafficSnapshot& snapshot) const {
  // Same train construction as run_train, but every noise stream is keyed by
  // (seed, epoch, src, dst) instead of shared order-dependent RNG state, and
  // hop capacities come from the round's cross-traffic snapshot.
  const std::uint64_t epoch = snapshot.epoch;
  const auto jitter = [&] {
    return profile_.train_rate_jitter_frac *
           keyed_normal(substream(seed_, epoch, pair_salt(src, dst, 1)), 0);
  };
  return train_chain(src, dst, params, substream(seed_, epoch, pair_salt(src, dst, 0)),
                     substream(seed_, epoch, pair_salt(src, dst, 2)), jitter, &snapshot);
}

void Cloud::run_train_in_snapshot(VmId src, VmId dst, const packetsim::TrainParams& params,
                                  const TrafficSnapshot& snapshot,
                                  packetsim::TrainSummary& out) const {
  summarize_chain(train_chain_in_snapshot(src, dst, params, snapshot), out);
}

void Cloud::run_train_round(const std::vector<std::pair<VmId, VmId>>& pairs,
                            const packetsim::TrainParams& params,
                            const TrafficSnapshot& snapshot,
                            std::vector<packetsim::TrainSummary>& out,
                            unsigned workers) const {
  CHOREO_REQUIRE(!pairs.empty());
  // Enforce the conflict-free contract: a VM sourcing (or sinking) two
  // simultaneous trains would share its hose (vNIC) between them and bias
  // both estimates (§4.1).
  std::vector<char> src_busy(vms_.size(), 0), dst_busy(vms_.size(), 0);
  for (const auto& [s, d] : pairs) {
    CHOREO_REQUIRE(s < vms_.size() && d < vms_.size() && s != d);
    CHOREO_REQUIRE_MSG(!src_busy[s] && !dst_busy[d],
                       "round is not conflict-free: a VM appears twice");
    src_busy[s] = dst_busy[d] = 1;
  }

  out.resize(pairs.size());
  const unsigned n_workers =
      std::max(1u, std::min<unsigned>(workers, static_cast<unsigned>(pairs.size())));
  std::atomic<std::size_t> next{0};
  util::run_workers(n_workers, [&](unsigned) {
    for (std::size_t i = next.fetch_add(1); i < pairs.size(); i = next.fetch_add(1)) {
      run_train_in_snapshot(pairs[i].first, pairs[i].second, params, snapshot, out[i]);
    }
  });
}

void Cloud::set_observer(const obs::Observer& o) {
  obs_ = o;
  obs_handles_.executes = o.counter("flowsim.executes");
  obs_handles_.flows = o.counter("flowsim.flows");
  obs_handles_.recomputes = o.counter("flowsim.recomputes");
  obs_handles_.waterfill_rounds = o.counter("flowsim.waterfill_rounds");
  obs_handles_.reallocations = o.counter("flowsim.reallocations");
}

Cloud::ExecResult Cloud::execute(const std::vector<Transfer>& transfers,
                                 std::uint64_t epoch) {
  CHOREO_REQUIRE(!transfers.empty());
  CHOREO_OBS_SPAN(span, obs_, "flowsim.execute", "flowsim");
  // The incremental Sim releases each transfer's storage as it completes, so
  // large batches (and the harness loops that execute thousands of
  // placements) hold memory proportional to the in-flight transfer set only.
  auto bundle = make_sim(epoch);
  ExecResult result;
  result.completion_s.assign(transfers.size(), 0.0);

  std::vector<std::pair<std::size_t, flowsim::FlowId>> live;  // transfer idx -> flow
  bool any_flow = false;
  for (std::size_t i = 0; i < transfers.size(); ++i) {
    const Transfer& tr = transfers[i];
    CHOREO_REQUIRE(tr.bytes >= 0.0);
    if (tr.src == tr.dst || tr.bytes == 0.0) {
      // Same-VM transfers cost nothing on the network (§5: intra-machine
      // links are modelled as paths with essentially infinite rate).
      result.completion_s[i] = tr.start_s;
      continue;
    }
    flowsim::FlowSpec spec = tenant_flow(*bundle, tr.src, tr.dst, tr.bytes, tr.start_s,
                                         substream(seed_, epoch, 1000 + i));
    live.emplace_back(i, bundle->sim.add_flow(spec));
    any_flow = true;
  }

  if (any_flow) {
    bundle->sim.run_to_completion(/*t_max=*/1e7);
    for (const auto& [idx, flow] : live) {
      const flowsim::FlowState& st = bundle->sim.flow(flow);
      CHOREO_ASSERT(st.finished);
      result.completion_s[idx] = st.completion_time;
    }
  }
  result.makespan_s = 0.0;
  for (double c : result.completion_s) result.makespan_s = std::max(result.makespan_s, c);

  // The bundle is local to this call, so its kernel counters ARE the deltas.
  const flowsim::MaxMinKernel::Stats& ks = bundle->sim.kernel_stats();
  CHOREO_OBS_INC(obs_handles_.executes, obs_);
  CHOREO_OBS_ADD(obs_handles_.flows, obs_, live.size());
  CHOREO_OBS_ADD(obs_handles_.recomputes, obs_, ks.recomputes);
  CHOREO_OBS_ADD(obs_handles_.waterfill_rounds, obs_, ks.waterfill_rounds);
  CHOREO_OBS_ADD(obs_handles_.reallocations, obs_, bundle->sim.reallocations());
  span.arg("flows", static_cast<double>(live.size()));
  span.arg("recomputes", static_cast<double>(ks.recomputes));
  span.sim(transfers.front().start_s, result.makespan_s - transfers.front().start_s);
  return result;
}

double Cloud::true_path_rate_bps(VmId src, VmId dst, std::uint64_t epoch) {
  auto bundle = make_sim(epoch);
  flowsim::FlowSpec spec =
      tenant_flow(*bundle, src, dst, flowsim::kInfiniteBytes, 0.0, substream(seed_, epoch, 9));
  const flowsim::FlowId probe = bundle->sim.add_flow(spec);
  bundle->sim.run_until(1e-3);
  return bundle->sim.flow(probe).rate_bps;
}

}  // namespace choreo::cloud
