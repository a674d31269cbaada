#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cloud/profile.h"
#include "flowsim/sim.h"
#include "net/routing.h"
#include "obs/observer.h"
#include "net/topology.h"
#include "packetsim/train_recurrence.h"
#include "util/rng.h"

namespace choreo::cloud {

using VmId = std::size_t;

/// An emulated public-cloud provider: a fabric topology, per-VM hose-model
/// rate limits, background tenants, and the measurement artefacts
/// (virtualization jitter, timestamp noise, opaque traceroute) that the
/// paper contends with on EC2 and Rackspace.
///
/// The class exposes two kinds of operations:
///   * tenant-visible primitives — what Choreo itself is allowed to use:
///     netperf-style bulk transfers, UDP packet trains, traceroute, ping;
///   * harness primitives — ground truth (true hose rates, noise-free path
///     rates) and application execution, used by tests and benches to score
///     placements exactly as §6 does by running the real traffic.
///
/// Determinism: everything derives from the constructor seed plus the
/// caller-supplied `epoch`; an epoch identifies one realization of the
/// background traffic (think "what the other tenants happen to be doing
/// during this particular run").
class Cloud {
 public:
  Cloud(ProviderProfile profile, std::uint64_t seed);

  const ProviderProfile& profile() const { return profile_; }
  const net::Topology& topology() const { return topo_; }
  int machine_cores() const { return profile_.cores_per_machine; }

  /// Rents `count` VMs; repeated calls extend the tenant's fleet. With
  /// probability `colocate_prob` a VM lands on a host already holding one of
  /// the tenant's VMs (the source of the paper's ~1% same-host pairs).
  std::vector<VmId> allocate_vms(std::size_t count);

  std::size_t vm_count() const { return vms_.size(); }
  net::NodeId vm_host(VmId vm) const;
  /// Ground truth hose (egress) rate of a VM — harness only.
  double vm_hose_bps(VmId vm) const;

  /// A draw counter shared by whoever calls it. No library path draws from
  /// it: each session runtime numbers its own measurement cycles. It stays
  /// only because bench/e2e's session workloads still set
  /// RuntimeOptions::epoch_source to it; it goes when that benchmark stops.
  std::uint64_t next_epoch() { return epoch_counter_++; }

  // ---- tenant-visible primitives -----------------------------------------

  /// Hop count as traceroute would report it: 1 for VMs sharing a physical
  /// host, otherwise the fabric path length — except on providers that hide
  /// their tiers (Rackspace reports only {1, 4}, §4.2).
  std::size_t traceroute_hops(VmId a, VmId b) const;

  /// Round-trip time of a small probe (fabric propagation, empty queues).
  double ping_rtt_s(VmId a, VmId b) const;

  /// Bulk-TCP throughput of one connection src->dst measured over
  /// `duration_s` (netperf TCP_STREAM equivalent), including background
  /// traffic and measurement noise.
  double netperf_bps(VmId src, VmId dst, double duration_s, std::uint64_t epoch);

  /// Concurrent netperf probes (for §3.3 interference experiments): all
  /// pairs transfer simultaneously; returns the throughput of each.
  std::vector<double> netperf_concurrent_bps(
      const std::vector<std::pair<VmId, VmId>>& pairs, double duration_s,
      std::uint64_t epoch);

  /// Receiver-side throughput series of one bulk connection, sampled every
  /// `interval_s` (§3.2 samples every 10 ms to estimate cross traffic).
  std::vector<double> probe_series_bps(VmId src, VmId dst, double duration_s,
                                       double interval_s, std::uint64_t epoch);

  /// Sends one §3.1 UDP packet train src->dst through the packet-level
  /// simulator and returns what the estimator reads of the receiver's log
  /// (summarize_chain of the train's chain).
  ///
  /// Noise here is drawn from a shared mutable RNG, so results depend on
  /// call order; the measurement plane uses the order-independent
  /// run_train_in_snapshot instead.
  packetsim::TrainSummary run_train(VmId src, VmId dst, const packetsim::TrainParams& params,
                                    std::uint64_t epoch);

  /// One epoch's view of the background tenants, shared by every train of a
  /// measurement round: the capacity each fabric link has left after the
  /// other tenants' flows, plus their per-link flow counts. Computing it once
  /// per round means concurrent trains of that round observe the *same*
  /// cross-traffic realization — the invariant that keeps parallel probing
  /// equivalent to sequential probing.
  struct TrafficSnapshot {
    /// The realization key: it seeds the background and every train noise
    /// stream of the snapshot.
    std::uint64_t epoch = 0;
    /// Per net::LinkId: capacity minus background usage (floored at a fair
    /// max-min share, since a persistent probe would claw that back).
    std::vector<double> available_bps;
  };

  /// Builds the cross-traffic snapshot for `epoch` (deterministic; const).
  TrafficSnapshot traffic_snapshot(std::uint64_t epoch) const;

  /// The snapshot that round `round` of the measurement cycle at `epoch`
  /// probes against: traffic_snapshot of a key that mixes (epoch, round) the
  /// way the noise substreams mix theirs. Every round of every cycle gets its
  /// own background and train noise, so no round of one cycle replays a
  /// round of another. The one key both the in-process rounds and the agent
  /// plane's probes use.
  TrafficSnapshot round_snapshot(std::uint64_t epoch, std::uint64_t round) const;

  /// Order-independent packet train, left in `out` as what the §3.1
  /// estimator reads of the receiver's log (packetsim::summarize of it):
  /// identical (src, dst, params, snapshot) always produce identical
  /// summaries, no matter how many other trains ran before or run
  /// concurrently — all jitter derives from (seed, epoch, src, dst).
  /// Thread-safe: const, touches no mutable state besides `out`.
  void run_train_in_snapshot(VmId src, VmId dst, const packetsim::TrainParams& params,
                             const TrafficSnapshot& snapshot,
                             packetsim::TrainSummary& out) const;

  /// The packet-level chain one train src->dst runs through, plus the
  /// receiver's timestamp noise: exactly what run_train_in_snapshot
  /// simulates. Exposed so that the differential suites can replay the very
  /// same train through the event-driven oracle and benches can time it.
  struct TrainChain {
    packetsim::ShaperSpec shaper;
    std::vector<packetsim::HopSpec> hops;
    packetsim::TrainParams params;  ///< the caller's, at the vNIC line rate
    double timestamp_jitter_s = 0.0;
    std::uint64_t sink_seed = 0;
  };
  TrainChain train_chain_in_snapshot(VmId src, VmId dst, const packetsim::TrainParams& params,
                                     const TrafficSnapshot& snapshot) const;

  /// Leaves in `out` the summary of one chain's train (the summary form of
  /// packetsim::simulate_train): the one chain runner behind every train
  /// this cloud sends. A warm `out` is reused and nothing is allocated.
  static void summarize_chain(const TrainChain& chain, packetsim::TrainSummary& out);

  /// Runs one conflict-free round of trains — no VM may appear twice as a
  /// source or twice as a destination — on up to `workers` threads. Leaves
  /// the summaries in `out`, resized parallel to `pairs` (its elements'
  /// buffers are reused), byte-identical for any worker count (pinned by
  /// test_determinism).
  void run_train_round(const std::vector<std::pair<VmId, VmId>>& pairs,
                       const packetsim::TrainParams& params, const TrafficSnapshot& snapshot,
                       std::vector<packetsim::TrainSummary>& out, unsigned workers = 1) const;

  // ---- harness primitives -------------------------------------------------

  /// One application-level transfer to execute on the cloud.
  struct Transfer {
    VmId src = 0;
    VmId dst = 0;
    double bytes = 0.0;
    double start_s = 0.0;
  };

  struct ExecResult {
    /// Completion time of each transfer, parallel to the input; transfers
    /// between tasks on the same VM complete instantly at their start time.
    std::vector<double> completion_s;
    double makespan_s = 0.0;
  };

  /// Runs the transfers concurrently with background traffic and returns
  /// when they all finish — the paper's §6.1 "we transfer data as specified
  /// by the placement algorithm and the traffic matrix" on live EC2.
  ExecResult execute(const std::vector<Transfer>& transfers, std::uint64_t epoch);

  /// Attaches the observability plane to execute(): per-call
  /// "flowsim.execute" spans and flowsim.* kernel counters (recompute
  /// scope, waterfill rounds, reallocations). execute() may run on several
  /// threads at once — counter adds are atomic and spans commit lock-free,
  /// so attaching an observer never serializes callers.
  void set_observer(const obs::Observer& o);

  /// Noise-free fair-share rate a fresh probe src->dst would get right now.
  double true_path_rate_bps(VmId src, VmId dst, std::uint64_t epoch);

 private:
  /// A fluid simulation of this cloud with per-VM hose resources, per-host
  /// vswitch resources and the epoch's background tenant flows installed.
  struct SimBundle {
    explicit SimBundle(const net::Router& router) : sim(router) {}
    flowsim::Sim sim;
    std::vector<flowsim::ResourceId> vm_egress;                       ///< per VmId
    std::unordered_map<net::NodeId, flowsim::ResourceId> host_vswitch;
  };

  std::unique_ptr<SimBundle> make_sim(std::uint64_t epoch) const;

  /// FlowSpec for a tenant flow inside a SimBundle's sim: resolves hosts,
  /// attaches the source hose (different hosts) or the vswitch (same host).
  flowsim::FlowSpec tenant_flow(const SimBundle& bundle, VmId src, VmId dst, double bytes,
                                double start_s, std::uint64_t flow_key) const;

  struct VmRecord {
    net::NodeId host;
    double hose_bps;
  };

  double draw_hose_rate(Rng& rng) const;
  /// Installs the epoch's background tenant flows: ON-OFF flows between
  /// hosts over fabric links only, so `sim` needs no tenant resources.
  void add_background(flowsim::Sim& sim, std::uint64_t epoch) const;
  /// Shared train construction behind run_train and run_train_in_snapshot;
  /// `shaper_jitter_frac` is invoked only for inter-host trains, `snapshot`
  /// (optional) caps hop capacities at the background's leftovers.
  TrainChain train_chain(VmId src, VmId dst, const packetsim::TrainParams& params,
                         std::uint64_t sink_seed, std::uint64_t route_key,
                         const std::function<double()>& shaper_jitter_frac,
                         const TrafficSnapshot* snapshot) const;

  ProviderProfile profile_;
  std::uint64_t seed_;
  net::Topology topo_;
  /// The one router of this cloud: trains and every Sim this cloud builds
  /// route through it, so its BFS cache outlives each snapshot and execute.
  net::Router router_;
  std::vector<net::NodeId> hosts_;
  std::vector<VmRecord> vms_;
  std::unordered_map<net::NodeId, std::vector<VmId>> host_vms_;
  Rng alloc_rng_;
  Rng noise_rng_;
  std::uint64_t epoch_counter_ = 1;

  obs::Observer obs_;
  struct ObsHandles {
    obs::Counter executes, flows, recomputes, waterfill_rounds, reallocations;
  };
  ObsHandles obs_handles_;
};

}  // namespace choreo::cloud
