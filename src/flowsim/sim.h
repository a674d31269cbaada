#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <queue>
#include <vector>

#include "flowsim/max_min.h"
#include "flowsim/max_min_kernel.h"
#include "net/routing.h"
#include "net/topology.h"
#include "util/rng.h"

namespace choreo::flowsim {

using FlowId = std::size_t;

inline constexpr double kInfiniteBytes = std::numeric_limits<double>::infinity();

/// Description of a flow to simulate.
struct FlowSpec {
  net::NodeId src = 0;
  net::NodeId dst = 0;
  /// Bytes to transfer; kInfiniteBytes for a persistent (backlogged) flow.
  double bytes = 0.0;
  double start_time = 0.0;
  /// Selects among ECMP paths; flows with different keys may hash to
  /// different aggregate/core links.
  std::uint64_t flow_key = 0;
  /// Additional shared resources this flow consumes (hose caps, vswitches).
  std::vector<ResourceId> extra_resources;
  /// Individual rate ceiling (bits/s); infinity when absent. Applied *after*
  /// waterfilling: a capped flow is frozen at min(fair share, cap) and its
  /// unused share is NOT redistributed to other flows (see
  /// docs/ARCHITECTURE.md, pinned by FlowSim.RateCapDoesNotRedistribute).
  double rate_cap = std::numeric_limits<double>::infinity();
};

/// Runtime state of a flow, queryable during and after a run.
struct FlowState {
  FlowSpec spec;
  net::Route route;
  bool started = false;
  bool finished = false;
  /// ON-OFF flows only: currently transmitting?
  bool on = true;
  double remaining_bytes = 0.0;
  double bytes_received = 0.0;
  double rate_bps = 0.0;  ///< current allocated rate
  double completion_time = -1.0;
};

/// Selects the rate-computation path of a Sim.
enum class KernelMode {
  /// Incremental CSR kernel (MaxMinKernel): component-scoped recompute,
  /// reverse-index freezing, zero steady-state allocations. The default.
  /// A finite flow's route/extra-resource storage (and its kernel incidence
  /// row) is released the moment it finishes; its outcome (bytes_received,
  /// completion_time) stays queryable. Long sessions with heavy churn then
  /// hold memory proportional to the *live* flow set, not to every flow
  /// ever created.
  Incremental,
  /// The original full rebuild + `max_min_rates` waterfill, preserved
  /// verbatim as the differential oracle (test_flowsim_differential pins the
  /// incremental path bit-identical to it). Predates retirement: every
  /// flow keeps its storage.
  Reference,
};

/// Event-driven fluid ("flow-level") network simulator.
///
/// Rates are max-min fair shares over link capacities plus arbitrary extra
/// resources (per-VM hose caps and same-host virtual switches are added by
/// the cloud layer). Between events every active flow transfers fluid at its
/// allocated rate; events are flow arrivals, completions, ON-OFF transitions
/// of background flows, and sampler callbacks.
///
/// This simulator is the substrate for:
///   * "netperf" bulk-TCP throughput measurements (§2.2, §3.2),
///   * the cross-traffic experiments of Fig 4,
///   * temporal-stability runs of Fig 7, and
///   * executing placed applications to obtain completion times (§6).
///
/// Steady-state costs are indexed by the *active* flow set, not every flow
/// ever created: arrivals/finishes/toggles maintain a sorted active-flow
/// index, rate recomputation is scoped to the connected component(s) of the
/// flow/resource sharing graph an event touched, and recompute scratch is
/// reused so no allocations happen once warm (bench/micro_flowsim measures
/// all three).
class Sim {
 public:
  /// Flows are routed through `router` (and over its topology), which must
  /// outlive the Sim; a cloud shares one router, and so one BFS cache,
  /// among all the Sims it builds. `unconstrained_rate` is the rate given to
  /// flows that cross no resource at all (e.g., two tasks co-located on one
  /// machine with no vswitch cap).
  explicit Sim(const net::Router& router, double unconstrained_rate = 400e9,
               KernelMode mode = KernelMode::Incremental);
  /// A temporary router would dangle: build it beside the Sim instead.
  Sim(const net::Router&& router, double unconstrained_rate = 400e9,
      KernelMode mode = KernelMode::Incremental) = delete;

  /// Registers a shared resource (e.g., a hose-model egress cap). Returned
  /// ids are distinct from link-backed resources.
  ResourceId add_resource(double capacity_bps);

  /// Changes a resource's capacity (used to model provider re-provisioning).
  void set_resource_capacity(ResourceId id, double capacity_bps);

  /// Adds a finite or persistent flow. The flow starts at spec.start_time.
  FlowId add_flow(const FlowSpec& spec);

  /// Adds a persistent ON-OFF background flow (§3.2's "ON-OFF model [2]
  /// whose transition time follows an exponential distribution"). The flow
  /// alternates between transmitting (backlogged) and silent, with both state
  /// holding times drawn exponentially with mean `mean_on_s`/`mean_off_s`.
  /// Hold number k (the initial state's is number 0) is a pure function of
  /// (`seed`, k): the flow's toggle times do not depend on what else the Sim
  /// holds.
  FlowId add_on_off_flow(const FlowSpec& spec, double mean_on_s, double mean_off_s,
                         bool start_on, std::uint64_t seed);

  /// Invokes `fn(now)` every `interval_s` seconds, from `start_s` until the
  /// simulation ends. Samplers see post-advance, post-reallocation state.
  void add_sampler(double start_s, double interval_s, std::function<void(double)> fn);

  /// Runs until `t_end` (inclusive of events at exactly t_end).
  void run_until(double t_end);

  /// Runs until all finite flows have completed. Throws if only persistent
  /// flows remain and none are finite; `t_max` bounds runaway simulations.
  void run_to_completion(double t_max = 1e9);

  double now() const { return now_; }
  std::size_t flow_count() const { return flows_.size(); }
  const FlowState& flow(FlowId id) const;

  /// Current number of actively transmitting flows.
  std::size_t active_flow_count() const;

  /// Instantaneous load on one directed link: allocated rate summed over the
  /// active flows routed across it, plus their count. The measurement plane
  /// snapshots this per epoch to model the capacity a probe train has left
  /// (cloud::Cloud::traffic_snapshot).
  struct LinkLoad {
    double used_bps = 0.0;
    std::size_t flows = 0;
  };

  /// Per-link loads at the current simulation time, indexed by net::LinkId.
  std::vector<LinkLoad> link_loads() const;

  /// Latest completion time among finished finite flows; -1 if none.
  double makespan() const { return makespan_; }

  /// Incremental-kernel counters (recomputes, region sizes, waterfill
  /// rounds); all zero in Reference mode.
  const MaxMinKernel::Stats& kernel_stats() const { return kernel_.stats(); }
  /// Total reallocate() invocations that found dirty state, either mode.
  std::uint64_t reallocations() const { return reallocations_; }

 private:
  struct Event {
    double time;
    std::uint64_t seq;  // FIFO tie-break for determinism
    enum class Kind { Arrival, Toggle, Sample } kind;
    std::size_t index;  // flow id or sampler id
    bool operator>(const Event& other) const {
      if (time != other.time) return time > other.time;
      return seq > other.seq;
    }
  };

  struct Sampler {
    double interval;
    std::function<void(double)> fn;
  };

  /// An ON-OFF flow's holding times, counter-keyed: hold number k is
  /// mean * keyed_exponential(seed, k), so a flow carries no generator.
  struct OnOffState {
    double mean_on;
    double mean_off;
    std::uint64_t seed;
    std::uint64_t draws = 0;
    double next_hold(bool on) {
      return (on ? mean_on : mean_off) * keyed_exponential(seed, draws++);
    }
  };

  void push_event(double time, Event::Kind kind, std::size_t index);
  void advance_to(double t);
  void reallocate();
  /// The pre-kernel reallocation path, preserved verbatim: rebuilds the
  /// flow -> resource incidence and re-waterfills every active flow via
  /// max_min_rates. The differential oracle for KernelMode::Incremental.
  void reallocate_reference();
  bool flow_active(const FlowState& f) const;
  /// Marks a flow (in)active in the kernel's index and keeps rate_bps
  /// consistent for the cases reallocate() will not revisit.
  void activate_flow(FlowId id);
  void deactivate_flow(FlowId id);
  void retire_flow_storage(FlowId id);
  /// Earliest completion time among active finite flows, or +inf.
  double next_completion() const;
  void finish_due_flows();

  const net::Topology& topo_;
  const net::Router& router_;
  double unconstrained_rate_;
  KernelMode mode_;
  double now_ = 0.0;
  std::uint64_t event_seq_ = 0;

  std::vector<double> resource_capacity_;  // [0, link_count) mirror links
  std::vector<FlowState> flows_;
  MaxMinKernel kernel_;  // incidence + active-flow index + incremental rates
  std::vector<OnOffState> onoff_;           // parallel to flows_ (inactive slots unused)
  std::vector<int> onoff_index_;            // flow id -> index into onoff_, or -1
  std::vector<Sampler> samplers_;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> events_;
  bool dirty_ = true;  // rates need recomputation
  double makespan_ = -1.0;
  std::size_t finite_flows_total_ = 0;   // finite flows ever added
  std::size_t unfinished_finite_ = 0;    // finite flows not yet finished
  std::uint64_t reallocations_ = 0;
  std::vector<ResourceId> row_scratch_;   // add_flow row staging
  std::vector<FlowId> finish_scratch_;    // finish_due_flows staging
};

}  // namespace choreo::flowsim
