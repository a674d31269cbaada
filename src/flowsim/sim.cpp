#include "flowsim/sim.h"

#include <algorithm>
#include <cmath>

#include "util/require.h"

namespace choreo::flowsim {
namespace {
/// Bytes below which a flow counts as finished (guards float drift).
constexpr double kByteEpsilon = 1e-3;
/// Relative time slack when comparing an event time with a completion time.
constexpr double kTimeEpsilon = 1e-12;
}  // namespace

Sim::Sim(const net::Topology& topo, double unconstrained_rate, KernelMode mode)
    : topo_(topo),
      router_(topo),
      unconstrained_rate_(unconstrained_rate),
      mode_(mode),
      kernel_(unconstrained_rate) {
  CHOREO_REQUIRE(unconstrained_rate > 0.0);
  resource_capacity_.reserve(topo.link_count());
  for (const net::Link& l : topo.links()) {
    resource_capacity_.push_back(l.capacity_bps);
    kernel_.add_resource(l.capacity_bps);
  }
}

ResourceId Sim::add_resource(double capacity_bps) {
  CHOREO_REQUIRE(capacity_bps > 0.0);
  resource_capacity_.push_back(capacity_bps);
  return kernel_.add_resource(capacity_bps);
}

void Sim::set_resource_capacity(ResourceId id, double capacity_bps) {
  CHOREO_REQUIRE(id < resource_capacity_.size());
  CHOREO_REQUIRE(capacity_bps > 0.0);
  resource_capacity_[id] = capacity_bps;
  kernel_.set_capacity(id, capacity_bps);
  dirty_ = true;
}

FlowId Sim::add_flow(const FlowSpec& spec) {
  CHOREO_REQUIRE(spec.bytes > 0.0);
  CHOREO_REQUIRE(spec.start_time >= now_);
  for (ResourceId r : spec.extra_resources) CHOREO_REQUIRE(r < resource_capacity_.size());
  FlowState st;
  st.spec = spec;
  if (spec.src != spec.dst) {
    st.route = router_.route(spec.src, spec.dst, spec.flow_key);
  }
  st.remaining_bytes = spec.bytes;
  const FlowId id = flows_.size();
  // Register the incidence row in the order the reference path builds its
  // usage rows — extra resources first, then route links — so per-flow
  // capacity subtraction happens in the identical sequence.
  row_scratch_.clear();
  row_scratch_.insert(row_scratch_.end(), st.spec.extra_resources.begin(),
                      st.spec.extra_resources.end());
  row_scratch_.insert(row_scratch_.end(), st.route.links.begin(), st.route.links.end());
  kernel_.add_flow(row_scratch_.data(), row_scratch_.size());
  if (spec.bytes != kInfiniteBytes) {
    ++finite_flows_total_;
    ++unfinished_finite_;
  }
  flows_.push_back(std::move(st));
  onoff_index_.push_back(-1);
  push_event(spec.start_time, Event::Kind::Arrival, id);
  return id;
}

FlowId Sim::add_on_off_flow(const FlowSpec& spec, double mean_on_s, double mean_off_s,
                            bool start_on, std::uint64_t seed) {
  CHOREO_REQUIRE(mean_on_s > 0.0 && mean_off_s > 0.0);
  FlowSpec persistent = spec;
  persistent.bytes = kInfiniteBytes;
  const FlowId id = add_flow(persistent);
  flows_[id].on = start_on;
  onoff_index_[id] = static_cast<int>(onoff_.size());
  onoff_.push_back(OnOffState{mean_on_s, mean_off_s, Rng(seed)});
  // First toggle: holding time of the initial state.
  OnOffState& oo = onoff_.back();
  const double hold = oo.rng.exponential(start_on ? mean_on_s : mean_off_s);
  push_event(spec.start_time + hold, Event::Kind::Toggle, id);
  return id;
}

void Sim::add_sampler(double start_s, double interval_s, std::function<void(double)> fn) {
  CHOREO_REQUIRE(interval_s > 0.0);
  CHOREO_REQUIRE(start_s >= now_);
  samplers_.push_back(Sampler{interval_s, std::move(fn)});
  push_event(start_s, Event::Kind::Sample, samplers_.size() - 1);
}

void Sim::push_event(double time, Event::Kind kind, std::size_t index) {
  events_.push(Event{time, event_seq_++, kind, index});
}

bool Sim::flow_active(const FlowState& f) const {
  return f.started && !f.finished && f.on;
}

void Sim::activate_flow(FlowId id) {
  kernel_.activate(id);
  FlowState& f = flows_[id];
  if (f.spec.extra_resources.empty() && f.route.links.empty()) {
    // Unconstrained flows never enter a waterfill region; their rate is
    // final the moment they activate (identical to what the reference path
    // assigns: min(unconstrained_rate, cap)).
    f.rate_bps = std::min(unconstrained_rate_, f.spec.rate_cap);
  }
}

void Sim::deactivate_flow(FlowId id) {
  kernel_.deactivate(id);
  flows_[id].rate_bps = 0.0;
}

void Sim::retire_flow_storage(FlowId id) {
  // Keep the queryable outcome (bytes_received, completion_time, spec
  // scalars) but free everything a finished flow cannot need again.
  FlowState& f = flows_[id];
  std::vector<ResourceId>().swap(f.spec.extra_resources);
  f.route = net::Route{};
  std::string().swap(f.spec.label);
  kernel_.retire(id);
}

void Sim::reallocate() {
  ++reallocations_;
  if (mode_ == KernelMode::Reference) {
    reallocate_reference();
  } else {
    const std::vector<FlowId>& region = kernel_.recompute();
    for (FlowId id : region) {
      FlowState& f = flows_[id];
      f.rate_bps = std::min(kernel_.rate(id), f.spec.rate_cap);
    }
  }
  dirty_ = false;
}

void Sim::reallocate_reference() {
  std::vector<std::vector<ResourceId>> usage;
  std::vector<FlowId> ids;
  for (FlowId id = 0; id < flows_.size(); ++id) {
    FlowState& f = flows_[id];
    if (!flow_active(f)) {
      f.rate_bps = 0.0;
      continue;
    }
    std::vector<ResourceId> res = f.spec.extra_resources;
    for (net::LinkId l : f.route.links) res.push_back(l);
    usage.push_back(std::move(res));
    ids.push_back(id);
  }
  const std::vector<double> rates =
      max_min_rates(resource_capacity_, usage, unconstrained_rate_);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    FlowState& f = flows_[ids[i]];
    f.rate_bps = std::min(rates[i], f.spec.rate_cap);
  }
}

void Sim::advance_to(double t) {
  CHOREO_ASSERT(t >= now_ - kTimeEpsilon);
  const double dt = std::max(0.0, t - now_);
  if (dt > 0.0) {
    for (FlowId id : kernel_.active_flows()) {
      FlowState& f = flows_[id];
      if (f.rate_bps <= 0.0) continue;
      const double bytes = f.rate_bps * dt / 8.0;
      f.bytes_received += bytes;
      if (f.remaining_bytes != kInfiniteBytes) {
        f.remaining_bytes = std::max(0.0, f.remaining_bytes - bytes);
      }
    }
  }
  now_ = t;
}

double Sim::next_completion() const {
  double best = std::numeric_limits<double>::infinity();
  for (FlowId id : kernel_.active_flows()) {
    const FlowState& f = flows_[id];
    if (f.remaining_bytes == kInfiniteBytes) continue;
    if (f.rate_bps <= 0.0) continue;
    best = std::min(best, now_ + f.remaining_bytes * 8.0 / f.rate_bps);
  }
  return best;
}

void Sim::finish_due_flows() {
  finish_scratch_.clear();
  for (FlowId id : kernel_.active_flows()) {
    const FlowState& f = flows_[id];
    if (f.remaining_bytes == kInfiniteBytes) continue;
    // A flow is done when its residual is negligible either in bytes or in
    // drain time; the time criterion guards against float underflow when a
    // very fast flow's last sliver drains in less than the representable
    // time increment at large simulation times.
    const bool drained_bytes = f.remaining_bytes <= kByteEpsilon;
    const bool drained_time =
        f.rate_bps > 0.0 && f.remaining_bytes * 8.0 / f.rate_bps < 1e-9;
    if (drained_bytes || drained_time) finish_scratch_.push_back(id);
  }
  for (FlowId id : finish_scratch_) {
    FlowState& f = flows_[id];
    f.finished = true;
    f.remaining_bytes = 0.0;
    f.completion_time = now_;
    makespan_ = std::max(makespan_, now_);
    CHOREO_ASSERT(unfinished_finite_ > 0);
    --unfinished_finite_;
    deactivate_flow(id);
    if (auto_retire_) retire_flow_storage(id);
    dirty_ = true;
  }
}

void Sim::run_until(double t_end) {
  CHOREO_REQUIRE(t_end >= now_);
  if (dirty_) reallocate();
  while (true) {
    const double t_event = events_.empty() ? std::numeric_limits<double>::infinity()
                                           : events_.top().time;
    const double t_done = next_completion();
    const double t_next = std::min({t_event, t_done, t_end});
    if (t_next > t_end) break;
    advance_to(t_next);

    bool handled = false;
    // Completions first (they may coincide with events at the same time).
    if (t_done <= t_next + kTimeEpsilon) {
      finish_due_flows();
      handled = true;
    }
    while (!events_.empty() && events_.top().time <= now_ + kTimeEpsilon) {
      const Event ev = events_.top();
      events_.pop();
      handled = true;
      switch (ev.kind) {
        case Event::Kind::Arrival: {
          FlowState& f = flows_[ev.index];
          f.started = true;
          if (flow_active(f)) activate_flow(ev.index);
          dirty_ = true;
          break;
        }
        case Event::Kind::Toggle: {
          FlowState& f = flows_[ev.index];
          OnOffState& oo = onoff_[static_cast<std::size_t>(onoff_index_[ev.index])];
          f.on = !f.on;
          const double hold = oo.rng.exponential(f.on ? oo.mean_on : oo.mean_off);
          push_event(now_ + hold, Event::Kind::Toggle, ev.index);
          if (f.started && !f.finished) {
            if (f.on) {
              activate_flow(ev.index);
            } else {
              deactivate_flow(ev.index);
            }
          }
          dirty_ = true;
          break;
        }
        case Event::Kind::Sample: {
          if (dirty_) reallocate();
          Sampler& s = samplers_[ev.index];
          s.fn(now_);
          push_event(now_ + s.interval, Event::Kind::Sample, ev.index);
          break;
        }
      }
    }
    if (dirty_) reallocate();
    if (!handled && t_next >= t_end) break;
    if (now_ >= t_end) break;
  }
  advance_to(t_end);
  finish_due_flows();
  if (dirty_) reallocate();
}

void Sim::run_to_completion(double t_max) {
  CHOREO_REQUIRE_MSG(finite_flows_total_ > 0,
                     "run_to_completion needs at least one finite flow");
  // Step in chunks until all finite flows are done (events from ON-OFF flows
  // keep the queue non-empty forever, so we cannot just drain it).
  while (now_ < t_max) {
    if (unfinished_finite_ == 0) return;
    if (dirty_) reallocate();
    const double t_event = events_.empty() ? std::numeric_limits<double>::infinity()
                                           : events_.top().time;
    const double t_done = next_completion();
    double target = std::min(t_done, t_event);
    if (!std::isfinite(target)) {
      CHOREO_ASSERT_MSG(false, "finite flows pending but no progress possible");
    }
    run_until(std::min(target, t_max));
  }
  CHOREO_ASSERT_MSG(now_ < t_max, "simulation exceeded t_max before completing");
}

const FlowState& Sim::flow(FlowId id) const {
  CHOREO_REQUIRE(id < flows_.size());
  return flows_[id];
}

std::size_t Sim::active_flow_count() const { return kernel_.active_flows().size(); }

std::vector<Sim::LinkLoad> Sim::link_loads() const {
  std::vector<LinkLoad> loads(topo_.link_count());
  for (FlowId id : kernel_.active_flows()) {
    const FlowState& f = flows_[id];
    if (f.rate_bps <= 0.0) continue;
    for (net::LinkId l : f.route.links) {
      loads[l].used_bps += f.rate_bps;
      ++loads[l].flows;
    }
  }
  return loads;
}

}  // namespace choreo::flowsim
