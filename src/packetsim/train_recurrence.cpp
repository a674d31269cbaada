#include "packetsim/train_recurrence.h"

#include <algorithm>
#include <limits>

#include "util/require.h"

namespace choreo::packetsim {
namespace {

/// Scheduling instant of an arrival delivered by an emission event: every
/// emission is scheduled before the train starts, so it fires before any
/// other event at its instant.
constexpr double kEmitted = -std::numeric_limits<double>::infinity();

/// One packet entering (or leaving) an element: when it arrives, when the
/// event delivering it was scheduled, and which packet of the train it is.
struct Arrival {
  double time;
  double scheduled;
  std::uint32_t packet;
};
using Stage = std::vector<Arrival>;

/// One hop as the idle pass sees it: transmit time, propagation delay and
/// the completion time of the last packet it carried.
struct IdleHop {
  double tx;
  double delay_s;
  double last_completion;
};

struct Scratch {
  std::vector<double> emission;
  Stage in, out;
  std::vector<double> start;  // service start of each packet a hop accepted
  std::vector<IdleHop> idle;
};

Scratch& scratch() {
  thread_local Scratch s;
  return s;
}

/// The token bucket as GCRA virtual scheduling (ITU-T I.371), the
/// oracle's TokenBucket term for term. Packet k, emitted at e, leaves at
/// d = max(e, previous d, V - tolerance), then V <- max(V, d) + increment;
/// an emission at least `idle_reset_s` after the previous departure first
/// sets V <- e. A packet that leaves at its emission passes inside the
/// emission event; any other is released by an event scheduled at its
/// emission.
void shape(const ShaperSpec& spec, std::uint32_t wire, const std::vector<double>& emission,
           Stage& out) {
  const double increment = static_cast<double>(wire) * 8.0 / spec.rate_bps;
  const double tolerance = (spec.depth_bytes - wire) * 8.0 / spec.rate_bps;
  double v = -std::numeric_limits<double>::infinity();  // a full bucket
  double d = -std::numeric_limits<double>::infinity();
  for (std::size_t k = 0; k < emission.size(); ++k) {
    const double e = emission[k];
    if (spec.idle_reset_s >= 0.0 && e - d >= spec.idle_reset_s) v = e;
    d = std::max({e, d, v - tolerance});
    v = std::max(v, d) + increment;
    out.push_back({d, d == e ? kEmitted : e, static_cast<std::uint32_t>(k)});
  }
}

/// One Link: FIFO service at `spec.rate_bps`, drop-tail at
/// `spec.queue_bytes`, delivery `spec.delay_s` after completion.
void forward(const HopSpec& spec, std::uint32_t wire, const Stage& in, Stage& out,
             std::vector<double>& start, TrainTies* ties) {
  // A delivery is scheduled when its packet completes service, so
  // out[k].scheduled is also the completion time of accepted packet k.
  const double tx = static_cast<double>(wire) * 8.0 / spec.rate_bps;
  const double limit = spec.queue_bytes;
  double queued = 0.0;  // bytes of the packets in the link, the one in service included
  std::size_t done = 0;  // accepted packets [done, accepted) are still in the link
  start.clear();
  for (std::size_t j = 0; j < in.size(); ++j) {
    const double arrival = in[j].time;
    // Completions up to this arrival fire first — except one at the very
    // same instant, which the oracle's EventKey orders: the event scheduled
    // earlier first, and a completion first when both were scheduled at
    // one instant.
    while (done < start.size()) {
      const double completion = out[done].scheduled;
      if (completion > arrival) break;
      if (completion == arrival) {
        const bool drop_if_arrival_first = queued + wire > limit;
        const bool drop_if_completion_first =
            done + 1 < start.size() && (queued - wire) + wire > limit;
        if (drop_if_arrival_first == drop_if_completion_first) break;  // either order
        if (in[j].scheduled < start[done]) {
          if (ties) ++ties->arrival_first;
          break;
        }
        if (ties) ++ties->completion_first;
      }
      queued -= wire;
      ++done;
    }
    const bool busy = done < start.size();
    if (busy && queued + wire > limit) continue;  // drop-tail
    const double s = busy ? out.back().scheduled : arrival;
    const double completion = s + tx;
    start.push_back(s);
    out.push_back({completion + spec.delay_s, completion, in[j].packet});
    queued += wire;
  }
}

/// The tandem on the premise that every packet finds every hop idle: the
/// hop's last completion strictly earlier than the packet's arrival. Carries
/// each packet through all hops in one loop, with the operands forward()
/// uses on an idle hop, so under the premise `out` equals what the per-hop
/// passes leave. Returns false, `in` untouched, at the first packet that
/// finds a hop busy or freeing at its very arrival instant.
bool carry_through_idle_hops(const std::vector<HopSpec>& hops, std::uint32_t wire,
                             const Stage& in, Stage& out, std::vector<IdleHop>& idle) {
  idle.clear();
  for (const HopSpec& h : hops) {
    idle.push_back({static_cast<double>(wire) * 8.0 / h.rate_bps, h.delay_s,
                    -std::numeric_limits<double>::infinity()});
  }
  for (const Arrival& a : in) {
    double time = a.time;
    double completion = a.scheduled;
    for (IdleHop& h : idle) {
      if (!(h.last_completion < time)) return false;
      completion = time + h.tx;
      h.last_completion = completion;
      time = completion + h.delay_s;
    }
    out.push_back({time, completion, a.packet});
  }
  return true;
}

/// Runs `params` through the tandem, leaving the receiver's arrivals, in
/// order, in `s.in`.
void run_tandem(const ShaperSpec& shaper, const std::vector<HopSpec>& hops,
                const TrainParams& params, Scratch& s, TrainTies* ties) {
  CHOREO_REQUIRE(params.bursts >= 1 && params.burst_length >= 2);
  CHOREO_REQUIRE(params.packet_bytes >= 1);
  CHOREO_REQUIRE(params.line_rate_bps > 0.0);
  CHOREO_REQUIRE(!hops.empty() || shaper.enabled);
  const std::uint32_t wire = params.packet_bytes + params.header_bytes;
  CHOREO_REQUIRE(!shaper.enabled || (shaper.rate_bps > 0.0 && shaper.depth_bytes >= wire));
  for (const HopSpec& h : hops) {
    CHOREO_REQUIRE(h.rate_bps > 0.0 && h.delay_s >= 0.0 && h.queue_bytes >= 0.0);
  }
  if (ties) *ties = TrainTies{};

  // Emission times: the oracle's send_train running sums, term for term.
  const double spacing = static_cast<double>(wire) * 8.0 / params.line_rate_bps;
  s.emission.clear();
  double t = 0.0;
  for (std::uint32_t k = 0; k < params.bursts; ++k) {
    for (std::uint32_t i = 0; i < params.burst_length; ++i) {
      s.emission.push_back(t);
      t += spacing;
    }
    t += params.inter_burst_gap_s;
  }

  s.in.clear();
  if (shaper.enabled) {
    shape(shaper, wire, s.emission, s.in);
  } else {
    for (std::size_t p = 0; p < s.emission.size(); ++p) {
      s.in.push_back({s.emission[p], kEmitted, static_cast<std::uint32_t>(p)});
    }
  }
  if (hops.empty()) return;
  // Probe trains rarely queue: try every hop idle first, and only a train
  // that queues, drops or meets a tie takes the per-hop recurrence.
  s.out.clear();
  if (carry_through_idle_hops(hops, wire, s.in, s.out, s.idle)) {
    std::swap(s.in, s.out);
    return;
  }
  for (const HopSpec& hop : hops) {
    s.out.clear();
    forward(hop, wire, s.in, s.out, s.start, ties);
    std::swap(s.in, s.out);
  }
}

}  // namespace

void simulate_train(const ShaperSpec& shaper, const std::vector<HopSpec>& hops,
                    const TrainParams& params, RecordingSink& sink, TrainTies* ties) {
  Scratch& s = scratch();
  run_tandem(shaper, hops, params, s, ties);
  const std::uint32_t wire = params.packet_bytes + params.header_bytes;
  for (const Arrival& a : s.in) {
    sink.receive({/*flow=*/1, a.packet, a.packet / params.burst_length, wire, a.time});
  }
}

void simulate_train(const ShaperSpec& shaper, const std::vector<HopSpec>& hops,
                    const TrainParams& params, double timestamp_jitter_s,
                    std::uint64_t sink_seed, TrainSummary& out, TrainTies* ties) {
  Scratch& s = scratch();
  run_tandem(shaper, hops, params, s, ties);
  const Stage& arrivals = s.in;
  // No jittered time exceeds its arrival by more than `reach` — in floating
  // point too, since a + jitter_s * z rounds monotonically in z.
  const double reach = timestamp_jitter_s > 0.0 ? timestamp_jitter_s * kJitterBoundSigmas : 0.0;
  // The sink's logged time of arrival i, max over k <= i of the jittered
  // times. An arrival k with a_k + reach <= best cannot raise the max, and
  // neither can any earlier one (arrivals are non-decreasing).
  const auto logged = [&](std::size_t i) {
    double best = -std::numeric_limits<double>::infinity();
    for (std::size_t k = i + 1; k-- > 0;) {
      const Arrival& a = arrivals[k];
      if (a.time + reach <= best) break;
      best = std::max(best, jittered_time(a.time, timestamp_jitter_s, sink_seed, a.packet));
    }
    return best;
  };

  out.bursts.assign(params.bursts, BurstSummary{});
  // Arrivals keep packet order (every element is FIFO), so each burst's
  // arrivals are one contiguous run.
  for (auto first = arrivals.begin(); first != arrivals.end();) {
    const std::uint32_t burst = first->packet / params.burst_length;
    const std::uint32_t next_burst_seq = (burst + 1) * params.burst_length;
    const auto end = std::partition_point(
        first, arrivals.end(), [&](const Arrival& a) { return a.packet < next_burst_seq; });
    const auto last = end - 1;
    BurstSummary& b = out.bursts[burst];
    b.count = static_cast<std::uint32_t>(end - first);
    b.seq_first = first->packet;
    b.seq_last = last->packet;
    b.t_first = logged(static_cast<std::size_t>(first - arrivals.begin()));
    b.t_last = logged(static_cast<std::size_t>(last - arrivals.begin()));
    first = end;
  }
}

}  // namespace choreo::packetsim
