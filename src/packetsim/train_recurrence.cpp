#include "packetsim/train_recurrence.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "util/require.h"

namespace choreo::packetsim {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Scheduling instant of an arrival delivered by an emission event: every
/// emission is scheduled before the train starts, so it fires before any
/// other event at its instant.
constexpr double kEmitted = -kInf;

/// One packet entering (or leaving) an element: when it arrives, when the
/// event delivering it was scheduled, and which packet of the train it is.
struct Arrival {
  double time;
  double scheduled;
  std::uint32_t packet;
};
using Stage = std::vector<Arrival>;

struct Scratch {
  std::vector<double> emission;   // packet k's emission, at index k
  std::vector<double> departure;  // packet k's departure from the bucket (its emission if unshaped)
  std::vector<double> tx;         // each hop's transmit time
  Stage in, out;
  std::vector<double> start;  // service start of each packet a hop accepted
};

Scratch& scratch() {
  thread_local Scratch s;
  return s;
}

/// At least the ulp of every double in [0, x], for an `x` computed with
/// roundings that may leave it a little short of the value it bounds.
double ulp_up_to(double x) {
  const double top = 2.0 * x;
  return std::nextafter(top, kInf) - top;
}

/// Emits the train and runs it through the token bucket: leaves packet k's
/// emission and departure at index k of `s.emission` and `s.departure`,
/// and returns the smallest gap between consecutive departures.
///
/// Emissions are the oracle's send_train running sums, term for term. The
/// bucket is ShaperSpec's GCRA recurrence, the oracle's TokenBucket, in a
/// form that leaves the same doubles with fewer operations on each packet's
/// critical path. Emissions never decrease and tolerance >= 0, so, exactly
/// in IEEE arithmetic (rounding is monotone, and x - tolerance <= x <=
/// x + increment):
///   * d_k = max(e_k, V - tolerance). The previous departure is never the
///     largest term: it is an emission, at most e_k, or a V' - tolerance
///     with V' <= V, since V only grows until a reset, and a reset needs
///     e_k >= d_{k-1};
///   * V <- max(V, e_k) + increment, since d_k <= max(e_k, V).
/// So V is the only loop-carried value: one max and one add per packet.
/// The idle reset needs e_k - d_{k-1} >= idle_reset_s, and inside a burst
/// e_k - d_{k-1} <= e_k - e_{k-1}, the line-rate spacing up to the running
/// sum's rounding. When the spacing plus that rounding is below
/// idle_reset_s, the reset test runs only at burst starts.
double emit_and_shape(const ShaperSpec& spec, const TrainParams& params, std::uint32_t wire,
                      Scratch& s) {
  const double spacing = static_cast<double>(wire) * 8.0 / params.line_rate_bps;
  const std::size_t packets = std::size_t{params.bursts} * params.burst_length;
  const bool shaped = spec.enabled;
  const double increment = shaped ? static_cast<double>(wire) * 8.0 / spec.rate_bps : 0.0;
  const double tolerance = shaped ? (spec.depth_bytes - wire) * 8.0 / spec.rate_bps : 0.0;
  const bool resets = shaped && spec.idle_reset_s >= 0.0;
  // Every emission and every gap between two is at most `horizon`, so each
  // of the running sum's roundings and each gap's is at most ulp / 2: a gap
  // inside a burst rounds to at most spacing + ulp.
  const double horizon = static_cast<double>(packets) * spacing +
                         static_cast<double>(params.bursts) * params.inter_burst_gap_s;
  const bool reset_in_bursts = resets && !(spacing + 2.0 * ulp_up_to(horizon) < spec.idle_reset_s);

  s.emission.resize(packets);
  s.departure.resize(packets);
  double* emission = s.emission.data();
  double* departure = s.departure.data();
  std::size_t k = 0;
  double t = 0.0;
  double v = -kInf;  // a full bucket
  double d = -kInf;  // the previous departure
  double min_gap = kInf;
  const auto emit = [&](bool reset_test) {
    const double e = t;
    t += spacing;
    double next = e;
    if (shaped) {
      if (reset_test && e - d >= spec.idle_reset_s) v = e;
      next = std::max(e, v - tolerance);
      v = std::max(v, e) + increment;
    }
    min_gap = std::min(min_gap, next - d);
    d = next;
    emission[k] = e;
    departure[k] = d;
    ++k;
  };
  for (std::uint32_t b = 0; b < params.bursts; ++b) {
    emit(resets);
    if (reset_in_bursts) {
      for (std::uint32_t i = 1; i < params.burst_length; ++i) emit(true);
    } else {
      for (std::uint32_t i = 1; i < params.burst_length; ++i) emit(false);
    }
    t += params.inter_burst_gap_s;
  }
  return min_gap;
}

/// Whether every packet finds every hop idle, its last completion strictly
/// before the packet's arrival, shown from the departures alone. Fills
/// `tx` with each hop's transmit time.
///
/// On idle hops each packet's arrival at a hop is its departure plus the
/// same transmit times and delays, so in exact arithmetic the departure gaps
/// reach every hop unchanged, and a smallest gap above the largest transmit
/// time shows each hop idle. In floating point each hop rounds a packet's
/// completion and its delivery, moving a gap by at most 2 ulps of the
/// largest time the train reaches; the margin adds 2 more for the rounding
/// of the gap itself and of the completion it is compared against.
/// Nothing drops at an idle hop.
bool hops_stay_idle(const std::vector<HopSpec>& hops, std::uint32_t wire, double min_gap,
                    double last_departure, std::vector<double>& tx) {
  tx.clear();
  double largest_tx = 0.0;
  double horizon = last_departure;
  for (const HopSpec& h : hops) {
    tx.push_back(static_cast<double>(wire) * 8.0 / h.rate_bps);
    largest_tx = std::max(largest_tx, tx.back());
    horizon += tx.back() + h.delay_s;
  }
  if (hops.empty()) return true;
  const double margin = 2.0 * static_cast<double>(hops.size() + 1) * ulp_up_to(horizon);
  return min_gap > largest_tx + margin;
}

/// A packet leaving the bucket at `t`, carried through hops that are all
/// idle at its arrival, with the operands forward() uses on an idle hop:
/// completion = arrival + transmit time, delivery = completion + delay.
double through_idle_hops(const std::vector<HopSpec>& hops, const std::vector<double>& tx,
                         double t) {
  for (std::size_t h = 0; h < hops.size(); ++h) t = (t + tx[h]) + hops[h].delay_s;
  return t;
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

/// Runs `params` through the tandem. Returns true when hops_stay_idle()
/// holds: nothing drops, and packet k reaches the receiver at
/// through_idle_hops(hops, s.tx, s.departure[k]). Otherwise runs the
/// per-hop recurrence and leaves the receiver's arrivals, in order, in
/// `s.in`.
bool run_tandem(const ShaperSpec& shaper, const std::vector<HopSpec>& hops,
                const TrainParams& params, Scratch& s, TrainTies* ties) {
  CHOREO_REQUIRE(params.bursts >= 1 && params.burst_length >= 2);
  CHOREO_REQUIRE(params.packet_bytes >= 1);
  CHOREO_REQUIRE(params.line_rate_bps > 0.0 && params.inter_burst_gap_s >= 0.0);
  CHOREO_REQUIRE(!hops.empty() || shaper.enabled);
  const std::uint32_t wire = params.packet_bytes + params.header_bytes;
  CHOREO_REQUIRE(!shaper.enabled || (shaper.rate_bps > 0.0 && shaper.depth_bytes >= wire));
  for (const HopSpec& h : hops) {
    CHOREO_REQUIRE(h.rate_bps > 0.0 && h.delay_s >= 0.0 && h.queue_bytes >= 0.0);
  }
  if (ties) *ties = TrainTies{};

  const double min_gap = emit_and_shape(shaper, params, wire, s);
  if (hops_stay_idle(hops, wire, min_gap, s.departure.back(), s.tx)) return true;
  // A train that may queue, drop or meet a tie takes the per-hop
  // recurrence. A packet that leaves the bucket at its emission passes
  // inside the emission event; any other is released by an event
  // scheduled at its emission.
  s.in.clear();
  for (std::size_t k = 0; k < s.departure.size(); ++k) {
    const double d = s.departure[k];
    const double e = s.emission[k];
    s.in.push_back({d, d == e ? kEmitted : e, static_cast<std::uint32_t>(k)});
  }
  for (const HopSpec& hop : hops) {
    s.out.clear();
    forward(hop, wire, s.in, s.out, s.start, ties);
    std::swap(s.in, s.out);
  }
  return false;
}

}  // namespace

void simulate_train(const ShaperSpec& shaper, const std::vector<HopSpec>& hops,
                    const TrainParams& params, RecordingSink& sink, TrainTies* ties) {
  Scratch& s = scratch();
  const std::uint32_t wire = params.packet_bytes + params.header_bytes;
  const auto deliver = [&](std::uint32_t packet, double time) {
    sink.receive({/*flow=*/1, packet, packet / params.burst_length, wire, time});
  };
  if (run_tandem(shaper, hops, params, s, ties)) {
    for (std::size_t k = 0; k < s.departure.size(); ++k) {
      deliver(static_cast<std::uint32_t>(k), through_idle_hops(hops, s.tx, s.departure[k]));
    }
    return;
  }
  for (const Arrival& a : s.in) deliver(a.packet, a.time);
}

void simulate_train(const ShaperSpec& shaper, const std::vector<HopSpec>& hops,
                    const TrainParams& params, double timestamp_jitter_s,
                    std::uint64_t sink_seed, TrainSummary& out, TrainTies* ties) {
  Scratch& s = scratch();
  const bool idle = run_tandem(shaper, hops, params, s, ties);
  // No jittered time exceeds its arrival by more than `reach` — in floating
  // point too, since a + jitter_s * z rounds monotonically in z.
  const double reach = timestamp_jitter_s > 0.0 ? timestamp_jitter_s * kJitterBoundSigmas : 0.0;
  // The sink's logged time of the receiver's i-th arrival, max over k <= i
  // of the jittered times; `at(k)` is the k-th arrival. An arrival k with
  // a_k + reach <= best cannot raise the max, and neither can any earlier
  // one (arrivals are non-decreasing).
  const auto logged = [&](std::size_t i, const auto& at) {
    double best = -kInf;
    for (std::size_t k = i + 1; k-- > 0;) {
      const Arrival a = at(k);
      if (a.time + reach <= best) break;
      best = std::max(best, jittered_time(a.time, timestamp_jitter_s, sink_seed, a.packet));
    }
    return best;
  };

  out.bursts.assign(params.bursts, BurstSummary{});
  if (idle) {
    // Every packet arrives, in packet order: only the packets logged()
    // walks back over are carried through the hops.
    const auto at = [&](std::size_t k) {
      return Arrival{through_idle_hops(hops, s.tx, s.departure[k]), 0.0,
                     static_cast<std::uint32_t>(k)};
    };
    for (std::uint32_t burst = 0; burst < params.bursts; ++burst) {
      const std::size_t first = std::size_t{burst} * params.burst_length;
      const std::size_t last = first + params.burst_length - 1;
      out.bursts[burst] = {params.burst_length, first, last, logged(first, at), logged(last, at)};
    }
    return;
  }
  const Stage& arrivals = s.in;
  const auto at = [&](std::size_t k) { return arrivals[k]; };
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
    b.t_first = logged(static_cast<std::size_t>(first - arrivals.begin()), at);
    b.t_last = logged(static_cast<std::size_t>(last - arrivals.begin()), at);
    first = end;
  }
}

}  // namespace choreo::packetsim
