#include "packetsim/train_recurrence.h"

#include <algorithm>
#include <limits>

#include "util/require.h"

namespace choreo::packetsim {
namespace {

/// Scheduling instant of an arrival delivered by an emission event. send_train
/// schedules every emission before the queue runs, so an emission fires
/// before any other event at its instant.
constexpr double kEmitted = -std::numeric_limits<double>::infinity();

/// One packet entering (or leaving) an element: when it arrives, when the
/// event delivering it was scheduled, and which packet of the train it is.
struct Arrival {
  double time;
  double scheduled;
  std::uint32_t packet;
};
using Stage = std::vector<Arrival>;

struct Scratch {
  std::vector<double> emission;
  Stage in, out;
  std::vector<double> start;  // service start of each packet a hop accepted
};

/// TokenBucket, replayed: emissions merged with the one pending wake-up, an
/// emission first at a shared instant (its seq is lower). Every refill the
/// event path makes is made here, in the same order, with the same operands.
void shape(const ShaperSpec& spec, std::uint32_t wire, const std::vector<double>& emission,
           Stage& out) {
  constexpr double kByteTolerance = 1e-6;  // as TokenBucket::pump
  const double depth = spec.depth_bytes;
  const double rate = spec.rate_bps;
  double tokens = depth;
  double last_update = 0.0;
  double last_activity = -1.0;
  std::size_t head = 0, tail = 0;  // the bucket's queue: packets [head, tail)
  bool draining = false;
  double wake = 0.0, wake_scheduled = 0.0;

  const auto refill = [&](double now) {
    if (spec.idle_reset_s >= 0.0 && last_activity >= 0.0 &&
        now - last_activity >= spec.idle_reset_s && head == tail) {
      tokens = depth;
    } else {
      tokens = std::min(depth, tokens + rate / 8.0 * (now - last_update));
    }
    last_update = now;
  };
  const auto pump = [&](double now, double scheduled) {
    refill(now);
    last_activity = now;
    while (head < tail && tokens + kByteTolerance >= wire) {
      out.push_back({now, scheduled, static_cast<std::uint32_t>(head)});
      tokens = std::max(0.0, tokens - wire);
      ++head;
    }
    draining = head < tail;
    if (!draining) return;
    const double deficit = wire - tokens;
    const double wait = deficit * 8.0 / rate + 1e-9;
    wake = now + wait;
    wake_scheduled = now;
  };

  std::size_t next = 0;
  while (next < emission.size() || draining) {
    if (draining && (next == emission.size() || wake < emission[next])) {
      pump(wake, wake_scheduled);
      continue;
    }
    const double now = emission[next++];
    refill(now);
    last_activity = now;
    ++tail;
    if (!draining) pump(now, kEmitted);
  }
}

/// One Link: FIFO service at `spec.rate_bps`, drop-tail at
/// `spec.queue_bytes`, delivery `spec.delay_s` after completion. Returns
/// false on a tie it cannot order.
bool forward(const HopSpec& spec, std::size_t hop, std::uint32_t wire, const Stage& in,
             Stage& out, std::vector<double>& start, TrainTies* ties) {
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
    // same instant, whose order against the arrival is the order the two
    // events were scheduled in.
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
        if (in[j].scheduled == start[done]) {
          if (ties) {
            ties->declined = true;
            ties->hop = hop;
            ties->seq = in[j].packet;
            ties->time = arrival;
          }
          return false;
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
  return true;
}

}  // namespace

bool simulate_train(const ShaperSpec& shaper, const std::vector<HopSpec>& hops,
                    const TrainParams& params, RecordingSink& sink, TrainTies* ties) {
  CHOREO_REQUIRE(params.bursts >= 1 && params.burst_length >= 2);
  CHOREO_REQUIRE(params.packet_bytes >= 1);
  CHOREO_REQUIRE(params.line_rate_bps > 0.0);
  CHOREO_REQUIRE(!hops.empty() || shaper.enabled);
  CHOREO_REQUIRE(!shaper.enabled || (shaper.rate_bps > 0.0 && shaper.depth_bytes > 0.0));
  for (const HopSpec& h : hops) {
    CHOREO_REQUIRE(h.rate_bps > 0.0 && h.delay_s >= 0.0 && h.queue_bytes >= 0.0);
  }
  if (ties) *ties = TrainTies{};

  thread_local Scratch s;
  const std::uint32_t wire = params.packet_bytes + params.header_bytes;

  // Emission times: send_train's running sums, term for term.
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
  for (std::size_t h = 0; h < hops.size(); ++h) {
    s.out.clear();
    if (!forward(hops[h], h, wire, s.in, s.out, s.start, ties)) return false;
    std::swap(s.in, s.out);
  }

  for (const Arrival& a : s.in) {
    const std::uint32_t p = a.packet;
    Packet pkt;
    pkt.flow = 1;
    pkt.seq = p;
    pkt.wire_bytes = wire;
    pkt.burst = p / params.burst_length;
    pkt.sent_time = s.emission[p];
    sink.receive(pkt, a.time);
  }
  return true;
}

}  // namespace choreo::packetsim
