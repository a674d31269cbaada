#pragma once

#include <algorithm>
#include <compare>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <memory>
#include <vector>

#include "packetsim/sink.h"
#include "packetsim/train_recurrence.h"
#include "packetsim/udp_train.h"
#include "util/require.h"

namespace choreo::packetsim {

// The event-driven packet-level simulator: every packet pushed through an
// EventQueue, element by element. packetsim::simulate_train computes the
// same receiver log by a direct per-packet recurrence; this is its
// differential oracle (test_train_recurrence compares them record for
// record) and the baseline micro_packetsim times it against.

/// Orders the events that fire at one instant, whatever order they were
/// inserted in: the earlier scheduling instant first, then a completion
/// before an arrival, then the lower hop, then the lower packet.
struct EventKey {
  enum Class : std::uint8_t { kCompletion, kArrival };

  double scheduled = 0.0;  ///< when the event was scheduled (-inf: an emission)
  Class cls = kArrival;
  std::uint32_t hop = 0;     ///< the hop the event completes at or delivers into
  std::uint64_t packet = 0;  ///< the packet it carries

  std::partial_ordering operator<=>(const EventKey&) const = default;
};

/// Discrete-event scheduler at the heart of the packet-level simulator.
///
/// Events fire in (time, key) order, so simulations are fully deterministic
/// and do not depend on the order events were scheduled in.
class EventQueue {
 public:
  using Callback = std::function<void()>;

  void schedule(double time, const EventKey& key, Callback fn) {
    CHOREO_REQUIRE(time >= now_);
    heap_.push_back(Entry{time, key, std::move(fn)});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
  }

  double now() const { return now_; }

  /// Executes the next event; returns false when the queue is empty.
  bool step() {
    if (heap_.empty()) return false;
    // Move the entry out before calling it so that callbacks may schedule.
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    Entry e = std::move(heap_.back());
    heap_.pop_back();
    now_ = e.time;
    e.fn();
    return true;
  }

  /// Runs events with time <= t_end, then advances the clock to t_end.
  void run_until(double t_end) {
    CHOREO_REQUIRE(t_end >= now_);
    while (!heap_.empty() && heap_.front().time <= t_end) step();
    now_ = t_end;
  }

  /// Drains the queue completely (the simulation must terminate naturally).
  void run() {
    while (step()) {
    }
  }

 private:
  struct Entry {
    double time;
    EventKey key;
    Callback fn;
  };
  /// Heap order: the earliest (time, key) on top. A packet train never has
  /// two pending events with one key, so the order is total there.
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.time != b.time) return a.time > b.time;
      return b.key < a.key;
    }
  };
  std::vector<Entry> heap_;
  double now_ = 0.0;
};

/// A simulated UDP probe packet.
struct Packet {
  std::uint64_t flow = 0;       ///< flow identifier
  std::uint64_t seq = 0;        ///< probe sequence number
  std::uint32_t wire_bytes = 0; ///< size on the wire, headers included
  std::uint32_t burst = 0;      ///< packet-train burst index (§3.1)
  double sent_time = 0.0;       ///< emission timestamp at the original source
};

/// Anything that can accept a packet: links, shapers, receivers.
class Element {
 public:
  virtual ~Element() = default;
  /// Delivers `pkt` to this element at simulation time `now`.
  virtual void receive(const Packet& pkt, double now) = 0;
};

/// The end of an event path: logs every packet it is handed, at the instant
/// it arrives, into a RecordingSink.
class Receiver : public Element {
 public:
  Receiver() = default;
  Receiver(double timestamp_jitter_s, std::uint64_t seed) : log_(timestamp_jitter_s, seed) {}

  void receive(const Packet& pkt, double now) override {
    log_.receive({pkt.flow, pkt.seq, pkt.burst, pkt.wire_bytes, now});
  }

  const std::vector<RecordingSink::Record>& records() const { return log_.records(); }
  std::size_t count() const { return log_.count(); }
  void clear() { log_.clear(); }

 private:
  RecordingSink log_;
};

/// A store-and-forward link: FIFO drop-tail queue, fixed service rate,
/// fixed propagation delay. Multiple upstream elements may feed one link;
/// contention happens naturally in the queue. `hop` is the link's 0-based
/// position on its path: it keys the link's events (EventKey), so a
/// completion here and a delivery into the next hop order by position.
class Link : public Element {
 public:
  /// `queue_bytes` bounds the drop-tail buffer, including the packet
  /// currently in service. `next` must outlive the link.
  Link(EventQueue& events, std::uint32_t hop, double rate_bps, double delay_s,
       double queue_bytes, Element* next);

  void receive(const Packet& pkt, double now) override;

  std::uint64_t drops() const { return drops_; }
  double rate_bps() const { return rate_bps_; }

 private:
  void start_service(double now);

  EventQueue& events_;
  std::uint32_t hop_;
  double rate_bps_;
  double delay_s_;
  double queue_limit_bytes_;
  Element* next_;

  std::deque<Packet> queue_;
  double queued_bytes_ = 0.0;
  bool busy_ = false;
  std::uint64_t drops_ = 0;
};

/// Token-bucket traffic shaper (ShaperSpec) as GCRA virtual scheduling
/// (ITU-T I.371). A packet of `w` wire bytes arriving at `now` leaves at
/// d = max(now, previous d, V - (depth - w)*8/rate), then
/// V <- max(V, d) + w*8/rate: a full bucket is V <= now, and V - now is
/// how many seconds of refill the bucket is short of full. An arrival
/// `idle_reset_s` or more after the previous departure first sets V <- now
/// (negative: never). A packet leaving at `now` passes at once; any other
/// is released by an event scheduled at its arrival, keyed as an arrival
/// into hop 0. A held packet leaves the bucket empty, so the next departure
/// is strictly later: passing at once never overtakes a held packet.
class TokenBucket : public Element {
 public:
  TokenBucket(EventQueue& events, double rate_bps, double depth_bytes, Element* next,
              double idle_reset_s = -1.0);

  /// Requires `pkt` to fit the bucket: wire bytes <= depth.
  void receive(const Packet& pkt, double now) override;

 private:
  EventQueue& events_;
  double rate_bps_;
  double depth_bytes_;
  Element* next_;
  double idle_reset_s_;

  double tat_ = -std::numeric_limits<double>::infinity();  ///< V, the theoretical arrival time
  double departure_ = -std::numeric_limits<double>::infinity();  ///< the last packet's d
};

/// Owns a linear chain of elements modelling one VM-to-VM direction:
///
///   entry -> [token-bucket shaper] -> hop_1 -> ... -> hop_n -> terminal
///
/// The terminal element is supplied by the caller (a Receiver for probe
/// trains). Hops expose their Link objects for inspection.
class Path {
 public:
  Path(EventQueue& events, const ShaperSpec& shaper, const std::vector<HopSpec>& hops,
       Element* terminal);

  /// First element of the chain; feed packets here.
  Element& entry();

  /// The i-th hop's link (0-based).
  Link& hop(std::size_t i);
  std::size_t hop_count() const { return links_.size(); }

 private:
  std::vector<std::unique_ptr<Link>> links_;  // stored last-to-first
  std::unique_ptr<TokenBucket> shaper_;
  Element* entry_ = nullptr;
};

/// Emits one packet train into `first`, starting at `start_time`. Packets of
/// a burst leave back-to-back at the line rate; burst k+1 begins
/// `inter_burst_gap_s` after the last packet of burst k is emitted.
///
/// Returns the time the final packet is emitted.
double send_train(EventQueue& events, Element& first, const TrainParams& params,
                  std::uint64_t flow_id, double start_time);

}  // namespace choreo::packetsim
