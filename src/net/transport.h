#pragma once

#include <cstdint>
#include <vector>

namespace choreo::net {

/// Fault model of a SimTransport, applied independently to every message
/// from the draw keyed by (seed, message id) — so whether a given message is
/// lost, delayed, or duplicated depends only on its position in the send
/// sequence, never on when (or whether) receivers poll. That keying is what
/// makes fault schedules replayable: the same seed over the same send
/// sequence produces the same loss/delay/duplicate pattern every run.
struct FaultProfile {
  /// Probability a message is silently dropped (never delivered).
  double loss = 0.0;
  /// Probability a duplicate copy is enqueued with its own delay draw — the
  /// copy can arrive in the same cycle or cycles later than the original.
  double duplicate = 0.0;
  /// Delivery delay in whole cycles, uniform in [min, max]. Different draws
  /// for messages in flight are what reorders them: a slow message sent at
  /// cycle c surfaces after a fast one sent at c+1.
  std::uint32_t delay_min_cycles = 0;
  std::uint32_t delay_max_cycles = 0;

  bool lossless_zero_delay() const {
    return loss == 0.0 && duplicate == 0.0 && delay_max_cycles == 0;
  }
};

struct TransportOptions {
  std::uint64_t seed = 1;
  FaultProfile fault;
};

/// A simulated unreliable datagram transport between a fixed set of
/// endpoints, advancing in discrete cycles (the agent plane's measurement
/// cycles). send() applies the fault pipeline and enqueues the surviving
/// copies; receive() drains everything due at the caller's endpoint by the
/// given cycle, ordered by (delivery cycle, send order).
///
/// With the default FaultProfile (lossless, zero delay) every message is
/// delivered exactly once, in send order, in the cycle it was sent — the
/// configuration under which the agent plane is pinned bit-identical to the
/// in-process measurement path.
class SimTransport {
 public:
  using Endpoint = std::uint32_t;
  using Bytes = std::vector<std::uint8_t>;

  struct Delivery {
    Endpoint from = 0;
    Bytes bytes;
  };

  struct Stats {
    std::uint64_t sent = 0;        ///< send() calls
    std::uint64_t delivered = 0;   ///< deliveries handed to receive() callers
    std::uint64_t dropped = 0;     ///< messages lost to the fault pipeline
    std::uint64_t duplicated = 0;  ///< extra copies enqueued
    std::uint64_t delayed = 0;     ///< copies scheduled later than their send cycle
    std::uint64_t bytes_sent = 0;
    std::uint64_t bytes_delivered = 0;
  };

  SimTransport(std::size_t endpoints, TransportOptions options);

  const TransportOptions& options() const { return opts_; }

  /// Sends one message at `cycle`. Faults are drawn here; the message (and
  /// any duplicate) lands in the destination queue with its delivery cycle.
  void send(Endpoint from, Endpoint to, Bytes bytes, std::uint64_t cycle);

  /// Drains every message due at `at` by `cycle` (delivery cycle <= cycle),
  /// ordered by (delivery cycle, send order). Messages scheduled for later
  /// cycles stay queued.
  std::vector<Delivery> receive(Endpoint at, std::uint64_t cycle);

  /// Messages still in flight to `at` (due later than the last receive).
  std::size_t in_flight(Endpoint at) const { return queues_[at].size(); }

  const Stats& stats() const { return stats_; }

 private:
  struct InFlight {
    std::uint64_t deliver_cycle = 0;
    std::uint64_t order = 0;  ///< global send counter: the in-cycle tie-break
    Endpoint from = 0;
    Bytes bytes;
  };

  void enqueue(Endpoint from, Endpoint to, const Bytes& bytes, std::uint64_t cycle,
               std::uint64_t delay);

  TransportOptions opts_;
  std::vector<std::vector<InFlight>> queues_;  ///< per destination endpoint
  std::uint64_t next_msg_ = 0;
  Stats stats_;
};

}  // namespace choreo::net
