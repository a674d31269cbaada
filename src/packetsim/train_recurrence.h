#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "packetsim/path.h"
#include "packetsim/sink.h"
#include "packetsim/udp_train.h"

namespace choreo::packetsim {

/// Order-dependent same-instant ties one simulate_train call met: a packet
/// reaching a hop at exactly the instant the hop's in-service packet
/// completes, where the drop decision depends on which event fires first.
/// Ties whose outcome is the same either way are not counted.
struct TrainTies {
  std::uint64_t arrival_first = 0;     ///< resolved: the arrival fired first
  std::uint64_t completion_first = 0;  ///< resolved: the completion fired first
  /// Set when the call declined: both events were scheduled at the same
  /// instant, so their order is not recoverable from times alone.
  bool declined = false;
  std::size_t hop = 0;     ///< 0-based hop of the declined tie
  std::uint64_t seq = 0;   ///< the arriving packet
  double time = 0.0;       ///< the tied instant
};

/// The receiver log of one packet train — exactly what
///
///   EventQueue events;
///   Path path(events, shaper, hops, &sink);
///   send_train(events, path.entry(), params, /*flow_id=*/1, /*start_time=*/0.0);
///   events.run();
///
/// leaves in `sink`, computed by a direct per-packet recurrence instead of
/// the event queue: emission times from send_train's running sums, the token
/// bucket replayed refill for refill against its single pending wake-up, each
/// FIFO hop as completion = (busy ? previous completion : arrival) + transmit
/// time with the drop-tail rule, and the survivors fed to `sink` in order.
/// A train that finds every hop idle at every arrival (the common case for a
/// probe) is carried through all hops in one packet-major pass; the per-hop
/// recurrence runs only for a train that queues, drops or meets a tie.
///
/// Returns false, leaving `sink` untouched, when the train meets a
/// same-instant arrival/completion tie whose two events were scheduled at
/// the same instant too; the caller then runs the event path above. `ties`
/// (optional) receives the order-dependent ties met. Scratch buffers are per
/// thread, so concurrent calls are safe and warm calls allocate nothing
/// beyond what `sink` grows.
bool simulate_train(const ShaperSpec& shaper, const std::vector<HopSpec>& hops,
                    const TrainParams& params, RecordingSink& sink,
                    TrainTies* ties = nullptr);

/// The same train, summarized: leaves in `out` exactly
/// summarize(sink.records(), params) for the RecordingSink(timestamp_jitter_s,
/// sink_seed) the overload above would fill, without building that log.
///
/// A logged time is the prefix maximum r_i = max over k <= i of the jittered
/// arrival times a_k + J(seq_k). The tandem's arrivals are non-decreasing and
/// |J| < kJitterBoundSigmas * sigma, so r_i at a burst's first and last
/// arrival needs only the jitters of arrivals k walking back from i while
/// a_k + kJitterBoundSigmas * sigma exceeds the best time seen: a few per
/// burst end instead of one per packet.
///
/// Returns false, leaving `out` untouched, on the same declined ties as the
/// overload above. Warm calls into a reused `out` allocate nothing.
bool simulate_train(const ShaperSpec& shaper, const std::vector<HopSpec>& hops,
                    const TrainParams& params, double timestamp_jitter_s,
                    std::uint64_t sink_seed, TrainSummary& out, TrainTies* ties = nullptr);

}  // namespace choreo::packetsim
