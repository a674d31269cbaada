#pragma once

#include <cstdint>
#include <vector>

#include "packetsim/sink.h"
#include "packetsim/udp_train.h"

namespace choreo::packetsim {

/// Description of one hop of a unidirectional path: a FIFO drop-tail link.
struct HopSpec {
  double rate_bps = 1e9;
  double delay_s = 20e-6;
  double queue_bytes = 512 * 1024;  ///< drop-tail bound, the packet in service included
};

/// Description of the source-side token-bucket rate limiter (hose
/// enforcement, §4.3). Tokens (bytes) refill at `rate_bps` up to
/// `depth_bytes`; a packet passes at once if the bucket holds its wire
/// bytes, otherwise it waits in FIFO order. The bucket is defined in closed
/// form, as GCRA virtual scheduling (ITU-T I.371): a packet of w wire bytes
/// emitted at e leaves at d = max(e, previous d, V - (depth - w)*8/rate),
/// then V <- max(V, d) + w*8/rate, with V = -inf (a full bucket) at the
/// start. The depth must hold one packet. It is the burst allowance, and it
/// is the knob behind Fig 6's asymmetry:
///
///   * a *shallow* bucket (EC2-like) forces even short packet trains down to
///     the token rate, so 10x200-packet trains are already accurate;
///   * a *deep* bucket (Rackspace-like) lets bursts much smaller than the
///     depth through at line rate, so trains must be >= ~2000 packets before
///     they observe the enforced 300 Mbit/s.
///
/// `idle_reset_s` models credit-style hypervisor limiters that restore the
/// full burst allowance after a short idle period (>= the inter-burst gap
/// delta of §3.1): an emission at least that long after the previous
/// departure first sets V <- e. Set it negative for a classic
/// continuously-refilling bucket.
///
/// simulate_train computes this definition through two identities that
/// hold exactly in IEEE arithmetic, because emissions and departures never
/// decrease and the tolerance (depth - w)*8/rate is >= 0:
/// d = max(e, V - tolerance) and V <- max(V, e) + w*8/rate. Only V carries
/// from packet to packet. Since a reset needs e - previous d >= idle_reset_s,
/// and inside a burst that gap is at most the line-rate spacing (up to the
/// emission sums' rounding), the reset test runs only at burst starts when
/// the spacing plus that rounding is below `idle_reset_s`.
struct ShaperSpec {
  bool enabled = true;
  double rate_bps = 1e9;
  double depth_bytes = 30e3;
  double idle_reset_s = -1.0;
};

/// Order-dependent same-instant ties one simulate_train call met: a packet
/// reaching a hop at exactly the instant the hop's in-service packet
/// completes, where the drop decision depends on which event fires first.
/// Ties whose outcome is the same either way are not counted.
struct TrainTies {
  std::uint64_t arrival_first = 0;     ///< resolved: the arrival fired first
  std::uint64_t completion_first = 0;  ///< resolved: the completion fired first
};

/// The receiver log of one packet train through `shaper` (if enabled), then
/// `hops` in order, into `sink`: exactly what the event-driven simulator
/// (the differential oracle in oracles/event_train.h) leaves there, computed
/// by a direct per-packet recurrence instead of an event queue. Emission
/// times are the train's running sums, the token bucket is ShaperSpec's
/// GCRA recurrence, one max and one add per packet on the critical path,
/// each FIFO hop is completion = (busy ? previous completion : arrival) +
/// transmit time with the drop-tail rule, and the survivors are fed to
/// `sink` in order.
///
/// Most probe trains find every hop idle at every arrival. A certificate
/// shows this from the bucket's departures alone: every gap between two
/// consecutive departures exceeds the largest hop transmit time by a margin
/// of 2 ulps per hop, plus 2, of the largest time the train reaches. That
/// margin covers each hop's rounding of a completion and a delivery. A
/// train that passes drops nothing, and each packet reaches the receiver at
/// its departure plus each hop's transmit time and delay, in hop order. A
/// train that fails takes the per-hop recurrence, which also handles
/// queueing, drops and ties.
///
/// A same-instant arrival/completion tie goes the oracle's event-key way:
/// the event scheduled earlier fires first, and a completion fires first
/// when both were scheduled at one instant. `ties` (optional) receives the
/// order-dependent ties met. Scratch buffers are per thread, so concurrent
/// calls are safe and warm calls allocate nothing beyond what `sink` grows.
void simulate_train(const ShaperSpec& shaper, const std::vector<HopSpec>& hops,
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
/// burst end instead of one per packet. A train that passes the idle-hop
/// certificate keeps every packet, so each burst's count and seqs are known
/// without carrying it through the hops, and only the packets that walk
/// visits are carried: about 8 per burst end at the profiles' jitter.
///
/// Warm calls into a reused `out` allocate nothing.
void simulate_train(const ShaperSpec& shaper, const std::vector<HopSpec>& hops,
                    const TrainParams& params, double timestamp_jitter_s,
                    std::uint64_t sink_seed, TrainSummary& out, TrainTies* ties = nullptr);

}  // namespace choreo::packetsim
