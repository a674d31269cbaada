#pragma once

#include <vector>

#include "packetsim/sink.h"
#include "packetsim/udp_train.h"

namespace choreo::measure {

/// Result of estimating path throughput from one received packet train.
struct TrainEstimate {
  double throughput_bps = 0.0;   ///< the §3.1 combined estimator
  double rate_term_bps = 0.0;    ///< P*(N-1)*(1-l)/T term
  double mathis_term_bps = 0.0;  ///< MSS*C/(RTT*sqrt(l)) term (inf when l=0)
  double loss_rate = 0.0;        ///< l, from sequence numbers
  std::size_t packets_received = 0;
  std::size_t bursts_used = 0;   ///< bursts with at least two packets
};

/// Implements the §3.1 estimator over the receiver's SO_TIMESTAMPNS log,
/// reduced to what it reads of each burst (packetsim::TrainSummary):
///
///   * per burst i: n_i received packets, t_i = time from first to last
///     packet of the burst; if head/tail packets were lost, t_i is scaled to
///     what it "should have been" using the average per-packet time;
///   * rate term: 8 * P * sum(n_i) / sum(t_i);
///   * loss term: MSS * C / (RTT * sqrt(l)), C = sqrt(3/2) [Mathis et al.];
///   * estimate: min of the two (the Mathis term is an upper bound that is
///     only informative when loss is non-negligible).
///
/// A full receiver log goes through packetsim::summarize first.
TrainEstimate estimate_train_throughput(const packetsim::TrainSummary& summary,
                                        const packetsim::TrainParams& params, double rtt_s);

/// Wall-clock duration of sending one train (emission time, ignoring path
/// latency): used for measurement-overhead accounting (§4.1 "an individual
/// train takes less than one second to send").
double train_duration_s(const packetsim::TrainParams& params);

}  // namespace choreo::measure
