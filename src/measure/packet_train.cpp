#include "measure/packet_train.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/require.h"

namespace choreo::measure {

double train_duration_s(const packetsim::TrainParams& p) {
  const double wire = p.packet_bytes + p.header_bytes;
  const double burst_s = static_cast<double>(p.burst_length) * wire * 8.0 / p.line_rate_bps;
  return p.bursts * burst_s + (p.bursts - 1) * p.inter_burst_gap_s;
}

TrainEstimate estimate_train_throughput(const packetsim::TrainSummary& summary,
                                        const packetsim::TrainParams& params, double rtt_s) {
  CHOREO_REQUIRE(rtt_s > 0.0);
  CHOREO_REQUIRE(summary.bursts.size() == params.bursts);
  TrainEstimate out;
  out.packets_received = summary.received();
  if (out.packets_received == 0) return out;

  const std::uint32_t B = params.burst_length;
  const double P = params.packet_bytes;

  double sum_n = 0.0;
  double sum_t = 0.0;
  for (std::uint32_t k = 0; k < params.bursts; ++k) {
    const packetsim::BurstSummary& b = summary.bursts[k];
    if (b.count < 2) continue;  // nothing to time
    ++out.bursts_used;
    double t = b.t_last - b.t_first;
    // Head/tail loss adjustment (§3.1): scale the observed span to the full
    // burst using the average per-packet time over the span we did see.
    const std::uint64_t burst_start = static_cast<std::uint64_t>(k) * B;
    const std::uint64_t span = b.seq_last - b.seq_first;  // packets-1 across span
    if (span > 0 && (b.seq_first != burst_start || b.seq_last != burst_start + B - 1)) {
      t = t * static_cast<double>(B - 1) / static_cast<double>(span);
    }
    sum_n += static_cast<double>(b.count);
    sum_t += t;
  }
  if (sum_t <= 0.0) return out;

  out.loss_rate =
      1.0 - static_cast<double>(out.packets_received) /
                (static_cast<double>(params.bursts) * static_cast<double>(B));
  out.loss_rate = std::max(0.0, out.loss_rate);

  // Rate term: the estimator in §3.1 is P*sum(n_i)/sum(t_i), equivalently
  // P*(N-1)*(1-l)/T over the whole train.
  out.rate_term_bps = 8.0 * P * sum_n / sum_t;

  if (out.loss_rate > 0.0) {
    constexpr double kMathisC = 1.224744871391589;  // sqrt(3/2)
    out.mathis_term_bps = 8.0 * P * kMathisC / (rtt_s * std::sqrt(out.loss_rate));
  } else {
    out.mathis_term_bps = std::numeric_limits<double>::infinity();
  }
  out.throughput_bps = std::min(out.rate_term_bps, out.mathis_term_bps);
  return out;
}

}  // namespace choreo::measure
