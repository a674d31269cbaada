#pragma once

#include <cstdint>

namespace choreo::packetsim {

/// Parameters of a §3.1 packet train: K bursts of B back-to-back P-byte UDP
/// packets, bursts separated by delta. Packets of a burst leave back-to-back
/// at the line rate; burst k+1 begins delta after the last packet of burst k
/// is emitted.
struct TrainParams {
  std::uint32_t bursts = 10;          ///< K
  std::uint32_t burst_length = 200;   ///< B, packets per burst
  std::uint32_t packet_bytes = 1472;  ///< P, UDP payload (1500 on the wire)
  double inter_burst_gap_s = 1e-3;    ///< delta
  double line_rate_bps = 10e9;        ///< emission rate of back-to-back packets
  std::uint32_t header_bytes = 28;    ///< IP + UDP headers added on the wire
};

}  // namespace choreo::packetsim
