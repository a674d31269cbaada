#pragma once

#include <cstdint>

namespace choreo::packetsim {

/// A simulated UDP probe packet.
struct Packet {
  std::uint64_t flow = 0;       ///< flow identifier
  std::uint64_t seq = 0;        ///< probe sequence number
  std::uint32_t wire_bytes = 0; ///< size on the wire, headers included
  std::uint32_t burst = 0;      ///< packet-train burst index (§3.1)
  double sent_time = 0.0;       ///< emission timestamp at the original source
};

/// Anything that can accept a packet: links, shapers, sinks.
class Element {
 public:
  virtual ~Element() = default;
  /// Delivers `pkt` to this element at simulation time `now`.
  virtual void receive(const Packet& pkt, double now) = 0;
};

}  // namespace choreo::packetsim
