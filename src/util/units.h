#pragma once

#include <cstdint>

/// Unit conventions used throughout the library:
///   * time:       double, seconds
///   * bandwidth:  double, bits per second
///   * data size:  double (flow-level) or std::uint64_t (packet-level), bytes
namespace choreo::units {

inline constexpr double kKilo = 1e3;
inline constexpr double kMega = 1e6;
inline constexpr double kGiga = 1e9;

/// Bits per second from Mbit/s.
constexpr double mbps(double v) { return v * kMega; }
/// Bits per second from Gbit/s.
constexpr double gbps(double v) { return v * kGiga; }
/// Bits per second to Mbit/s (for reporting).
constexpr double to_mbps(double bits_per_sec) { return bits_per_sec / kMega; }

/// Bytes from kibi/mebi/gibi sizes (we use powers of ten, matching the paper's
/// Mbit/s figures and netperf's conventions).
constexpr double megabytes(double v) { return v * 1e6; }
constexpr double gigabytes(double v) { return v * 1e9; }

/// Seconds from milli/microseconds.
constexpr double millis(double v) { return v * 1e-3; }
constexpr double minutes(double v) { return v * 60.0; }

/// Time to transmit `bytes` at `rate_bps` (seconds).
constexpr double transmit_time(double bytes, double rate_bps) {
  return bytes * 8.0 / rate_bps;
}

}  // namespace choreo::units
