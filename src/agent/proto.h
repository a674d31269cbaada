#pragma once

#include <cstdint>
#include <optional>
#include <vector>

namespace choreo::agent::proto {

using Bytes = std::vector<std::uint8_t>;

/// Wire format: a fixed header {magic, version, type, count} followed by the
/// message's scalar fields and `count` repeated POD entries, every scalar
/// little-endian. decode() rejects anything with a wrong magic or version, an
/// unknown type, or a length that does not match the declared count — a
/// corrupted or truncated datagram yields nullopt, never a partial message.
inline constexpr std::uint32_t kMagic = 0x43414750;  // "CAGP"
inline constexpr std::uint16_t kVersion = 1;

enum class MsgType : std::uint16_t {
  kProbeRequest = 1,  ///< cluster -> host: probe these pairs this cycle
  kStatsReport = 2,   ///< host -> cluster: measured rate samples
  kAck = 3,           ///< cluster -> host: StatsReport (generation, seq) received
  kHello = 4,         ///< host -> cluster: (re)announce after a restart
  kHelloAck = 5,      ///< cluster -> host: Hello received, resync scheduled
};

/// One probe directive: measure pair (src, dst) against the cross-traffic
/// snapshot of (request epoch, round). Carrying the round keeps the
/// distributed probes keyed exactly like the central ProbeScheduler's.
struct ProbeDirective {
  std::uint32_t src = 0;
  std::uint32_t dst = 0;
  std::uint32_t round = 0;

  friend bool operator==(const ProbeDirective& a, const ProbeDirective& b) {
    return a.src == b.src && a.dst == b.dst && a.round == b.round;
  }
};

struct RateSample {
  std::uint32_t src = 0;
  std::uint32_t dst = 0;
  std::uint64_t epoch = 0;  ///< measurement epoch the sample was taken at
  double rate_bps = 0.0;

  friend bool operator==(const RateSample& a, const RateSample& b) {
    return a.src == b.src && a.dst == b.dst && a.epoch == b.epoch &&
           a.rate_bps == b.rate_bps;
  }
};

struct ProbeRequest {
  std::uint32_t agent = 0;
  std::uint64_t epoch = 0;
  std::vector<ProbeDirective> probes;
};

struct StatsReport {
  std::uint32_t agent = 0;
  std::uint32_t generation = 0;  ///< bumped on every agent restart
  std::uint32_t seq = 0;         ///< per-generation report sequence number
  std::vector<RateSample> samples;
};

struct Ack {
  std::uint32_t agent = 0;
  std::uint32_t generation = 0;
  std::uint32_t seq = 0;
};

struct Hello {
  std::uint32_t agent = 0;
  std::uint32_t generation = 0;
};

struct HelloAck {
  std::uint32_t agent = 0;
  std::uint32_t generation = 0;
};

/// A decoded message: `type` selects which member is meaningful.
struct Message {
  MsgType type = MsgType::kProbeRequest;
  ProbeRequest probe_request;
  StatsReport stats_report;
  Ack ack;
  Hello hello;
  HelloAck hello_ack;
};

Bytes encode(const ProbeRequest& msg);
Bytes encode(const StatsReport& msg);
Bytes encode(const Ack& msg);
Bytes encode(const Hello& msg);
Bytes encode(const HelloAck& msg);

std::optional<Message> decode(const Bytes& bytes);

}  // namespace choreo::agent::proto
