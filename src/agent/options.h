#pragma once

#include <cstdint>

#include "net/transport.h"

namespace choreo::agent {

/// Endpoint layout on the agent plane's SimTransport: the ClusterAgent is
/// endpoint 0, host agent i is endpoint i + 1.
inline constexpr net::SimTransport::Endpoint kClusterEndpoint = 0;

inline net::SimTransport::Endpoint endpoint_of(std::uint32_t agent_id) {
  return agent_id + 1;
}

/// Configuration of the distributed agent plane. The defaults (lossless
/// zero-delay transport, unlimited report budget, no crashes) are exactly
/// the configuration pinned bit-identical to the in-process measurement
/// path; every knob here moves away from that oracle.
struct AgentOptions {
  /// Master switch: when false the controller measures in-process as before.
  bool enabled = false;

  /// Transport fault injection (loss / delay / duplicate), seed-keyed.
  net::TransportOptions transport;

  /// Report budget: at most this many samples per StatsReport and this many
  /// fresh reports per agent per cycle (0 = unlimited). Samples over budget
  /// queue at the agent and drain in later cycles — the controller sees them
  /// late, stamped with their true measurement epoch.
  std::size_t max_samples_per_report = 0;
  std::size_t max_reports_per_cycle = 0;

  /// Sender-side reliability: a report is retransmitted when unacked for
  /// `retry_timeout_cycles`, backing off exponentially (timeout * 2^attempt)
  /// up to six doublings.
  std::uint64_t retry_timeout_cycles = 1;

  /// Crash injection: each live agent crashes with `crash_rate` probability
  /// per cycle (seed-keyed by (crash_seed, cycle, agent)), loses all
  /// volatile state (sample queue, unacked reports, inbox) but not its
  /// Stats, and restarts after `down_cycles` with a bumped generation +
  /// Hello re-sync.
  double crash_rate = 0.0;
  std::uint64_t down_cycles = 2;
  std::uint64_t crash_seed = 1;
};

}  // namespace choreo::agent
