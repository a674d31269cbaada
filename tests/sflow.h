#pragma once

#include <cstdint>
#include <vector>

#include "core/profiler.h"
#include "util/rng.h"

namespace choreo::core {

/// §2.1: "Choreo uses a network monitoring tool such as sFlow or tcpdump to
/// gather application communication patterns." sFlow does not see every
/// packet — it samples 1 in N and the collector scales the counts back up.
/// This test-support module emulates that pipeline: given the true
/// task-to-task transfer volumes of a run, it produces the sampled,
/// scaled-back flow records a collector would hand to the Profiler. Only
/// test_sflow and test_integration_loop link it (choreo_test_sflow).
struct SflowConfig {
  /// Packet sampling rate: one sampled packet per `sampling_rate` packets
  /// (sFlow deployments commonly use 1:1024 to 1:8192 on ToR switches).
  std::uint32_t sampling_rate = 1024;
  /// Bytes per sampled frame (MTU-sized for bulk transfers).
  std::uint32_t packet_bytes = 1500;
};

/// One true transfer observed during a run.
struct ObservedTransfer {
  std::size_t src_task = 0;
  std::size_t dst_task = 0;
  double bytes = 0.0;
  double start_s = 0.0;
  double end_s = 0.0;
};

/// Samples the transfers the way an sFlow agent would: each transfer's
/// packet count is thinned binomially at 1/sampling_rate, and each sampled
/// packet becomes a FlowRecord carrying `sampling_rate * packet_bytes`
/// estimated bytes.
///
/// Small flows may produce no samples at all (the classic sFlow blind spot);
/// heavy flows — the ones that matter for placement (§2.1) — are estimated
/// within a few percent.
std::vector<FlowRecord> sflow_sample(const std::vector<ObservedTransfer>& transfers,
                                     const SflowConfig& config, Rng& rng);

/// Convenience: run the whole §2.1 pipeline — sample the observed transfers
/// and fold them into a profiler.
Profiler profile_from_sflow(std::size_t task_count,
                            const std::vector<ObservedTransfer>& transfers,
                            const SflowConfig& config, Rng& rng);

}  // namespace choreo::core
