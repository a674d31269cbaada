#include "sflow.h"

#include <algorithm>
#include <cmath>

#include "util/require.h"

namespace choreo::core {

std::vector<FlowRecord> sflow_sample(const std::vector<ObservedTransfer>& transfers,
                                     const SflowConfig& config, Rng& rng) {
  CHOREO_REQUIRE(config.sampling_rate >= 1);
  CHOREO_REQUIRE(config.packet_bytes >= 1);
  std::vector<FlowRecord> records;
  const double p = 1.0 / static_cast<double>(config.sampling_rate);
  const double scaled_bytes =
      static_cast<double>(config.sampling_rate) * config.packet_bytes;

  for (const ObservedTransfer& tr : transfers) {
    CHOREO_REQUIRE(tr.bytes >= 0.0);
    const auto packets = static_cast<std::uint64_t>(
        std::ceil(tr.bytes / static_cast<double>(config.packet_bytes)));
    if (packets == 0) continue;
    // Binomial thinning. For the large packet counts of bulk transfers a
    // normal approximation is exact enough and O(1); small flows use exact
    // Bernoulli draws so the blind-spot behaviour is faithful.
    std::uint64_t sampled = 0;
    if (packets > 10000) {
      const double mean_n = static_cast<double>(packets) * p;
      const double sd = std::sqrt(mean_n * (1.0 - p));
      const double draw = std::max(0.0, rng.normal(mean_n, sd));
      sampled = static_cast<std::uint64_t>(std::llround(draw));
    } else {
      for (std::uint64_t k = 0; k < packets; ++k) {
        if (rng.chance(p)) ++sampled;
      }
    }
    for (std::uint64_t s = 0; s < sampled; ++s) {
      FlowRecord rec;
      rec.src_task = tr.src_task;
      rec.dst_task = tr.dst_task;
      rec.bytes = scaled_bytes;
      records.push_back(rec);
    }
  }
  return records;
}

Profiler profile_from_sflow(std::size_t task_count,
                            const std::vector<ObservedTransfer>& transfers,
                            const SflowConfig& config, Rng& rng) {
  Profiler profiler(task_count);
  profiler.observe_all(sflow_sample(transfers, config, rng));
  return profiler;
}

}  // namespace choreo::core
