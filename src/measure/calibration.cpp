#include "measure/calibration.h"

#include <algorithm>

#include "measure/packet_train.h"
#include "measure/throughput_matrix.h"
#include "util/require.h"
#include "util/stats.h"

namespace choreo::measure {

std::vector<CalibrationPoint> calibrate_trains(const cloud::Cloud& cloud,
                                               const std::vector<cloud::VmId>& vms,
                                               const CalibrationConfig& config,
                                               std::uint64_t epoch) {
  CHOREO_REQUIRE(vms.size() >= 2);
  CHOREO_REQUIRE(!config.burst_counts.empty() && !config.burst_lengths.empty());

  // Enumerate ordered pairs round-robin style and truncate to max_paths.
  std::vector<std::pair<cloud::VmId, cloud::VmId>> paths;
  for (std::size_t r = 1; r < vms.size() && paths.size() < config.max_paths; ++r) {
    for (std::size_t i = 0; i < vms.size() && paths.size() < config.max_paths; ++i) {
      const std::size_t j = (i + r) % vms.size();
      if (cloud.vm_host(vms[i]) == cloud.vm_host(vms[j])) continue;  // measure fabric paths
      paths.emplace_back(vms[i], vms[j]);
    }
  }
  CHOREO_REQUIRE(!paths.empty());

  std::vector<CalibrationPoint> out;
  std::uint64_t sub = 0;
  for (std::uint32_t bursts : config.burst_counts) {
    for (std::uint32_t blen : config.burst_lengths) {
      packetsim::TrainParams params = config.base;
      params.bursts = bursts;
      params.burst_length = blen;

      std::vector<double> errors;
      errors.reserve(paths.size());
      for (const auto& [src, dst] : paths) {
        ++sub;
        const double truth =
            cloud.netperf_bps(src, dst, config.netperf_duration_s, epoch + sub);
        // An empty snapshot: the train crosses an idle fabric, every hop at
        // raw link capacity, with noise keyed by (epoch + sub, src, dst).
        const double rate = probe_rate_bps(cloud, src, dst, params, {epoch + sub, {}});
        if (truth > 0.0 && rate > 0.0) errors.push_back(relative_error(rate, truth));
      }
      CalibrationPoint point;
      point.bursts = bursts;
      point.burst_length = blen;
      point.train_duration_s = train_duration_s(params);
      if (!errors.empty()) {
        point.mean_rel_error = mean(errors);
        point.median_rel_error = median(errors);
      }
      out.push_back(point);
    }
  }
  return out;
}

packetsim::TrainParams recommend_train(const std::vector<CalibrationPoint>& points,
                                       const packetsim::TrainParams& base,
                                       double target_error) {
  CHOREO_REQUIRE(!points.empty());
  CHOREO_REQUIRE(target_error > 0.0);
  const CalibrationPoint* chosen = nullptr;
  for (const CalibrationPoint& p : points) {
    if (p.mean_rel_error <= target_error) {
      if (chosen == nullptr || p.train_duration_s < chosen->train_duration_s) chosen = &p;
    }
  }
  if (chosen == nullptr) {
    for (const CalibrationPoint& p : points) {
      if (chosen == nullptr || p.mean_rel_error < chosen->mean_rel_error) chosen = &p;
    }
  }
  packetsim::TrainParams params = base;
  params.bursts = chosen->bursts;
  params.burst_length = chosen->burst_length;
  return params;
}

}  // namespace choreo::measure
