#pragma once

#include <cstdint>
#include <vector>

#include "cloud/cloud.h"
#include "packetsim/udp_train.h"

namespace choreo::measure {

/// One cell of the §4.1 calibration sweep (Fig 6): average relative error of
/// packet-train estimates against 10-second netperf "ground truth" over a
/// set of paths, for one (bursts, burst_length) configuration.
struct CalibrationPoint {
  std::uint32_t bursts = 0;
  std::uint32_t burst_length = 0;
  double mean_rel_error = 0.0;
  double median_rel_error = 0.0;
  double train_duration_s = 0.0;
};

struct CalibrationConfig {
  std::vector<std::uint32_t> burst_counts{10, 20, 50};
  std::vector<std::uint32_t> burst_lengths{50, 200, 500, 1000, 2000, 4000};
  packetsim::TrainParams base;   ///< packet size, gap, line rate
  double netperf_duration_s = 10.0;
  std::size_t max_paths = 30;    ///< paths sampled per configuration
};

/// Runs the calibration sweep on `cloud` over ordered pairs drawn from
/// `vms`. "Before using a cloud network, a tenant should calibrate their
/// packet train parameters" — this is that procedure as a library call.
std::vector<CalibrationPoint> calibrate_trains(const cloud::Cloud& cloud,
                                               const std::vector<cloud::VmId>& vms,
                                               const CalibrationConfig& config,
                                               std::uint64_t epoch);

/// Picks the cheapest configuration whose mean error is within
/// `target_error` (e.g. 0.10 for 10%); falls back to the most accurate one.
packetsim::TrainParams recommend_train(const std::vector<CalibrationPoint>& points,
                                       const packetsim::TrainParams& base,
                                       double target_error);

}  // namespace choreo::measure
