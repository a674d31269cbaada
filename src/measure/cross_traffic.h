#pragma once

#include <cstdint>
#include <vector>

#include "cloud/cloud.h"

namespace choreo::measure {

/// §3.2: given a path of maximum rate c1 on which our bulk connection
/// obtains c2, the load on the bottleneck is equivalent to c = c1/c2 - 1
/// concurrent backlogged TCP connections. Applied per 10 ms sample.
std::vector<double> cross_traffic_series(const std::vector<double>& probe_series_bps,
                                         double path_rate_bps);

/// The estimate for a single sample (what Fig 4 plots): c1/c2 - 1, floored
/// at 0; 0 for a sample that carried nothing.
double cross_traffic_estimate(double probe_bps, double path_rate_bps);

/// §3.2's fallback when the maximum path rate is unknown: send one
/// connection (rate r1), then two in parallel (combined rate s2); the shift
/// reveals c. Algebra: r1 = C/(c+1), s2 = 2C/(c+2)  =>
/// c = 2*(r1 - s2) / (s2 - 2*r1)  (and the path rate C follows). The model
/// always has s2 < 2*r1; at or above it the path reads unloaded: c = 0 and
/// path rate s2.
struct UnknownRateEstimate {
  double c = 0.0;
  double path_rate_bps = 0.0;
};
UnknownRateEstimate cross_traffic_unknown_rate(double one_conn_bps, double two_conn_total_bps);

/// Runs the full §3.2 procedure on a cloud: a 10-second bulk connection
/// sampled every `interval_s`, converted to a cross-traffic series.
std::vector<double> measure_cross_traffic(const cloud::Cloud& cloud, cloud::VmId src,
                                          cloud::VmId dst, double path_rate_bps,
                                          double duration_s, double interval_s,
                                          std::uint64_t epoch);

}  // namespace choreo::measure
