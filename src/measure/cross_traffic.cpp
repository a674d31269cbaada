#include "measure/cross_traffic.h"

#include <algorithm>

#include "util/require.h"

namespace choreo::measure {

double cross_traffic_estimate(double probe_bps, double path_rate_bps) {
  CHOREO_REQUIRE(path_rate_bps > 0.0);
  if (probe_bps <= 0.0) return 0.0;
  const double c = path_rate_bps / probe_bps - 1.0;
  return std::max(0.0, c);
}

std::vector<double> cross_traffic_series(const std::vector<double>& probe_series_bps,
                                         double path_rate_bps) {
  std::vector<double> out;
  out.reserve(probe_series_bps.size());
  for (double s : probe_series_bps) {
    out.push_back(cross_traffic_estimate(s, path_rate_bps));
  }
  return out;
}

UnknownRateEstimate cross_traffic_unknown_rate(double one_conn_bps,
                                               double two_conn_total_bps) {
  CHOREO_REQUIRE(one_conn_bps > 0.0 && two_conn_total_bps > 0.0);
  UnknownRateEstimate out;
  const double denom = two_conn_total_bps - 2.0 * one_conn_bps;
  if (denom >= 0.0) {
    // Two connections got at least twice what one did, which the model
    // never yields (there s2 < 2*r1): the path showed no cross traffic and
    // carried at least s2. Report c = 0 with that lower bound.
    out.c = 0.0;
    out.path_rate_bps = two_conn_total_bps;
    return out;
  }
  out.c = std::max(0.0, 2.0 * (one_conn_bps - two_conn_total_bps) / denom);
  out.path_rate_bps = one_conn_bps * (out.c + 1.0);
  return out;
}

std::vector<double> measure_cross_traffic(const cloud::Cloud& cloud, cloud::VmId src,
                                          cloud::VmId dst, double path_rate_bps,
                                          double duration_s, double interval_s,
                                          std::uint64_t epoch) {
  const std::vector<double> series =
      cloud.probe_series_bps(src, dst, duration_s, interval_s, epoch);
  return cross_traffic_series(series, path_rate_bps);
}

}  // namespace choreo::measure
