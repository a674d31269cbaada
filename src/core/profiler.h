#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "place/app.h"
#include "util/matrix.h"

namespace choreo::core {

/// One observed flow between two application tasks — what an sFlow or
/// tcpdump collector emits after mapping endpoints to tasks (§2.1).
struct FlowRecord {
  std::size_t src_task = 0;
  std::size_t dst_task = 0;
  double bytes = 0.0;
};

/// Folds flow records into the application's traffic matrix A, where "each
/// entry A_ij is a value proportional to the number of bytes sent from task
/// i to task j" (§2.1). Bytes — not rates — are profiled, because "the
/// number of bytes is usually independent of cross-traffic". Forecasting
/// the next hour's demand (§2.1 predictability) is the forecast plane's job
/// (forecast::BlendPredictor; workload::score_blend over hourly series).
class Profiler {
 public:
  explicit Profiler(std::size_t task_count);

  void observe(const FlowRecord& record);
  void observe_all(const std::vector<FlowRecord>& records);

  std::size_t task_count() const { return matrix_.rows(); }
  std::size_t records_seen() const { return records_; }

  /// Accumulated traffic matrix (bytes).
  const DoubleMatrix& traffic_matrix() const { return matrix_; }

  /// Packages the profile as a placeable application.
  place::Application to_application(std::vector<double> cpu_demand,
                                    std::string name) const;

 private:
  DoubleMatrix matrix_;
  std::size_t records_ = 0;
};

}  // namespace choreo::core
