#include "core/profiler.h"

#include "util/require.h"

namespace choreo::core {

Profiler::Profiler(std::size_t task_count) : matrix_(task_count, task_count, 0.0) {
  CHOREO_REQUIRE(task_count >= 1);
}

void Profiler::observe(const FlowRecord& record) {
  CHOREO_REQUIRE(record.src_task < matrix_.rows());
  CHOREO_REQUIRE(record.dst_task < matrix_.cols());
  CHOREO_REQUIRE(record.src_task != record.dst_task);
  CHOREO_REQUIRE(record.bytes >= 0.0);
  matrix_(record.src_task, record.dst_task) += record.bytes;
  ++records_;
}

void Profiler::observe_all(const std::vector<FlowRecord>& records) {
  for (const FlowRecord& r : records) observe(r);
}

place::Application Profiler::to_application(std::vector<double> cpu_demand,
                                            std::string name) const {
  CHOREO_REQUIRE(cpu_demand.size() == matrix_.rows());
  place::Application app;
  app.name = std::move(name);
  app.cpu_demand = std::move(cpu_demand);
  app.traffic_bytes = matrix_;
  app.validate();
  return app;
}

}  // namespace choreo::core
