#include "oracles/multi_tenant_session.h"

#include <utility>

#include "util/require.h"

namespace choreo::core {

MultiTenantSession::MultiTenantSession(const cloud::Cloud& cloud,
                                       std::vector<TenantSpec> tenants,
                                       MultiTenantOptions options)
    : cloud_(cloud), tenants_(std::move(tenants)), opts_(options) {
  validate_tenants(tenants_);
}

MultiTenantLog MultiTenantSession::run() {
  CHOREO_REQUIRE_MSG(!ran_, "run() may be called once");
  ran_ = true;

  std::vector<SessionLog> logs;
  logs.reserve(tenants_.size());
  stats_.clear();
  for (std::size_t i = 0; i < tenants_.size(); ++i) {
    RuntimeOptions options;
    options.record_events = opts_.record_events;
    options.record_outcomes = opts_.record_outcomes;
    options.tenant = static_cast<std::uint32_t>(i);
    SessionRuntime runtime(cloud_, tenants_[i].vms, tenants_[i].config, std::move(options));
    logs.push_back(runtime.run(*tenants_[i].stream));
    stats_.push_back(runtime.stats());
  }
  return merge_tenant_logs(std::move(logs));
}

}  // namespace choreo::core
