#include "oracles/multi_tenant_session.h"

#include <limits>
#include <memory>
#include <optional>

#include "util/kway.h"
#include "util/require.h"

namespace choreo::core {

MultiTenantSession::MultiTenantSession(cloud::Cloud& cloud,
                                       std::vector<TenantSpec> tenants,
                                       MultiTenantOptions options)
    : cloud_(cloud), tenants_(std::move(tenants)), opts_(options) {
  validate_tenants(tenants_);
}

MultiTenantLog MultiTenantSession::run() {
  CHOREO_REQUIRE_MSG(!ran_, "run() may be called once");
  ran_ = true;

  std::vector<std::unique_ptr<SessionRuntime>> runtimes;
  runtimes.reserve(tenants_.size());
  for (std::size_t i = 0; i < tenants_.size(); ++i) {
    RuntimeOptions options;
    options.record_events = opts_.record_events;
    options.record_outcomes = opts_.record_outcomes;
    options.tenant = static_cast<std::uint32_t>(i);
    // The epoch plumbing that couples tenants: every measurement cycle draws
    // from the shared cloud's counter, so each cycle observes the cloud's
    // background realization as of its position in the global event order.
    options.epoch_source = [this] { return cloud_.next_epoch(); };
    runtimes.push_back(std::make_unique<SessionRuntime>(
        cloud_, tenants_[i].vms, tenants_[i].config, std::move(options)));
  }
  for (std::size_t i = 0; i < tenants_.size(); ++i) {
    runtimes[i]->start(*tenants_[i].stream);
  }

  // The shared clock: always advance the tenant with the earliest live
  // event; ties break by tenant index. Deterministic for a fixed spec.
  while (true) {
    const std::size_t best = util::earliest_index(runtimes.size(), [&](std::size_t i) {
      const std::optional<SessionRuntime::PendingEvent> next = runtimes[i]->peek_event();
      return next ? next->time_s : std::numeric_limits<double>::infinity();
    });
    if (best == runtimes.size()) break;
    runtimes[best]->step();
  }

  std::vector<SessionLog> logs;
  logs.reserve(runtimes.size());
  stats_.clear();
  for (auto& rt : runtimes) {
    logs.push_back(rt->finish());
    stats_.push_back(rt->stats());
  }
  return merge_tenant_logs(std::move(logs));
}

}  // namespace choreo::core
