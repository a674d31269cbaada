#pragma once

#include <vector>

#include "core/runtime.h"

namespace choreo::core {

/// N Choreo instances over disjoint VM slices of one shared cloud::Cloud,
/// their discrete events interleaved deterministically on a shared clock
/// (earliest next event wins; ties break by tenant index). All tenants draw
/// measurement epochs from the shared cloud's counter, so each measurement
/// cycle observes the cloud as of its position in the global session order —
/// the §7.2 multi-user regime, where every tenant measures individually
/// under whatever the others are doing.
struct MultiTenantOptions {
  bool record_events = true;
  bool record_outcomes = true;
};

class MultiTenantSession {
 public:
  MultiTenantSession(cloud::Cloud& cloud, std::vector<TenantSpec> tenants,
                     MultiTenantOptions options = {});

  /// Runs every tenant session to completion. Call once.
  MultiTenantLog run();

  /// Per-tenant runtime stats, valid after run().
  const std::vector<SessionRuntime::Stats>& tenant_stats() const { return stats_; }

 private:
  cloud::Cloud& cloud_;
  std::vector<TenantSpec> tenants_;
  MultiTenantOptions opts_;
  std::vector<SessionRuntime::Stats> stats_;
  bool ran_ = false;
};

}  // namespace choreo::core
