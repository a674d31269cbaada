#pragma once

#include <vector>

#include "core/runtime.h"

namespace choreo::core {

/// N Choreo instances over disjoint VM slices of one shared cloud::Cloud —
/// the §7.2 multi-user regime, where every tenant measures its own VMs and
/// places its own apps. Tenants share no mutable state: each runtime numbers
/// its own measurement cycles, so the oracle simply runs the tenants one
/// after another, in index order, and merges their logs. It is the
/// reference ShardedSession must match at every thread count.
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
