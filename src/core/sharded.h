#pragma once

#include <vector>

#include "core/runtime.h"
#include "obs/observer.h"

namespace choreo::core {

/// Options for the sharded control plane.
struct ShardedOptions {
  /// Worker threads. Each claims the next unclaimed tenant and runs its
  /// whole session. 1 runs every tenant inline on the calling thread (no
  /// std::thread is spawned). Thread count never affects output.
  unsigned threads = 1;
  bool record_events = true;
  bool record_outcomes = true;
  /// Scheduler-level observability: the `sharded.run` span. Per-tenant plane
  /// metrics flow separately via each TenantSpec.config.choreo.obs.
  obs::Observer obs;
};

/// Multi-threaded drop-in for `MultiTenantSession`: the same tenants on
/// disjoint VM slices of one shared cloud, run by a pool of worker threads,
/// producing a `MultiTenantLog` that is bit-identical to the
/// single-threaded oracle for every thread count — events, outcomes,
/// placements, and accounting doubles (pinned by test_sharded_differential).
///
/// Tenants share nothing mutable. Each `SessionRuntime` numbers its own
/// measurement cycles, and the cloud's realization of a cycle is a pure
/// function of (seed, that tenant-local epoch, round), so a tenant's session
/// does not depend on when, or on which thread, the others run. Workers claim
/// tenants from an atomic index and run each to completion; the per-tenant
/// logs are then reduced by `merge_tenant_logs`, as the oracle does.
class ShardedSession {
 public:
  ShardedSession(cloud::Cloud& cloud, std::vector<TenantSpec> tenants,
                 ShardedOptions options = {});

  /// Runs every tenant session to completion. Call once.
  MultiTenantLog run();

  /// Per-tenant runtime stats, valid after run(). Deterministic: identical
  /// to the oracle's for the same spec.
  const std::vector<SessionRuntime::Stats>& tenant_stats() const { return stats_; }

 private:
  cloud::Cloud& cloud_;
  std::vector<TenantSpec> tenants_;
  ShardedOptions opts_;
  std::vector<SessionRuntime::Stats> stats_;
  bool ran_ = false;
};

}  // namespace choreo::core
