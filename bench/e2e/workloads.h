#pragma once

// The benchmark's workloads. Each runs one episode: a fresh set-up plus a
// fixed amount of work, all drawn from the episode's seed, with every call
// into the library timed from outside. choreo_bench.cpp decides how many
// inputs a run covers and how often each repeats.

#include <cstdint>

#include "obs/observer.h"
#include "report.h"
#include "workload/trace.h"

namespace choreo::e2e {

/// The arrival trace every workload replays: the §6.1 diurnal process over
/// 3-6-task apps (max CPU 2), 8 000 apps/day for every 5 VMs of fleet.
inline constexpr std::size_t kVmsPerTenant = 5;
inline constexpr double kAppsPerDayPerTenant = 8000.0;

inline workload::TraceConfig app_trace(double hours, std::size_t vms) {
  workload::TraceConfig trace;
  trace.duration_hours = hours;
  trace.apps_per_day =
      kAppsPerDayPerTenant * static_cast<double>(vms) / static_cast<double>(kVmsPerTenant);
  trace.gen.min_tasks = 3;
  trace.gen.max_tasks = 6;
  trace.gen.max_cpu = 2.0;
  return trace;
}

/// A multi-tenant session on one shared cloud, driven step by step: each
/// tenant a 5-VM fleet replaying its own app trace.
struct SessionShape {
  std::size_t tenants = 4;
  double hours = 0.2;  ///< simulated length of one episode
  /// The second measure path: host/cluster agents on the lossless
  /// zero-delay transport, plus the batched retry drain.
  bool agents_batch = false;
};

Episode run_session_episode(const SessionShape& shape, std::uint64_t seed,
                            const obs::Observer& obsv);

/// One client (also the single writer) against a PlacementService on a
/// synthetic fleet, replaying the app trace as a session's controller would.
struct ServeShape {
  std::size_t vms = 500;
  double hours = 0.002;  ///< simulated length of one episode
};

Episode run_serve_episode(const ServeShape& shape, std::uint64_t seed,
                          const obs::Observer& obsv);

}  // namespace choreo::e2e
