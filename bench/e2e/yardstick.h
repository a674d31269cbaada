#pragma once

// Host-speed yardsticks. On a shared host, neighbours' memory and core
// contention slow this process by up to 2x for seconds to minutes at a time,
// far more than any change the benchmark is meant to catch. A yardstick is a
// small fixed piece of work the benchmark runs between timed calls; its wall
// time tracks how fast the host currently runs code of one kind, and each
// call is scaled by it. Yardsticks live in the benchmark, not the library,
// and each slice re-warms its own data before the timed pass, so neither a
// library change nor the cache state a library call leaves behind moves them.

namespace choreo::e2e {

struct Yardstick {
  /// Runs one slice; returns the wall seconds of its timed pass.
  double (*slice)();
  /// The slice time scaled results refer to: a call that took `wall` while
  /// slices took `s` counts as wall * nominal_s / s.
  double nominal_s;
};

/// A discrete-event simulation shaped like the packet-train path (a heap of
/// std::function events pushing 400 packets through four FIFO hops). For
/// the session workloads, whose time is packet trains.
extern const Yardstick kEventYardstick;

/// A 2 MB memcpy streamed from the last-level cache. For the serving
/// workload, whose time is engine rebuilds and clones of tens of megabytes.
extern const Yardstick kCopyYardstick;

}  // namespace choreo::e2e
