#pragma once

#include <functional>

namespace choreo::util {

/// Runs `body(worker_index)` on `workers` threads and joins them all before
/// returning. Worker 0 runs inline on the calling thread (so `workers == 1`
/// spawns nothing and is an ordinary function call — the single-threaded
/// path stays debuggable and sanitizer-quiet); workers 1..N-1 run on
/// std::threads. The first exception thrown by any worker is rethrown on
/// the calling thread after every worker has finished.
///
/// This is the fork-join primitive behind the sharded control plane
/// (core::ShardedSession) and parallel probe rounds
/// (cloud::Cloud::run_train_round), and is deliberately dumb: no queue, no
/// futures. Both callers distribute work the same way, each worker claiming
/// the next item from one shared std::atomic index, which keeps the
/// synchronization they must reason about (and that TSan checks) to that one
/// counter.
void run_workers(unsigned workers, const std::function<void(unsigned)>& body);

}  // namespace choreo::util
