#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "util/require.h"

namespace choreo::packetsim {

/// Discrete-event scheduler at the heart of the packet-level simulator.
///
/// Events fire in (time, insertion-order) order, so simulations are fully
/// deterministic for a given seed.
class EventQueue {
 public:
  using Callback = std::function<void()>;

  void schedule(double time, Callback fn) {
    CHOREO_REQUIRE(time >= now_);
    heap_.push_back(Entry{time, seq_++, std::move(fn)});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
  }

  /// Schedules relative to the current time.
  void schedule_in(double delay, Callback fn) { schedule(now_ + delay, std::move(fn)); }

  double now() const { return now_; }
  bool empty() const { return heap_.empty(); }
  std::size_t pending() const { return heap_.size(); }

  /// Executes the next event; returns false when the queue is empty.
  bool step() {
    if (heap_.empty()) return false;
    // Move the entry out before calling it so that callbacks may schedule.
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    Entry e = std::move(heap_.back());
    heap_.pop_back();
    now_ = e.time;
    e.fn();
    return true;
  }

  /// Runs events with time <= t_end, then advances the clock to t_end.
  void run_until(double t_end) {
    CHOREO_REQUIRE(t_end >= now_);
    while (!heap_.empty() && heap_.front().time <= t_end) step();
    now_ = t_end;
  }

  /// Drains the queue completely (the simulation must terminate naturally).
  void run() {
    while (step()) {
    }
  }

 private:
  struct Entry {
    double time;
    std::uint64_t seq;
    Callback fn;
  };
  /// Heap order: the earliest (time, seq) on top; seq is unique, so the
  /// order is total and independent of the heap's layout.
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };
  std::vector<Entry> heap_;
  double now_ = 0.0;
  std::uint64_t seq_ = 0;
};

}  // namespace choreo::packetsim
