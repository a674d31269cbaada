#include "yardstick.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <functional>
#include <vector>

#include "report.h"

namespace choreo::e2e {
namespace {

// Every slice runs its work twice and times only the second pass. The first
// pass brings the slice's own data back into cache and its storage into use,
// so the timed pass starts from the same state whatever the library did
// before it. Slices allocate nothing after their first call.

constexpr int kPackets = 400;
constexpr int kHops = 4;

/// 400 packets through four FIFO hops on a heap of std::function events.
struct EventSim {
  struct Event {
    double time_s;
    std::uint64_t seq;
    std::function<void()> fire;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      return a.time_s != b.time_s ? a.time_s > b.time_s : a.seq > b.seq;
    }
  };

  std::vector<Event> heap;
  std::vector<double> arrivals;
  std::uint64_t seq = 0;
  double now = 0.0;
  double busy_until[kHops] = {};

  void push(double time_s, int hop) {
    // Two words of capture: stored inside the std::function, no allocation.
    heap.push_back({time_s, seq++, [this, hop] { forward(hop); }});
    std::push_heap(heap.begin(), heap.end(), Later{});
  }

  void forward(int hop) {
    if (hop == kHops) {
      arrivals.push_back(now);
      return;
    }
    const double departure = std::max(now, busy_until[hop]) + 1.2e-6 * (hop + 1);
    busy_until[hop] = departure;
    push(departure, hop + 1);
  }

  double run() {
    heap.clear();
    arrivals.clear();
    heap.reserve(2 * kPackets);
    arrivals.reserve(kPackets);
    seq = 0;
    now = 0.0;
    std::fill(std::begin(busy_until), std::end(busy_until), 0.0);
    const Clock::time_point t0 = Clock::now();
    for (int p = 0; p < kPackets; ++p) push(p * 1e-6, 0);
    while (!heap.empty()) {
      std::pop_heap(heap.begin(), heap.end(), Later{});
      const Event ev = std::move(heap.back());
      heap.pop_back();
      now = ev.time_s;
      ev.fire();
    }
    // Depend on the simulation's result so it cannot be optimized away.
    return seconds_since(t0) + (arrivals.back() < 0.0 ? 1.0 : 0.0);
  }
};

double event_slice() {
  static EventSim sim;
  sim.run();
  return sim.run();
}

/// A 2 MB memcpy: with both buffers 4 MB, twice this core's L2, so the timed
/// pass streams from the shared last-level cache.
double copy_pass() {
  static std::vector<char> from(2u << 20, 1);
  static std::vector<char> to(2u << 20);
  const Clock::time_point t0 = Clock::now();
  std::memcpy(to.data(), from.data(), from.size());
  return seconds_since(t0) + (to[from.size() / 2] != 1 ? 1.0 : 0.0);
}

double copy_slice() {
  copy_pass();
  return copy_pass();
}

}  // namespace

const Yardstick kEventYardstick{event_slice, 180e-6};
const Yardstick kCopyYardstick{copy_slice, 150e-6};

}  // namespace choreo::e2e
