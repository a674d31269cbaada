// Microbenchmark for the packet-train recurrence (packetsim/train_recurrence).
//
// A §3.1 probe train is one flow through a fixed tandem — token bucket, FIFO
// hops, receiver — so packetsim::simulate_train computes its receiver log by
// a direct per-packet recurrence, where the event-driven Path + EventQueue
// (kept as the differential oracle) pays a heap push/pop and a
// std::function per hop event. Two train shapes are timed both ways:
//
//   * ec2 chain: the ec2_2013 inter-host chain a measurement round probes
//     (hose bucket plus the routed fabric hops, built by the cloud itself),
//     10 x 200 packets;
//   * bucket only: the same bucket feeding the receiver directly, 10 x 200.
//
// Enforced: the recurrence is at least 10x faster per ec2 train, its records
// equal the event path's, and a warm train (reused sink, per-thread scratch)
// performs zero heap allocations — counted by interposing operator new.
//
// `--smoke` runs fewer repetitions for CI; `--json[=PATH]` emits the metrics
// as a BenchJson document (gated by bench/check_bench_json.py in CI).

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <new>
#include <vector>

#include "bench_common.h"
#include "packetsim/event_queue.h"
#include "packetsim/path.h"
#include "packetsim/sink.h"
#include "packetsim/train_recurrence.h"
#include "packetsim/udp_train.h"

// --- Global allocation counter -------------------------------------------
// Single-threaded binary: plain counters are enough.
namespace {
std::size_t g_alloc_count = 0;
}

void* operator new(std::size_t size) {
  ++g_alloc_count;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace choreo;
using namespace choreo::bench;
using Clock = std::chrono::steady_clock;

double us_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

struct Shape {
  std::string name;
  packetsim::ShaperSpec shaper;
  std::vector<packetsim::HopSpec> hops;
  packetsim::TrainParams params;
  double jitter_s = 0.0;
};

/// The chain of the first inter-host VM pair of a fresh ec2_2013 cloud.
Shape ec2_chain() {
  cloud::Cloud c(cloud::ec2_2013(), 2013);
  const std::vector<cloud::VmId> vms = c.allocate_vms(8);
  const cloud::Cloud::TrafficSnapshot snap = c.traffic_snapshot(1);
  for (std::size_t i = 1; i < vms.size(); ++i) {
    const cloud::Cloud::TrainChain chain =
        c.train_chain_in_snapshot(vms[0], vms[i], packetsim::TrainParams{}, snap);
    if (!chain.shaper.enabled) continue;  // same host: the vswitch, no hose
    return {"ec2 chain", chain.shaper, chain.hops, chain.params, chain.timestamp_jitter_s};
  }
  std::abort();  // eight VMs never share one host
}

struct Timing {
  double event_us = 0.0;
  double recurrence_us = 0.0;
  std::size_t event_allocs = 0;  // per train
  std::size_t warm_allocs = 0;   // across all warm recurrence trains
  bool same = false;
};

Timing time_shape(const Shape& s, int reps) {
  Timing t;
  packetsim::RecordingSink event_sink(s.jitter_s, 1);
  const auto run_event = [&] {
    event_sink.clear();
    packetsim::EventQueue events;
    packetsim::Path path(events, s.shaper, s.hops, &event_sink);
    packetsim::send_train(events, path.entry(), s.params, /*flow_id=*/1, /*start_time=*/0.0);
    events.run();
  };
  packetsim::RecordingSink sink(s.jitter_s, 1);
  const auto run_recurrence = [&] {
    sink.clear();
    if (!packetsim::simulate_train(s.shaper, s.hops, s.params, sink)) std::abort();
  };

  // Equal records on the first train (same sink seed, same jitter draws).
  run_event();
  run_recurrence();
  const auto& a = event_sink.records();
  const auto& b = sink.records();
  t.same = a.size() == b.size();
  for (std::size_t i = 0; t.same && i < a.size(); ++i) {
    t.same = a[i].seq == b[i].seq && a[i].burst == b[i].burst &&
             a[i].wire_bytes == b[i].wire_bytes && a[i].time == b[i].time;
  }

  const std::size_t before_event = g_alloc_count;
  auto t0 = Clock::now();
  for (int i = 0; i < reps; ++i) run_event();
  t.event_us = us_since(t0) / reps;
  t.event_allocs = (g_alloc_count - before_event) / static_cast<std::size_t>(reps);

  const std::size_t before = g_alloc_count;
  t0 = Clock::now();
  for (int i = 0; i < reps; ++i) run_recurrence();
  t.recurrence_us = us_since(t0) / reps;
  t.warm_allocs = g_alloc_count - before;
  return t;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  BenchJson json("micro_packetsim");
  json.config("smoke", smoke ? "true" : "false");

  std::vector<Shape> shapes{ec2_chain()};
  shapes.push_back(shapes.front());
  shapes.back().name = "bucket only";
  shapes.back().hops.clear();
  const int reps = smoke ? 20 : 200;

  header(std::string("Packet train: event queue vs per-packet recurrence") +
         (smoke ? " [smoke]" : ""));
  Table table({"shape", "packets", "hops", "event (us)", "recurrence (us)", "speed-up",
               "event allocs/train", "warm allocs"});
  double ec2_speedup = 0.0;
  bool all_same = true;
  std::size_t warm_allocs = 0;
  for (const Shape& shape : shapes) {
    const Timing t = time_shape(shape, reps);
    const double speedup = t.event_us / t.recurrence_us;
    if (&shape == &shapes.front()) ec2_speedup = speedup;
    all_same = all_same && t.same;
    warm_allocs += t.warm_allocs;
    const double packets = static_cast<double>(shape.params.bursts) * shape.params.burst_length;
    table.add_row({shape.name, fmt(packets, 0), fmt(static_cast<double>(shape.hops.size()), 0),
                   fmt(t.event_us, 1), fmt(t.recurrence_us, 1), fmt(speedup, 1) + "x",
                   fmt(static_cast<double>(t.event_allocs), 0),
                   fmt(static_cast<double>(t.warm_allocs), 0)});
    json.row()
        .row("shape", shape.name)
        .row("packets", packets)
        .row("hops", static_cast<double>(shape.hops.size()))
        .row("event_us", t.event_us)
        .row("recurrence_us", t.recurrence_us)
        .row("speedup", speedup)
        .row("event_allocs_per_train", static_cast<double>(t.event_allocs))
        .row("warm_allocs", static_cast<double>(t.warm_allocs));
  }
  std::cout << table.to_string();
  check(all_same, "the recurrence's records equal the event path's on both shapes");
  check(ec2_speedup >= 10.0, "the recurrence is at least 10x faster per ec2 train");
  check(warm_allocs == 0, "warm recurrence trains allocate nothing");

  const std::string json_path = json_path_from_args(argc, argv, "micro_packetsim");
  if (!json_path.empty()) json.write(json_path);
  return finish();
}
