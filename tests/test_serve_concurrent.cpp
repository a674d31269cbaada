// Concurrency battery for the serving plane: N reader threads querying a
// PlacementService through private Scratch arenas — while a writer swaps
// epochs underneath them — must produce exactly the placements a sequential
// replay computes against the snapshots they report having used. Runs under
// TSan in CI; any unsynchronized access to the epoch-swapped snapshot or the
// per-thread arenas is a hard failure there.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "place/greedy.h"
#include "place/rate_model.h"
#include "serve/service.h"
#include "util/rng.h"
#include "util/units.h"
#include "workload/generator.h"

namespace choreo::serve {
namespace {

using units::mbps;

place::ClusterView random_view(Rng& rng, std::size_t machines) {
  place::ClusterView view;
  view.rate_bps = DoubleMatrix(machines, machines, 0.0);
  for (std::size_t i = 0; i < machines; ++i) {
    for (std::size_t j = 0; j < machines; ++j) {
      if (i != j) view.rate_bps(i, j) = rng.uniform(mbps(200), mbps(1200));
    }
  }
  view.cross_traffic = DoubleMatrix(machines, machines, 0.0);
  for (std::size_t i = 0; i < machines; ++i) {
    for (std::size_t j = 0; j < machines; ++j) {
      if (i != j && rng.chance(0.25)) view.cross_traffic(i, j) = rng.uniform(0.0, 2.0);
    }
  }
  view.colocation_group.resize(machines);
  for (std::size_t m = 0; m < machines; ++m) view.colocation_group[m] = static_cast<int>(m);
  view.cores.assign(machines, 8.0);
  return view;
}

std::vector<place::Application> query_corpus(std::uint64_t seed, std::size_t count) {
  Rng rng(seed);
  workload::GeneratorConfig gen;
  gen.min_tasks = 3;
  gen.max_tasks = 6;
  gen.max_cpu = 1.5;
  std::vector<place::Application> apps;
  for (std::size_t i = 0; i < count; ++i) apps.push_back(workload::generate_app(rng, gen));
  return apps;
}

struct Recorded {
  std::size_t app = 0;
  std::uint64_t epoch = 0;
  place::Placement placement;
};

TEST(ServeConcurrent, ReadersMatchSequentialReplayUnderEpochChurn) {
  constexpr std::size_t kMachines = 24;
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kQueriesPerThread = 40;
  constexpr std::size_t kPublishes = 6;

  Rng rng(42);
  PlacementService service(random_view(rng, kMachines));

  // Pre-build the churn views so the writer thread does no RNG work.
  std::vector<place::ClusterView> churn;
  for (std::size_t i = 0; i < kPublishes; ++i) churn.push_back(random_view(rng, kMachines));

  // Every snapshot ever published, recorded by the single writer. Epoch ->
  // snapshot lets the replay reconstruct exactly what each reader saw.
  std::vector<std::shared_ptr<const ClusterSnapshot>> published;
  published.push_back(service.snapshot());

  const std::vector<place::Application> apps =
      query_corpus(7, kThreads * kQueriesPerThread);

  std::atomic<bool> start{false};
  std::atomic<std::size_t> done_readers{0};

  std::vector<std::vector<Recorded>> per_thread(kThreads);
  std::vector<std::thread> readers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    readers.emplace_back([&, t] {
      while (!start.load(std::memory_order_acquire)) std::this_thread::yield();
      Scratch scratch;
      for (std::size_t q = 0; q < kQueriesPerThread; ++q) {
        const std::size_t idx = t * kQueriesPerThread + q;
        const PlacementService::Result r = service.place(apps[idx], scratch);
        per_thread[t].push_back({idx, r.epoch, r.placement});
      }
      done_readers.fetch_add(1, std::memory_order_acq_rel);
    });
  }

  std::thread writer([&] {
    while (!start.load(std::memory_order_acquire)) std::this_thread::yield();
    for (const place::ClusterView& view : churn) {
      service.publish_view(view);
      published.push_back(service.snapshot());
      // Let readers interleave between epochs without pinning a schedule.
      for (int spin = 0; spin < 64 && done_readers.load(std::memory_order_acquire) <
                                          kThreads;
           ++spin) {
        std::this_thread::yield();
      }
    }
  });

  start.store(true, std::memory_order_release);
  for (std::thread& r : readers) r.join();
  writer.join();

  std::map<std::uint64_t, std::shared_ptr<const ClusterSnapshot>> by_epoch;
  for (const auto& snap : published) by_epoch[snap->epoch] = snap;
  ASSERT_EQ(by_epoch.size(), kPublishes + 1);

  // Sequential replay: for each recorded query, run the greedy placer
  // directly against the snapshot the reader says it used. Determinism of
  // the placer makes placement equality the full correctness statement.
  place::GreedyPlacer greedy(place::RateModel::Hose);
  std::size_t replayed = 0;
  for (const std::vector<Recorded>& records : per_thread) {
    std::uint64_t last_epoch = 0;
    for (const Recorded& rec : records) {
      ASSERT_TRUE(by_epoch.count(rec.epoch)) << "unknown epoch " << rec.epoch;
      // A single reader's epoch observations never go backwards: the writer
      // publishes with release stores in one total order.
      EXPECT_GE(rec.epoch, last_epoch);
      last_epoch = rec.epoch;

      place::ClusterState arena = by_epoch[rec.epoch]->state.clone();
      const place::Placement expect = greedy.place(apps[rec.app], arena);
      EXPECT_EQ(rec.placement.machine_of_task, expect.machine_of_task)
          << "app " << rec.app << " epoch " << rec.epoch;
      ++replayed;
    }
  }
  EXPECT_EQ(replayed, kThreads * kQueriesPerThread);
}

TEST(ServeConcurrent, QuiescentEpochThreadsEqualSingleThread) {
  constexpr std::size_t kMachines = 16;
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kQueries = 48;  // divisible by kThreads

  Rng rng(5);
  PlacementService service(random_view(rng, kMachines));
  const std::vector<place::Application> apps = query_corpus(9, kQueries);

  // Single-threaded baseline.
  std::vector<place::Placement> baseline(kQueries);
  {
    Scratch scratch;
    for (std::size_t i = 0; i < kQueries; ++i) {
      baseline[i] = service.place(apps[i], scratch).placement;
    }
  }

  // The same queries partitioned across threads, no publishes in flight:
  // every thread clones the same epoch and must reproduce the baseline.
  std::vector<std::vector<place::Placement>> got(kThreads);
  std::vector<std::thread> workers;
  const std::size_t per = kQueries / kThreads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      Scratch scratch;
      for (std::size_t i = t * per; i < (t + 1) * per; ++i) {
        got[t].push_back(service.place(apps[i], scratch).placement);
      }
    });
  }
  for (std::thread& w : workers) w.join();

  for (std::size_t t = 0; t < kThreads; ++t) {
    for (std::size_t i = 0; i < per; ++i) {
      EXPECT_EQ(got[t][i].machine_of_task, baseline[t * per + i].machine_of_task)
          << "thread " << t << " query " << i;
    }
  }
}

TEST(ServeConcurrent, ConcurrentCommitsFromOneWriterStayCoherent) {
  // One writer admitting apps (clone -> mutate -> swap) while readers keep
  // placing against whatever epoch is current: the reader placements must
  // each replay against a published snapshot, mirroring the batched-arrival
  // serving loop.
  constexpr std::size_t kMachines = 16;
  constexpr std::size_t kThreads = 3;
  constexpr std::size_t kQueriesPerThread = 25;
  constexpr std::size_t kCommits = 5;

  Rng rng(77);
  PlacementService service(random_view(rng, kMachines));
  std::vector<std::shared_ptr<const ClusterSnapshot>> published;
  published.push_back(service.snapshot());

  const std::vector<place::Application> queries =
      query_corpus(21, kThreads * kQueriesPerThread);
  const std::vector<place::Application> admitted = query_corpus(22, kCommits);

  std::atomic<bool> start{false};
  std::vector<std::vector<Recorded>> per_thread(kThreads);
  std::vector<std::thread> readers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    readers.emplace_back([&, t] {
      while (!start.load(std::memory_order_acquire)) std::this_thread::yield();
      Scratch scratch;
      for (std::size_t q = 0; q < kQueriesPerThread; ++q) {
        const std::size_t idx = t * kQueriesPerThread + q;
        const PlacementService::Result r = service.place(queries[idx], scratch);
        per_thread[t].push_back({idx, r.epoch, r.placement});
      }
    });
  }

  std::thread writer([&] {
    while (!start.load(std::memory_order_acquire)) std::this_thread::yield();
    Scratch scratch;
    for (const place::Application& app : admitted) {
      const PlacementService::Result r = service.place(app, scratch);
      service.commit(app, r.placement);
      published.push_back(service.snapshot());
      std::this_thread::yield();
    }
  });

  start.store(true, std::memory_order_release);
  for (std::thread& r : readers) r.join();
  writer.join();

  std::map<std::uint64_t, std::shared_ptr<const ClusterSnapshot>> by_epoch;
  for (const auto& snap : published) by_epoch[snap->epoch] = snap;

  place::GreedyPlacer greedy(place::RateModel::Hose);
  for (const std::vector<Recorded>& records : per_thread) {
    for (const Recorded& rec : records) {
      ASSERT_TRUE(by_epoch.count(rec.epoch)) << "unknown epoch " << rec.epoch;
      place::ClusterState arena = by_epoch[rec.epoch]->state.clone();
      const place::Placement expect = greedy.place(queries[rec.app], arena);
      EXPECT_EQ(rec.placement.machine_of_task, expect.machine_of_task)
          << "query " << rec.app << " epoch " << rec.epoch;
    }
  }
}

// Clones share their per-path rows copy-on-write, and a row is written in
// place once no other engine holds it. Here a reader thread reads a row
// through its clone and drops the clone; the writer learns that only through
// a relaxed flag, which orders nothing, and then commits into the original,
// which now holds the row alone and writes it in place. The share count
// itself must order the reader's reads before that write: TSan reports the
// pair as a race when the in-place check does not synchronize with the
// dropped handle.
TEST(ServeConcurrent, DroppedCloneRowsAreWrittenInPlaceWithoutRace) {
  constexpr std::size_t kMachines = 8;
  Rng rng(7);
  place::ClusterState original(random_view(rng, kMachines));
  place::Application app;
  app.cpu_demand = {0.5, 0.5};
  app.traffic_bytes = DoubleMatrix(2, 2, 0.0);
  app.traffic_bytes(0, 1) = 1e6;
  const place::Placement placement{{0, 1}};
  // The first commit gives the original its own row 0 (until then all its
  // rows shared one zero row).
  original.commit(app, placement);

  std::atomic<bool> dropped{false};
  double seen = 0.0;
  std::thread reader([&dropped, &seen, copy = original.clone()]() mutable {
    {
      const place::ClusterState mine = std::move(copy);
      for (std::size_t n = 0; n < kMachines; ++n) seen += mine.transfers_on_path(0, n);
    }
    dropped.store(true, std::memory_order_relaxed);
  });
  while (!dropped.load(std::memory_order_relaxed)) std::this_thread::yield();
  original.commit(app, placement);
  reader.join();

  EXPECT_EQ(seen, 1.0);
  EXPECT_EQ(original.transfers_on_path(0, 1), 2.0);
}

}  // namespace
}  // namespace choreo::serve
