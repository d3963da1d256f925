// Kernel microbenchmarks: raw event-loop throughput, independent of any
// storage model, plus the placement call every object handle makes and
// the VOS record lookup behind every I/O. These are the numbers the pooled
// frame allocator, the event queue (a now-FIFO plus one heap), computed
// layouts and the hashed record index move (see DESIGN.md "Kernel
// performance" and "Implementation notes"); before/after results live in
// BENCH_kernel.json.
//
//   events_per_sec  — delay-driven ping-pong through the event heap
//   spawn_per_sec   — spawn/join churn (frame + join-state allocation path)
//   timer_churn     — wide-range random timers (stresses heap ordering)
//   handoff_per_sec — semaphore hand-offs at equal timestamps (now-FIFO)
//   compute_layout  — one SX layout over a healthy pool of N targets
//   vos_lookup      — one extent read from a target store, past the L2
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "placement/layout.h"
#include "sim/queue_station.h"
#include "sim/rng.h"
#include "sim/simulation.h"
#include "sim/sync.h"
#include "sim/task.h"
#include "sim/time.h"
#include "vos/target_store.h"

namespace {

using namespace daosim;
using sim::Simulation;
using sim::Task;
using sim::Time;

// N processes each sleeping K times with staggered delays: every event is a
// queue push + pop with a nontrivial ordering decision.
void BM_EventsPerSec(benchmark::State& state) {
  const int procs = static_cast<int>(state.range(0));
  const int steps = 200;
  std::size_t events = 0;
  for (auto _ : state) {
    Simulation sim(7);
    for (int p = 0; p < procs; ++p) {
      sim.spawn([](Simulation& s, int id) -> Task<void> {
        for (int i = 0; i < steps; ++i) {
          co_await s.delay(static_cast<Time>(100 + (id * 37 + i * 13) % 900));
        }
      }(sim, p));
    }
    events += sim.run();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_EventsPerSec)->Arg(64)->Arg(1024);

// Spawn/join churn: each iteration spawns a batch of trivial processes and
// joins them. Dominated by coroutine-frame and join-state allocation.
void BM_SpawnPerSec(benchmark::State& state) {
  const int batch = 4096;
  std::size_t spawned = 0;
  for (auto _ : state) {
    Simulation sim(3);
    sim.spawn([](Simulation& s, int n) -> Task<void> {
      for (int i = 0; i < n; ++i) {
        auto h = s.spawn([](Simulation& sm) -> Task<void> {
          co_await sm.delay(10);
        }(s));
        co_await h.join();
      }
    }(sim, batch));
    sim.run();
    spawned += static_cast<std::size_t>(batch);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(spawned));
}
BENCHMARK(BM_SpawnPerSec);

// Wide-range random timers: a mix of sub-microsecond, microsecond and
// millisecond delays so events land near and far from the current time.
void BM_TimerChurn(benchmark::State& state) {
  const int procs = 256;
  const int steps = 100;
  std::size_t events = 0;
  for (auto _ : state) {
    Simulation sim(11);
    for (int p = 0; p < procs; ++p) {
      sim.spawn([](Simulation& s) -> Task<void> {
        for (int i = 0; i < steps; ++i) {
          const std::uint64_t r = s.rng()();
          Time d;
          switch (r % 4) {
            case 0: d = static_cast<Time>(r % 1000); break;          // <1us
            case 1: d = static_cast<Time>(1000 + r % 100000); break; // ~us
            case 2: d = static_cast<Time>(r % 2000000); break;       // <2ms
            default: d = static_cast<Time>(r % 20000000); break;     // <20ms
          }
          co_await s.delay(d);
        }
      }(sim));
    }
    events += sim.run();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_TimerChurn);

// Same-timestamp hand-off chains: contended single-server station, so every
// release schedules the next waiter at the current instant.
void BM_HandoffPerSec(benchmark::State& state) {
  const int procs = 512;
  const int rounds = 40;
  std::size_t events = 0;
  for (auto _ : state) {
    Simulation sim(5);
    sim::QueueStation st(sim, "dev", 1);
    for (int p = 0; p < procs; ++p) {
      sim.spawn([](sim::QueueStation& q, int n) -> Task<void> {
        for (int i = 0; i < n; ++i) co_await q.exec(5);
      }(st, rounds));
    }
    events += sim.run();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_HandoffPerSec);

// The layout an object handle gets on a healthy pool: the two-argument
// call, since DaosSystem::layout passes no alive map while nothing is
// excluded. A layout that stored every target would cost O(N) here.
void BM_ComputeLayout(benchmark::State& state) {
  const int targets = static_cast<int>(state.range(0));
  std::uint64_t id = 0;
  for (auto _ : state) {
    placement::Layout layout = placement::computeLayout(
        placement::makeOid(placement::ObjClass::SX, ++id), targets);
    benchmark::DoNotOptimize(layout);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ComputeLayout)->Arg(2048);

// ior_bulk's per-target VOS shape: 256 target stores, each holding 300
// size-only 1 MiB extents over 180 objects (chunk dkeys, akey "0"), about
// 11 MB in all. Each item reads one stored record, in a seeded random
// (store, record) order, so a lookup mostly misses the cache, as in a run.
void BM_VosLookup(benchmark::State& state) {
  constexpr std::uint64_t kStores = 256;
  constexpr std::uint64_t kRecords = 300;
  constexpr std::uint64_t kObjects = 180;
  constexpr std::uint64_t kMiB = 1 << 20;
  const auto oid = [](std::uint64_t store, std::uint64_t record) {
    return placement::makeOid(placement::ObjClass::SX,
                              store * kObjects + record % kObjects + 1);
  };
  const std::string dkeys[] = {vos::u64Dkey(0), vos::u64Dkey(1)};
  std::vector<std::unique_ptr<vos::TargetStore>> stores;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> order;
  for (std::uint64_t s = 0; s < kStores; ++s) {
    stores.push_back(std::make_unique<vos::TargetStore>(/*retain_data=*/false));
    for (std::uint64_t r = 0; r < kRecords; ++r) {
      stores.back()->extentWrite(1, oid(s, r), dkeys[r / kObjects], "0", 0,
                                 vos::Payload::synthetic(kMiB, r));
      order.emplace_back(s, r);
    }
  }
  sim::Rng rng(13);
  std::shuffle(order.begin(), order.end(), rng);
  std::size_t next = 0;
  std::uint64_t found = 0;
  for (auto _ : state) {
    const auto [s, r] = order[next];
    next = next + 1 == order.size() ? 0 : next + 1;
    const std::uint64_t got =
        stores[s]
            ->extentRead(1, oid(s, r), dkeys[r / kObjects], "0", 0, kMiB)
            .bytes_found;
    benchmark::DoNotOptimize(got);
    found += got;
  }
  if (found != kMiB * static_cast<std::uint64_t>(state.iterations())) {
    state.SkipWithError("a stored record was not found");
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_VosLookup);

}  // namespace

BENCHMARK_MAIN();
