// Kernel microbenchmarks: raw event-loop throughput, independent of any
// storage model, plus the one placement call every object handle makes.
// These are the numbers the pooled frame allocator, the event queue (a
// now-FIFO plus one heap) and computed layouts move (see DESIGN.md "Kernel
// performance" and "Implementation notes"); before/after results live in
// BENCH_kernel.json.
//
//   events_per_sec  — delay-driven ping-pong through the event heap
//   spawn_per_sec   — spawn/join churn (frame + join-state allocation path)
//   timer_churn     — wide-range random timers (stresses heap ordering)
//   handoff_per_sec — semaphore hand-offs at equal timestamps (now-FIFO)
//   compute_layout  — one SX layout over a healthy pool of N targets
#include <benchmark/benchmark.h>

#include <cstdint>

#include "placement/layout.h"
#include "sim/queue_station.h"
#include "sim/rng.h"
#include "sim/simulation.h"
#include "sim/sync.h"
#include "sim/task.h"
#include "sim/time.h"

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

}  // namespace

BENCHMARK_MAIN();
