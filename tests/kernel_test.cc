// Kernel-performance invariants: the event queue's exact (time, seq)
// ordering contract across its now-FIFO and heap, the pooled frame
// allocator's steady-state reuse and sized oversize path, waits that
// allocate nothing, forwarding calls that add no frame, ProcHandle's
// intrusive join-state lifetime, the release-build scheduleAt clamp, and
// serial-vs-parallel sweep determinism.
#include <gtest/gtest.h>
#include <malloc.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <optional>
#include <queue>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "apps/ior.h"
#include "apps/runner.h"
#include "apps/testbed.h"
#include "hw/cluster.h"
#include "net/rpc.h"
#include "sim/event_queue.h"
#include "sim/parallel.h"
#include "sim/pool.h"
#include "sim/queue_station.h"
#include "sim/simulation.h"
#include "sim/sync.h"
#include "sim/task.h"
#include "sim/time.h"

namespace daosim {
namespace {

using sim::EventQueue;
using sim::Simulation;
using sim::Task;
using sim::Time;
using namespace sim::literals;

// --- Event queue: exact order under randomized schedules -----------------

struct RefItem {
  Time t;
  std::uint64_t seq;
};

struct RefAfter {
  bool operator()(const RefItem& a, const RefItem& b) const noexcept {
    return a.t > b.t || (a.t == b.t && a.seq > b.seq);
  }
};

// Drives EventQueue and a std::priority_queue reference with the same
// randomized push/pop schedule and asserts identical (t, seq) pop order.
// The delta distribution mixes same-instant hand-offs (now-FIFO) with heap
// times from a few ns to seconds away; the tiny deltas make heap events
// that reach the clock interleave with now-FIFO events at one timestamp.
void crossCheck(std::uint64_t rng_seed, int rounds) {
  std::mt19937_64 rng(rng_seed);
  EventQueue q;
  std::priority_queue<RefItem, std::vector<RefItem>, RefAfter> ref;

  Time now = 0;
  std::uint64_t seq = 0;
  for (int round = 0; round < rounds; ++round) {
    const int pushes = static_cast<int>(rng() % 24);
    for (int i = 0; i < pushes; ++i) {
      Time delta = 0;
      switch (rng() % 6) {
        case 0: delta = 0; break;                        // now-FIFO
        case 1: delta = rng() % 4; break;                // ties with FIFO
        case 2: delta = rng() % 4096; break;             // sub-microsecond
        case 3: delta = rng() % (512 * 4096); break;     // milliseconds
        case 4: delta = rng() % 100'000'000; break;      // 100 ms
        default: delta = rng() % 10'000'000'000ULL; break;  // seconds
      }
      q.push(now, now + delta, seq, std::coroutine_handle<>{});
      ref.push(RefItem{now + delta, seq});
      ++seq;
    }
    const int pops = static_cast<int>(rng() % 24);
    for (int i = 0; i < pops && !ref.empty(); ++i) {
      ASSERT_EQ(q.nextTime(), ref.top().t);
      const EventQueue::Item got = q.pop();
      ASSERT_EQ(got.t, ref.top().t);
      ASSERT_EQ(got.seq, ref.top().seq);
      now = got.t;  // the kernel advances time to the popped event
      ref.pop();
    }
    ASSERT_EQ(q.size(), ref.size());
    ASSERT_EQ(q.empty(), ref.empty());
  }
  while (!ref.empty()) {
    const EventQueue::Item got = q.pop();
    EXPECT_EQ(got.t, ref.top().t);
    EXPECT_EQ(got.seq, ref.top().seq);
    now = got.t;
    ref.pop();
  }
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, MatchesPriorityQueueUnderRandomSchedules) {
  for (std::uint64_t s = 1; s <= 8; ++s) crossCheck(s, 400);
}

TEST(EventQueue, FifoWithinTimestamp) {
  EventQueue q;
  for (std::uint64_t i = 0; i < 100; ++i) {
    q.push(0, 50, i, std::coroutine_handle<>{});
  }
  for (std::uint64_t i = 0; i < 100; ++i) {
    const EventQueue::Item e = q.pop();
    EXPECT_EQ(e.t, 50u);
    EXPECT_EQ(e.seq, i);
  }
}

TEST(EventQueue, SparseTimestampsPopInOrder) {
  // Timestamps days apart must still pop in exact order.
  EventQueue q;
  std::vector<Time> times;
  std::mt19937_64 rng(9);
  for (std::uint64_t i = 0; i < 200; ++i) {
    const Time t = rng() % (86'400ULL * sim::kSecond);
    times.push_back(t);
    q.push(0, t, i, std::coroutine_handle<>{});
  }
  std::sort(times.begin(), times.end());
  for (Time expect : times) {
    EXPECT_EQ(q.pop().t, expect);
  }
}

// --- scheduleAt precondition: clamped and counted in release builds ------

TEST(Simulation, PastScheduleIsClampedAndCounted) {
#ifdef NDEBUG
  Simulation simu;
  struct PastAwaiter {
    Simulation* s;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) const {
      // A (buggy) 5us-in-the-past schedule: must run at now, not corrupt
      // the timeline.
      s->scheduleAt(s->now() - 5_us, h);
    }
    void await_resume() const noexcept {}
  };
  Time resumed_at = 0;
  simu.spawn([](Simulation& s, Time& out) -> Task<void> {
    co_await s.delay(10_us);
    co_await PastAwaiter{&s};
    out = s.now();
  }(simu, resumed_at));
  simu.run();
  EXPECT_EQ(resumed_at, 10_us);
  EXPECT_EQ(simu.pastScheduleClamps(), 1u);
  EXPECT_EQ(simu.now(), 10_us);
#else
  GTEST_SKIP() << "debug build: past scheduleAt is an assertion failure";
#endif
}

// --- Pooled frames: steady-state spawning allocates nothing fresh --------

using sim::detail::FramePool;

long long heapBytes() { return static_cast<long long>(mallinfo2().uordblks); }

Task<int> child(Simulation& s) {
  co_await s.delay(2_us);
  co_return 1;
}

// Takes the station (handing it off FIFO to the next process), then spawns
// a child and joins it while the child is still running.
Task<void> steadyProcess(Simulation& s, sim::QueueStation& st) {
  co_await s.delay(1_us);
  co_await st.exec(1_us);
  sim::ProcHandle h = s.spawn([](Simulation& s2) -> Task<void> {
    co_await s2.delay(1_us);
  }(s));
  co_await h.join();
  co_await child(s);
}

TEST(FramePool, SteadyStateSpawningReusesFrames) {
  Simulation simu;
  sim::QueueStation st(simu, "st", 1);
  // Returns the heap bytes while 63 processes wait for the station.
  auto spawnBatch = [&] {
    for (int i = 0; i < 64; ++i) simu.spawn(steadyProcess(simu, st));
    simu.runUntil(simu.now() + 1500);  // 1.5 us in: one holds the station
    EXPECT_EQ(st.queueLength(), 63u);
    const long long queued = heapBytes();
    simu.run();
    return queued;
  };
  spawnBatch();  // warm the pool and the event queue
  const auto before = FramePool::threadStats();
  const long long heap0 = heapBytes();
  const long long queued_growth = spawnBatch() - heap0;  // identical shape
  const long long growth = heapBytes() - heap0;
  const auto after = FramePool::threadStats();
  EXPECT_GT(after.allocs, before.allocs);
  EXPECT_GT(after.reuses, before.reuses);
  EXPECT_EQ(after.fresh, before.fresh) << "steady-state batch hit malloc";
  EXPECT_EQ(queued_growth, 0) << "waiting allocated";
  EXPECT_EQ(growth, 0);
}

// A frame larger than the largest bucket comes from ::operator new and
// goes back through the sized ::operator delete with its own size (an ASan
// build checks the size matches).
Task<int> bigFrame(Simulation& s) {
  std::array<unsigned char, 6000> buf;
  for (std::size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<unsigned char>(i * 7);
  }
  co_await s.delay(1_us);  // buf lives across the suspension, in the frame
  int sum = 0;
  for (unsigned char c : buf) sum += c;
  co_return sum;
}

TEST(FramePool, OversizeFrameRoundTripsThroughSizedDelete) {
  int expect = 0;
  for (std::size_t i = 0; i < 6000; ++i) {
    expect += static_cast<unsigned char>(i * 7);
  }
  Simulation simu;
  int got = 0;
  const auto before = FramePool::threadStats();
  simu.spawn([](Simulation& s, int& out) -> Task<void> {
    out = co_await bigFrame(s);
  }(simu, got));
  simu.run();
  const auto after = FramePool::threadStats();
  EXPECT_EQ(got, expect);
  EXPECT_EQ(after.oversize, before.oversize + 1);
}

// --- Waits allocate nothing ----------------------------------------------

Task<void> useStation(sim::QueueStation& st) { co_await st.exec(1_us); }

TEST(WaitList, QueueStationBuildsAndQueuesWithoutHeap) {
  Simulation simu;
  // Warm the frame pool and the event queue with the same shape.
  {
    sim::QueueStation warm(simu, "st", 1);
    for (int i = 0; i < 1000; ++i) simu.spawn(useStation(warm));
    simu.run();
  }
  // Many stations: glibc's per-thread cache keeps a few freed blocks
  // counted as in use, so a handful of builds could hide an allocation.
  std::array<std::optional<sim::QueueStation>, 64> stations;
  const long long heap0 = heapBytes();
  for (auto& st : stations) st.emplace(simu, "st", 1);
  EXPECT_EQ(heapBytes() - heap0, 0) << "building a station allocated";
  sim::QueueStation& st = *stations.front();
  for (int i = 0; i < 1000; ++i) simu.spawn(useStation(st));
  EXPECT_EQ(st.queueLength(), 999u);
  EXPECT_EQ(heapBytes() - heap0, 0) << "queueing 1,000 waiters allocated";
  simu.run();
  EXPECT_EQ(st.ops(), 1000u);
  EXPECT_EQ(simu.now(), 2000_us);
}

Task<void> awaitEvent(sim::Event& ev, int& woken) {
  co_await ev.wait();
  ++woken;
}

Task<void> arrive(sim::Barrier& b, int& passed) {
  co_await b.arriveAndWait();
  ++passed;
}

Task<void> joinProc(sim::ProcHandle h, int& joined) {
  co_await h.join();
  ++joined;
}

Task<void> sleeper(Simulation& s) { co_await s.delay(5_us); }

TEST(WaitList, EventBarrierAndJoinWaitWithoutHeap) {
  constexpr int kWaiters = 200;
  Simulation simu;
  int woken = 0;
  int passed = 0;
  int joined = 0;
  auto round = [&](bool measure) {
    sim::Event ev(simu);
    sim::Barrier barrier(simu, kWaiters + 1);
    const sim::ProcHandle running = simu.spawn(sleeper(simu));
    const long long heap0 = heapBytes();
    for (int i = 0; i < kWaiters; ++i) {
      simu.spawn(awaitEvent(ev, woken));
      simu.spawn(arrive(barrier, passed));
      simu.spawn(joinProc(running, joined));
    }
    if (measure) {
      EXPECT_EQ(heapBytes() - heap0, 0) << "a wait allocated";
    }
    EXPECT_EQ(woken + passed + joined, 0);
    ev.set();
    simu.spawn(arrive(barrier, passed));
    simu.run();
    EXPECT_TRUE(running.done());
  };
  round(false);  // warm the frame pool and the event queue
  woken = passed = joined = 0;
  round(true);
  EXPECT_EQ(woken, kWaiters);
  EXPECT_EQ(passed, kWaiters + 1);
  EXPECT_EQ(joined, kWaiters);
}

// Wakes keep FIFO order: the oldest waiter of each primitive runs first.
TEST(WaitList, WakesInArrivalOrder) {
  Simulation simu;
  sim::QueueStation st(simu, "st", 1);
  sim::Event ev(simu);
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    simu.spawn([](sim::QueueStation& q, sim::Event& e, std::vector<int>& out,
                  int id) -> Task<void> {
      co_await e.wait();
      co_await q.exec(1_us);
      out.push_back(id);
    }(st, ev, order, i));
  }
  ev.set();
  simu.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

// --- Forwarding calls add no coroutine frame ------------------------------

Task<void> bareSend(hw::Cluster* c) { co_await c->send(0, 1, 4096); }

Task<void> disabledRequest(hw::Cluster* c) {
  co_await net::request(*c, 0, 1, 4096 - net::kSmallRequest);
}

std::uint64_t poolAllocsOf(Task<void> (*make)(hw::Cluster*)) {
  Simulation simu;
  hw::Cluster cluster(simu);
  cluster.addNodes(hw::NodeSpec{}, 2);
  const std::uint64_t before = FramePool::threadStats().allocs;
  simu.spawn(make(&cluster));
  simu.run();
  EXPECT_EQ(cluster.messages(), 1u);
  EXPECT_EQ(cluster.bytesSent(), 4096u);
  return FramePool::threadStats().allocs - before;
}

TEST(FramePool, DisabledPolicyRequestCostsABareSendsFrames) {
  const std::uint64_t send = poolAllocsOf(bareSend);
  EXPECT_GT(send, 0u);
  EXPECT_EQ(poolAllocsOf(disabledRequest), send);
}

// --- ProcHandle: intrusive refcount keeps join state alive ---------------

TEST(ProcHandle, CopiesShareStateAndOutliveTheProcess) {
  Simulation simu;
  sim::ProcHandle a = simu.spawn([](Simulation& s) -> Task<void> {
    co_await s.delay(1_us);
  }(simu));
  sim::ProcHandle b = a;             // copy
  sim::ProcHandle c = std::move(a);  // move
  EXPECT_FALSE(a.valid());
  simu.run();
  EXPECT_TRUE(b.done());
  EXPECT_TRUE(c.done());
  bool joined = false;
  simu.spawn([](sim::ProcHandle h, bool& out) -> Task<void> {
    co_await h.join();
    out = true;
  }(b, joined));
  simu.run();
  EXPECT_TRUE(joined);
}

// --- Serial vs parallel sweep determinism --------------------------------

// Exhaustive RunResult comparison, histogram buckets included.
void expectIdentical(const apps::RunResult& x, const apps::RunResult& y) {
  ASSERT_EQ(x.procs, y.procs);
  for (int ph = 0; ph < 2; ++ph) {
    const apps::PhaseResult& p = x.phase[ph];
    const apps::PhaseResult& q = y.phase[ph];
    ASSERT_EQ(p.bytes, q.bytes);
    ASSERT_EQ(p.ops, q.ops);
    ASSERT_EQ(p.first_start, q.first_start);
    ASSERT_EQ(p.last_end, q.last_end);
    ASSERT_EQ(p.latency.count(), q.latency.count());
    ASSERT_EQ(p.latency.min(), q.latency.min());
    ASSERT_EQ(p.latency.max(), q.latency.max());
    for (std::size_t i = 0; i < obs::Histogram::kBuckets; ++i) {
      ASSERT_EQ(p.latency.bucketCount(i), q.latency.bucketCount(i));
    }
  }
}

apps::RunResult runPoint(int clients, int ppn, std::uint64_t seed) {
  apps::DaosTestbed::Options opt;
  opt.server_nodes = 2;
  opt.client_nodes = clients;
  opt.seed = seed;
  opt.with_dfuse = false;
  apps::DaosTestbed tb(opt);
  apps::IorConfig cfg;
  cfg.ops = 40;
  apps::Ior bench(tb.ioEnv(), "daos-array", cfg);
  return apps::runSpmd(tb.sim(), tb.clientSubset(clients), ppn, bench);
}

TEST(ParallelMap, SweepMatchesSerialBitwise) {
  // 4 sweep points x 2 reps, mapped on 1 and on 4 threads; each simulation
  // is self-contained and seed-deterministic, so the two must agree on
  // every field of every result.
  struct Pt {
    int clients, ppn;
  };
  const std::vector<Pt> grid = {{1, 2}, {2, 2}, {2, 4}, {4, 2}};
  const int reps = 2;

  auto runAll = [&](int jobs) {
    return sim::parallelMap(grid.size() * reps, jobs, [&](std::size_t i) {
      const Pt pt = grid[i / reps];
      const std::uint64_t seed = i % reps + 1;
      return runPoint(pt.clients, pt.ppn, seed);
    });
  };
  const auto serial = runAll(1);
  const auto parallel = runAll(4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    expectIdentical(serial[i], parallel[i]);
  }
}

TEST(ParallelMap, OneJobRunsInIndexOrderOnTheCallingThread) {
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  const auto squares = sim::parallelMap(4, 1, [&](std::size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
    return i * i;
  });
  EXPECT_EQ(squares, (std::vector<std::size_t>{0, 1, 4, 9}));
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3}));
}

TEST(ParallelMap, NoIndexStartsAfterASerialFailure) {
  int calls = 0;
  EXPECT_THROW(sim::parallelMap(8, 1,
                                [&](std::size_t i) -> int {
                                  ++calls;
                                  if (i == 2) throw std::runtime_error("two");
                                  return 0;
                                }),
               std::runtime_error);
  EXPECT_EQ(calls, 3);
}

TEST(ParallelMap, RethrowsTheLowestIndexError) {
  // Every call throws; whichever thread fails first, index 0 has started
  // by then and its error is the one rethrown.
  for (int trial = 0; trial < 20; ++trial) {
    try {
      sim::parallelMap(16, 4, [](std::size_t i) -> int {
        throw std::invalid_argument("job" + std::to_string(i));
      });
      FAIL() << "parallelMap should have thrown";
    } catch (const std::invalid_argument& e) {
      EXPECT_STREQ(e.what(), "job0");
    }
  }
}

}  // namespace
}  // namespace daosim
