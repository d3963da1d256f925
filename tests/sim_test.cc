// Unit tests for the discrete-event kernel: scheduling order, coroutine
// task semantics, synchronization primitives and queueing stations.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/observer.h"
#include "sim/queue_station.h"
#include "sim/rng.h"
#include "sim/simulation.h"
#include "sim/stats.h"
#include "sim/sync.h"
#include "sim/task.h"
#include "sim/time.h"

namespace daosim::sim {
namespace {

using namespace daosim::sim::literals;

TEST(SimTime, Conversions) {
  EXPECT_EQ(1_s, kSecond);
  EXPECT_EQ(1_ms, kMillisecond);
  EXPECT_EQ(1_us, kMicrosecond);
  EXPECT_DOUBLE_EQ(toSeconds(1'500'000'000), 1.5);
  EXPECT_EQ(fromSeconds(2.5), 2'500'000'000ULL);
}

TEST(Simulation, DelayAdvancesTime) {
  Simulation sim;
  Time seen = 0;
  sim.spawn([](Simulation& s, Time& out) -> Task<void> {
    co_await s.delay(10_us);
    co_await s.delay(5_us);
    out = s.now();
  }(sim, seen));
  sim.run();
  EXPECT_EQ(seen, 15_us);
  EXPECT_EQ(sim.now(), 15_us);
}

TEST(Simulation, FifoOrderAtEqualTimes) {
  Simulation sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.spawn([](Simulation& s, std::vector<int>& o, int id) -> Task<void> {
      co_await s.delay(1_us);
      o.push_back(id);
    }(sim, order, i));
  }
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulation, NestedTaskReturnValues) {
  Simulation sim;
  auto inner = [](Simulation& s) -> Task<int> {
    co_await s.delay(1_us);
    co_return 41;
  };
  int result = 0;
  sim.spawn([](Simulation& s, auto inner_fn, int& out) -> Task<void> {
    out = co_await inner_fn(s) + 1;
  }(sim, inner, result));
  sim.run();
  EXPECT_EQ(result, 42);
}

TEST(Simulation, ExceptionPropagatesThroughJoin) {
  Simulation sim;
  auto h = sim.spawn([](Simulation& s) -> Task<void> {
    co_await s.delay(1_us);
    throw std::runtime_error("boom");
  }(sim));
  bool caught = false;
  sim.spawn([](Simulation&, ProcHandle p, bool& c) -> Task<void> {
    try {
      co_await p.join();
    } catch (const std::runtime_error& e) {
      c = std::string(e.what()) == "boom";
    }
  }(sim, h, caught));
  sim.run();
  EXPECT_TRUE(caught);
  EXPECT_TRUE(h.failed());
}

TEST(Simulation, JoinAfterCompletionIsImmediate) {
  Simulation sim;
  auto h = sim.spawn([](Simulation& s) -> Task<void> {
    co_await s.delay(1_us);
  }(sim));
  sim.run();
  ASSERT_TRUE(h.done());
  bool joined = false;
  sim.spawn([](Simulation&, ProcHandle p, bool& j) -> Task<void> {
    co_await p.join();
    j = true;
  }(sim, h, joined));
  sim.run();
  EXPECT_TRUE(joined);
}

TEST(Simulation, RunUntilStopsAtDeadline) {
  Simulation sim;
  int ticks = 0;
  sim.spawn([](Simulation& s, int& t) -> Task<void> {
    for (int i = 0; i < 10; ++i) {
      co_await s.delay(1_ms);
      ++t;
    }
  }(sim, ticks));
  sim.runUntil(3_ms);
  EXPECT_EQ(ticks, 3);
  EXPECT_EQ(sim.now(), 3_ms);
  sim.run();
  EXPECT_EQ(ticks, 10);
}

TEST(Simulation, EventBudgetThrows) {
  Simulation sim;
  sim.spawn([](Simulation& s) -> Task<void> {
    for (;;) co_await s.yield();
  }(sim));
  EXPECT_THROW(sim.run(1000), std::runtime_error);
}

/// Counts how many frame locals have been destroyed.
struct DtorCount {
  int* n;
  ~DtorCount() { ++*n; }
};

Task<void> acquireIn(Semaphore* sem, int* n) {
  DtorCount c{n};
  co_await sem->acquire();
}

// Tears a Simulation down while processes wait on every primitive. Each
// suspended frame is destroyed once (no leak under LeakSanitizer), and no
// waiter list is walked once its frames are gone (no use-after-free under
// AddressSanitizer), whether the primitives die before the Simulation or
// outlive it.
void destroyWithWaiters(bool primitives_die_first) {
  int dtors = 0;
  std::optional<Simulation> sim(std::in_place);
  std::optional<Semaphore> sem(std::in_place, *sim, 0);  // never released
  std::optional<Event> ev(std::in_place, *sim);           // never set
  std::optional<Barrier> barrier(std::in_place, *sim, 3);  // two arrive
  auto observer = std::make_unique<obs::Observer>();
  observer->attach(*sim);
  sim->spawn([](Simulation& s, int& n) -> Task<void> {  // livelocked
    DtorCount c{&n};
    for (;;) co_await s.yield();
  }(*sim, dtors));
  ProcHandle waiter = sim->spawn([](Semaphore& sm, int& n) -> Task<void> {
    DtorCount c{&n};
    co_await acquireIn(&sm, &n);  // a two-frame task chain
  }(*sem, dtors));
  sim->spawn([](ProcHandle h, int& n) -> Task<void> {  // pending join
    DtorCount c{&n};
    co_await h.join();
  }(waiter, dtors));
  sim->spawn([](Simulation& s, Semaphore& sm, int& n) -> Task<void> {
    auto op = obs::beginOp(s, "test.op", 0, "proc");
    DtorCount c{&n};
    co_await sm.acquire();
  }(*sim, *sem, dtors));
  sim->spawn([](Event& e, int& n) -> Task<void> {
    DtorCount c{&n};
    co_await e.wait();
  }(*ev, dtors));
  for (int i = 0; i < 2; ++i) {
    sim->spawn([](Barrier& b, int& n) -> Task<void> {
      DtorCount c{&n};
      co_await b.arriveAndWait();
    }(*barrier, dtors));
  }
  EXPECT_THROW(sim->run(1000), std::runtime_error);
  EXPECT_EQ(dtors, 0);
  if (primitives_die_first) {
    sem.reset();
    ev.reset();
    barrier.reset();
    EXPECT_EQ(dtors, 0);
  }
  // The open op's observer leaves first: closing its scope must not touch
  // the freed observer.
  observer.reset();
  sim.reset();
  EXPECT_EQ(dtors, 8);
  EXPECT_FALSE(waiter.done());
}

TEST(Simulation, DestructionFreesSuspendedProcesses) {
  destroyWithWaiters(false);
  destroyWithWaiters(true);
}

TEST(Event, WakesAllWaiters) {
  Simulation sim;
  Event ev(sim);
  int woken = 0;
  for (int i = 0; i < 3; ++i) {
    sim.spawn([](Event& e, int& w) -> Task<void> {
      co_await e.wait();
      ++w;
    }(ev, woken));
  }
  sim.spawn([](Simulation& s, Event& e) -> Task<void> {
    co_await s.delay(5_us);
    e.set();
    e.set();  // idempotent
  }(sim, ev));
  sim.run();
  EXPECT_EQ(woken, 3);
  EXPECT_TRUE(ev.isSet());
}

TEST(Event, WaitAfterSetDoesNotBlock) {
  Simulation sim;
  Event ev(sim);
  ev.set();
  bool ran = false;
  sim.spawn([](Event& e, bool& r) -> Task<void> {
    co_await e.wait();
    r = true;
  }(ev, ran));
  sim.run();
  EXPECT_TRUE(ran);
}

TEST(Semaphore, LimitsConcurrency) {
  Simulation sim;
  Semaphore sem(sim, 2);
  int concurrent = 0;
  int peak = 0;
  for (int i = 0; i < 6; ++i) {
    sim.spawn([](Simulation& s, Semaphore& sm, int& c, int& p) -> Task<void> {
      co_await sm.acquire();
      ++c;
      p = std::max(p, c);
      co_await s.delay(10_us);
      --c;
      sm.release();
    }(sim, sem, concurrent, peak));
  }
  sim.run();
  EXPECT_EQ(peak, 2);
  EXPECT_EQ(sim.now(), 30_us);  // 6 jobs, 2 at a time, 10us each
}

TEST(Barrier, ReleasesAllTogether) {
  Simulation sim;
  Barrier bar(sim, 3);
  std::vector<Time> release_times;
  for (int i = 0; i < 3; ++i) {
    sim.spawn([](Simulation& s, Barrier& b, std::vector<Time>& out,
                 int id) -> Task<void> {
      co_await s.delay(static_cast<Time>(id + 1) * 1_us);
      co_await b.arriveAndWait();
      out.push_back(s.now());
    }(sim, bar, release_times, i));
  }
  sim.run();
  ASSERT_EQ(release_times.size(), 3u);
  for (Time t : release_times) EXPECT_EQ(t, 3_us);
  EXPECT_EQ(bar.generation(), 1u);
}

TEST(Barrier, IsCyclic) {
  Simulation sim;
  Barrier bar(sim, 2);
  int rounds_done = 0;
  for (int i = 0; i < 2; ++i) {
    sim.spawn([](Simulation& s, Barrier& b, int& done, int id) -> Task<void> {
      for (int r = 0; r < 3; ++r) {
        co_await s.delay(static_cast<Time>(id + 1) * 1_us);
        co_await b.arriveAndWait();
      }
      ++done;
    }(sim, bar, rounds_done, i));
  }
  sim.run();
  EXPECT_EQ(rounds_done, 2);
  EXPECT_EQ(bar.generation(), 3u);
}

TEST(WhenAll, RunsConcurrently) {
  Simulation sim;
  std::vector<Task<void>> tasks;
  auto sleeper = [](Simulation& s) -> Task<void> { co_await s.delay(10_us); };
  for (int i = 0; i < 5; ++i) tasks.push_back(sleeper(sim));
  sim.spawn(whenAll(sim, std::move(tasks)));
  sim.run();
  EXPECT_EQ(sim.now(), 10_us);  // concurrent, not 50us
}

TEST(WhenAll, PropagatesFirstError) {
  Simulation sim;
  std::vector<Task<void>> tasks;
  tasks.push_back([](Simulation& s) -> Task<void> {
    co_await s.delay(1_us);
    throw std::runtime_error("first");
  }(sim));
  tasks.push_back([](Simulation& s) -> Task<void> {
    co_await s.delay(2_us);
    throw std::runtime_error("second");
  }(sim));
  auto h = sim.spawn(whenAll(sim, std::move(tasks)));
  sim.run();
  ASSERT_TRUE(h.failed());
  bool caught = false;
  sim.spawn([](ProcHandle p, bool& c) -> Task<void> {
    try {
      co_await p.join();
    } catch (const std::runtime_error& e) {
      c = std::string(e.what()) == "first";
    }
  }(h, caught));
  sim.run();
  EXPECT_TRUE(caught);
}

/// Returns `v` after `d`, or throws "task <v>" if `fail`.
Task<int> valueAfter(Simulation& s, Time d, int v, bool fail = false) {
  co_await s.delay(d);
  if (fail) throw std::runtime_error("task " + std::to_string(v));
  co_return v;
}

Task<void> sleepFor(Simulation& s, Time d) { co_await s.delay(d); }

TEST(WhenAll, ReturnsResultsInTaskOrder) {
  Simulation sim;
  std::vector<int> got;
  sim.spawn([](Simulation& s, std::vector<int>& out) -> Task<void> {
    std::vector<Task<int>> tasks;
    // Later tasks finish first.
    for (int i = 0; i < 4; ++i) {
      tasks.push_back(valueAfter(s, static_cast<Time>(4 - i) * 1_us, i));
    }
    auto results = co_await whenAll(s, std::move(tasks));
    out = std::move(results);
  }(sim, got));
  sim.run();
  EXPECT_EQ(got, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(sim.now(), 4_us);
}

TEST(WhenAll, RethrowsLowestIndexFailureAfterEveryTaskFinishes) {
  Simulation sim;
  std::string error;
  Time failed_at = 0;
  sim.spawn([](Simulation& s, std::string& err, Time& at) -> Task<void> {
    std::vector<Task<int>> tasks;
    tasks.push_back(valueAfter(s, 2_us, 0, /*fail=*/true));
    tasks.push_back(valueAfter(s, 1_us, 1, /*fail=*/true));
    tasks.push_back(valueAfter(s, 3_us, 2));
    try {
      co_await whenAll(s, std::move(tasks));
    } catch (const std::runtime_error& e) {
      err = e.what();
    }
    at = s.now();
  }(sim, error, failed_at));
  sim.run();
  EXPECT_EQ(error, "task 0");  // index order, not completion order
  EXPECT_EQ(failed_at, 3_us);  // only once index 2 has completed
}

TEST(WhenAll, SingleTaskStillSpawns) {
  // 0: awaited inline; 1: void overload; 2: typed overload.
  auto events = [](int how) {
    Simulation sim;
    sim.spawn([](Simulation& s, int how) -> Task<void> {
      if (how == 0) {
        co_await valueAfter(s, 1_us, 7);
      } else if (how == 1) {
        std::vector<Task<void>> one;
        one.push_back(sleepFor(s, 1_us));
        co_await whenAll(s, std::move(one));
      } else {
        std::vector<Task<int>> one;
        one.push_back(valueAfter(s, 1_us, 7));
        auto results = co_await whenAll(s, std::move(one));
        EXPECT_EQ(results, std::vector<int>{7});
      }
    }(sim, how));
    sim.run();
    return sim.processedEvents();
  };
  EXPECT_EQ(events(2), events(1));
  EXPECT_GT(events(2), events(0));  // the join is an event of its own
}

TEST(QueueStation, SingleServerSerializes) {
  Simulation sim;
  QueueStation st(sim, "dev", 1);
  for (int i = 0; i < 4; ++i) {
    sim.spawn([](QueueStation& s) -> Task<void> {
      co_await s.exec(100_us);
    }(st));
  }
  sim.run();
  EXPECT_EQ(sim.now(), 400_us);
  EXPECT_EQ(st.ops(), 4u);
  EXPECT_EQ(st.busyTime(), 400_us);
  // First job waits 0, then 100, 200, 300us.
  EXPECT_EQ(st.totalWait(), 600_us);
  EXPECT_DOUBLE_EQ(st.meanWait(), 150e3);
  EXPECT_DOUBLE_EQ(st.utilization(400_us), 1.0);
}

TEST(QueueStation, BusyTimeCountsServicesInProgress) {
  Simulation sim;
  QueueStation st(sim, "xs", 2);
  sim.spawn([](QueueStation& s) -> Task<void> {
    co_await s.exec(100_us);
  }(st));
  sim.spawn([](Simulation& sm, QueueStation& s) -> Task<void> {
    co_await sm.delay(20_us);
    const Time acquired_at = co_await s.enter();
    co_await sm.delay(50_us);
    s.leave(acquired_at);
  }(sim, st));
  sim.runUntil(40_us);
  EXPECT_EQ(st.busyTime(), 40_us + 20_us);  // both services are running
  sim.runUntil(80_us);
  EXPECT_EQ(st.busyTime(), 80_us + 50_us);  // the hold ended at 70us
  sim.run();
  EXPECT_EQ(st.busyTime(), 150_us);
}

TEST(QueueStation, MultiServerParallelism) {
  Simulation sim;
  QueueStation st(sim, "nic", 4);
  for (int i = 0; i < 8; ++i) {
    sim.spawn([](QueueStation& s) -> Task<void> {
      co_await s.exec(10_us);
    }(st));
  }
  sim.run();
  EXPECT_EQ(sim.now(), 20_us);  // two waves of four
}

TEST(QueueStation, SaturationThroughputMatchesServiceRate) {
  // 1 server, 1ms service -> 1000 ops/s; run 100 ops and check the span.
  Simulation sim;
  QueueStation st(sim, "x", 1);
  const int n = 100;
  for (int i = 0; i < n; ++i) {
    sim.spawn([](QueueStation& s) -> Task<void> {
      co_await s.exec(1_ms);
    }(st));
  }
  sim.run();
  const double ops_per_sec = n / toSeconds(sim.now());
  EXPECT_NEAR(ops_per_sec, 1000.0, 1e-6);
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, UniformWithinBounds) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    auto v = r.uniform(10, 20);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 20u);
  }
}

TEST(Rng, Real01Range) {
  Rng r(3);
  for (int i = 0; i < 1000; ++i) {
    double v = r.real01();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, ExponentialMeanRoughlyCorrect) {
  Rng r(11);
  Welford w;
  for (int i = 0; i < 20000; ++i) w.add(r.exponential(5.0));
  EXPECT_NEAR(w.mean(), 5.0, 0.2);
}

TEST(Welford, BasicMoments) {
  Welford w;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) w.add(x);
  EXPECT_EQ(w.count(), 8u);
  EXPECT_DOUBLE_EQ(w.mean(), 5.0);
  EXPECT_NEAR(w.stddev(), 2.138, 1e-3);
  EXPECT_DOUBLE_EQ(w.min(), 2.0);
  EXPECT_DOUBLE_EQ(w.max(), 9.0);
}

TEST(Welford, EmptyIsZero) {
  Welford w;
  EXPECT_EQ(w.count(), 0u);
  EXPECT_DOUBLE_EQ(w.mean(), 0.0);
  EXPECT_DOUBLE_EQ(w.stddev(), 0.0);
  EXPECT_DOUBLE_EQ(w.min(), 0.0);
  EXPECT_DOUBLE_EQ(w.max(), 0.0);
}

TEST(Welford, SingleSampleHasZeroSpread) {
  Welford w;
  w.add(42.0);
  EXPECT_EQ(w.count(), 1u);
  EXPECT_DOUBLE_EQ(w.mean(), 42.0);
  EXPECT_DOUBLE_EQ(w.variance(), 0.0);
  EXPECT_DOUBLE_EQ(w.stddev(), 0.0);
  EXPECT_DOUBLE_EQ(w.min(), 42.0);
  EXPECT_DOUBLE_EQ(w.max(), 42.0);
}

TEST(Welford, ConstantSeriesHasZeroVariance) {
  Welford w;
  for (int i = 0; i < 1000; ++i) w.add(3.25);
  EXPECT_EQ(w.count(), 1000u);
  EXPECT_DOUBLE_EQ(w.mean(), 3.25);
  // Welford's update must not accumulate rounding noise on a constant
  // stream; the naive sum-of-squares formulation does.
  EXPECT_DOUBLE_EQ(w.variance(), 0.0);
  EXPECT_DOUBLE_EQ(w.min(), 3.25);
  EXPECT_DOUBLE_EQ(w.max(), 3.25);
}

TEST(Mix64, HashCombineVariesWithOrder) {
  EXPECT_NE(hashCombine(1, 2), hashCombine(2, 1));
  EXPECT_EQ(hashCombine(1, 2), hashCombine(1, 2));
}

// Determinism property: two identical simulations produce identical event
// traces (same final time, same processed-event count).
TEST(Simulation, DeterministicReplay) {
  auto runOnce = [] {
    Simulation sim(123);
    QueueStation st(sim, "d", 2);
    for (int i = 0; i < 50; ++i) {
      sim.spawn([](Simulation& s, QueueStation& q, int id) -> Task<void> {
        co_await s.delay(s.rng().uniform(0, 1000) * kMicrosecond);
        co_await q.exec((100 + static_cast<Time>(id)) * kMicrosecond);
      }(sim, st, i));
    }
    sim.run();
    return std::pair(sim.now(), sim.processedEvents());
  };
  auto a = runOnce();
  auto b = runOnce();
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace daosim::sim
