// Fault-injection tests: FaultPlan grammar and generator, retry/backoff
// determinism, timeout and retry-budget behaviour, the FaultInjector's
// degraded-path flow, and a seeded property suite asserting that no
// acknowledged write is lost while the redundancy bound holds.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "apps/fault_injector.h"
#include "apps/testbed.h"
#include "daos/array.h"
#include "daos/client.h"
#include "daos/engine.h"
#include "daos/system.h"
#include "hw/cluster.h"
#include "net/retry.h"
#include "net/rpc.h"
#include "obs/telemetry.h"
#include "sim/fault_plan.h"
#include "sim/rng.h"
#include "sim/simulation.h"
#include "vos/payload.h"

namespace daosim {
namespace {

using sim::FaultEvent;
using sim::FaultKind;
using sim::FaultPlan;
using sim::FaultTopology;
using sim::Task;
using sim::Time;
using namespace sim::literals;

// --- plan grammar ---------------------------------------------------------

TEST(FaultPlanParse, ParsesEveryKindWithUnits) {
  const FaultTopology topo{.targets = 16, .engines = 4, .nodes = 8};
  FaultPlan p = FaultPlan::parse(
      "fail@150ms:t3; recover@180ms:t3; exclude@200ms:t2;"
      "slow@40ms:t7,x8; flap@120ms:n5,15ms; stall@80us:e1,10us",
      topo);
  ASSERT_EQ(p.size(), 6u);
  // Sorted by time: stall@80us, slow@40ms, flap@120ms, fail, recover, excl.
  EXPECT_EQ(p.events()[0].kind, FaultKind::kEngineStall);
  EXPECT_EQ(p.events()[0].at, 80_us);
  EXPECT_EQ(p.events()[0].subject, 1);
  EXPECT_EQ(p.events()[0].duration, 10_us);
  EXPECT_EQ(p.events()[1].kind, FaultKind::kTargetSlow);
  EXPECT_EQ(p.events()[1].at, 40_ms);
  EXPECT_EQ(p.events()[1].subject, 7);
  EXPECT_EQ(p.events()[1].factor, 8.0);
  EXPECT_EQ(p.events()[2].kind, FaultKind::kNicFlap);
  EXPECT_EQ(p.events()[2].duration, 15_ms);
  EXPECT_EQ(p.events()[3].kind, FaultKind::kTargetFail);
  EXPECT_EQ(p.events()[4].kind, FaultKind::kTargetRecover);
  EXPECT_EQ(p.events()[5].kind, FaultKind::kTargetExclude);
  EXPECT_EQ(p.events()[5].subject, 2);
}

TEST(FaultPlanParse, DescribeRoundTrips) {
  const FaultTopology topo{.targets = 16, .engines = 4, .nodes = 8};
  FaultPlan p = FaultPlan::parse(
      "slow@40ms:t7,x8;stall@80ms:e1,10ms;flap@120ms:n5,15ms;exclude@200ms:t3",
      topo);
  FaultPlan q = FaultPlan::parse(p.describe(), topo);
  EXPECT_EQ(p.describe(), q.describe());
  ASSERT_EQ(p.size(), q.size());
  for (std::size_t i = 0; i < p.size(); ++i) {
    EXPECT_EQ(p.events()[i].at, q.events()[i].at);
    EXPECT_EQ(p.events()[i].kind, q.events()[i].kind);
    EXPECT_EQ(p.events()[i].subject, q.events()[i].subject);
    EXPECT_EQ(p.events()[i].factor, q.events()[i].factor);
    EXPECT_EQ(p.events()[i].duration, q.events()[i].duration);
  }
}

TEST(FaultPlanParse, EmptySpecIsEmptyPlan) {
  EXPECT_TRUE(FaultPlan::parse("", {}).empty());
  EXPECT_TRUE(FaultPlan::parse("  ", {}).empty());
  EXPECT_TRUE(FaultPlan::parse(" ; ;; ", {}).empty());
}

TEST(FaultPlanParse, RejectsMalformedSpecs) {
  const FaultTopology topo{.targets = 12, .engines = 3, .nodes = 4};
  EXPECT_THROW(FaultPlan::parse("bogus@1ms:t0", topo), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("fail@1ms", topo), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("fail@oops:t0", topo), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("fail@1ms:n0", topo), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("fail@1ms:t0,x2", topo),
               std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("slow@1ms:t0", topo), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("slow@1ms:t0,8", topo), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("slow@1ms:t0,x0.5", topo),
               std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("flap@1ms:n0", topo), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("stall@1ms:e0", topo), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("fail@0ns:t0", topo), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("random:seed=1,bogus=2", topo),
               std::invalid_argument);
  // Every number is all of its token: no sign, blank or trailing junk, and
  // no value outside its range.
  for (const char* bad :
       {"fail@1ms:t+5", "fail@1ms:t 5", "fail@1ms:t5x", "fail@1ms:t-1",
        "fail@1ms:t99999999999", "slow@1ms:t0,x2junk", "slow@1ms:t0,xinf",
        "slow@1ms:t0,xnan", "slow@1ms:t0,x1e7", "slow@1ms:t0,x 2",
        "fail@inf:t0", "flap@1ms:n0,1e30", "random:seed=1,events=-5",
        "random:seed=1,events=3x", "random:seed=-1", "random:events=0",
        "random:events=1000001", "random:seed=1,horizon=inf"}) {
    EXPECT_THROW(FaultPlan::parse(bad, topo), std::invalid_argument) << bad;
  }
  EXPECT_EQ(FaultPlan::parse("slow@1ms:t0,x1e6", topo).events()[0].factor,
            1e6);
  EXPECT_FALSE(
      FaultPlan::parse("random:seed=18446744073709551615,events=6", topo)
          .empty());
  // Subjects outside the topology are out_of_range (zero fields skip the
  // check, for parse-only use).
  EXPECT_THROW(FaultPlan::parse("fail@1ms:t12", topo), std::out_of_range);
  EXPECT_THROW(FaultPlan::parse("stall@1ms:e3", topo), std::out_of_range);
  EXPECT_THROW(FaultPlan::parse("flap@1ms:n4", topo), std::out_of_range);
  EXPECT_NO_THROW(FaultPlan::parse("fail@1ms:t12", {}));
}

TEST(FaultPlanParse, DurationsAreFiniteAndBelowTwoToThe63Ns) {
  for (const char* bad : {"inf", "nan", "1e30", "18446744073709551616",
                          "9223372036854775808", "-5ms", "0.5"}) {
    EXPECT_THROW(sim::parseDuration(bad), std::invalid_argument) << bad;
  }
  EXPECT_EQ(sim::parseDuration("5ms"), 5_ms);
  EXPECT_EQ(sim::parseDuration("1.5us"), 1500u);
  EXPECT_EQ(sim::parseDuration("9223372036854774784"), 9223372036854774784u);
}

TEST(FaultPlanParse, RandomSpecIsSeedDeterministic) {
  const FaultTopology topo{.targets = 12, .engines = 3, .nodes = 4};
  FaultPlan a = FaultPlan::parse("random:seed=7,events=6,horizon=200ms", topo);
  FaultPlan b = FaultPlan::parse("random:seed=7,events=6,horizon=200ms", topo);
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a.describe(), b.describe());
  FaultPlan direct = FaultPlan::random(7, topo, 6, 200_ms);
  EXPECT_EQ(a.describe(), direct.describe());
  FaultPlan other = FaultPlan::parse("random:seed=8,events=6,horizon=200ms",
                                     topo);
  EXPECT_NE(a.describe(), other.describe());
}

// FaultPlan::random as it was when it inserted each event with add(): the
// reference for building a plan by appending and sorting once.
FaultPlan referenceRandom(std::uint64_t seed, const FaultTopology& topo,
                          int events, Time horizon) {
  FaultPlan plan;
  if (events <= 0 || horizon == 0) return plan;
  sim::Rng rng(seed);
  const Time lo = std::max<Time>(1, horizon / 8);
  // The single target that is ever allowed to die (fail or exclude): this
  // is what keeps generated plans within a one-failure redundancy bound.
  int victim = -1;
  bool excluded = false;
  auto pickVictim = [&]() {
    if (victim < 0) {
      victim = topo.targets > 0
                   ? static_cast<int>(rng.uniform(
                         0, static_cast<std::uint64_t>(topo.targets) - 1))
                   : 0;
    }
    return victim;
  };
  for (int i = 0; i < events; ++i) {
    FaultEvent e;
    e.at = rng.uniform(lo, horizon);
    switch (rng.uniform(0, 3)) {
      case 0: {  // slowdown window with restore
        e.kind = FaultKind::kTargetSlow;
        e.subject = topo.targets > 1
                        ? static_cast<int>(rng.uniform(
                              0, static_cast<std::uint64_t>(topo.targets) - 1))
                        : 0;
        e.factor = 2.0 + static_cast<double>(rng.uniform(0, 6));
        plan.add(e);
        FaultEvent restore = e;
        restore.at = e.at + rng.uniform(horizon / 16 + 1, horizon / 4 + 1);
        restore.factor = 1.0;
        plan.add(restore);
        break;
      }
      case 1: {  // NIC flap
        e.kind = FaultKind::kNicFlap;
        e.subject = topo.nodes > 1
                        ? static_cast<int>(rng.uniform(
                              0, static_cast<std::uint64_t>(topo.nodes) - 1))
                        : 0;
        e.duration = rng.uniform(horizon / 32 + 1, horizon / 8 + 1);
        plan.add(e);
        break;
      }
      case 2: {  // engine stall
        e.kind = FaultKind::kEngineStall;
        e.subject = topo.engines > 1
                        ? static_cast<int>(rng.uniform(
                              0, static_cast<std::uint64_t>(topo.engines) - 1))
                        : 0;
        e.duration = rng.uniform(horizon / 64 + 1, horizon / 16 + 1);
        plan.add(e);
        break;
      }
      default: {  // victim fail window, or a one-time exclusion
        if (!excluded && rng.uniform(0, 1) == 0) {
          excluded = true;
          e.kind = FaultKind::kTargetExclude;
          e.subject = pickVictim();
          // An exclusion never recovers; pin it after every fail window so
          // the single-dead-target invariant holds trivially.
          e.at = horizon + rng.uniform(1, horizon / 4 + 1);
          plan.add(e);
        } else if (!excluded) {
          e.kind = FaultKind::kTargetFail;
          e.subject = pickVictim();
          plan.add(e);
          FaultEvent rec = e;
          rec.kind = FaultKind::kTargetRecover;
          rec.at = e.at + rng.uniform(horizon / 32 + 1, horizon / 8 + 1);
          plan.add(rec);
        }
        break;
      }
    }
  }
  // Overlapping fail/recover windows on the victim could recover it early;
  // sort guarantees ordering, and a trailing recover restores the device
  // before any exclusion-triggered rebuild reads survivors.
  return plan;
}

TEST(FaultPlanRandom, SortedBuildMatchesPerEventInsert) {
  const FaultTopology topo{.targets = 12, .engines = 3, .nodes = 4};
  // A 64 ns horizon makes equal times common; they keep generation order.
  for (const Time horizon : {Time{64}, 20_ms}) {
    for (std::uint64_t seed = 1; seed <= 50; ++seed) {
      for (const int events : {1, 7, 500, 5000}) {
        ASSERT_EQ(FaultPlan::random(seed, topo, events, horizon).describe(),
                  referenceRandom(seed, topo, events, horizon).describe())
            << "seed " << seed << ", " << events << " events";
      }
    }
  }
  // Parsed plans too: equal times stay in spec order.
  const std::string spec =
      "slow@2ms:t1,x2;fail@1ms:t0;flap@1ms:n1,1ms;recover@2ms:t0;"
      "stall@1ms:e2,1ms;slow@1ms:t1,x1";
  FaultPlan by_add;
  for (const char* ev :
       {"slow@2ms:t1,x2", "fail@1ms:t0", "flap@1ms:n1,1ms", "recover@2ms:t0",
        "stall@1ms:e2,1ms", "slow@1ms:t1,x1"}) {
    by_add.add(FaultPlan::parse(ev, topo).events()[0]);
  }
  EXPECT_EQ(FaultPlan::parse(spec, topo).describe(), by_add.describe());
}

TEST(FaultPlanRandom, MillionEventPlanBuildsInSeconds) {
  const FaultTopology topo{.targets = 12, .engines = 3, .nodes = 4};
  const auto t0 = std::chrono::steady_clock::now();
  const FaultPlan p =
      FaultPlan::parse("random:seed=3,events=1000000,horizon=20ms", topo);
  const double s = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
  EXPECT_GT(p.size(), 900000u);  // after an exclusion a draw may add none
  EXPECT_LT(s, 10.0);
}

TEST(FaultPlanRandom, RespectsTopologyAndSingleVictimInvariant) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const FaultTopology topo{.targets = 12, .engines = 3, .nodes = 4};
    FaultPlan p = FaultPlan::random(seed, topo, 8, 200_ms);
    int victim = -1;
    Time prev = 0;
    for (const FaultEvent& e : p.events()) {
      EXPECT_GE(e.at, prev);  // sorted
      prev = e.at;
      switch (e.kind) {
        case FaultKind::kNicFlap:
          EXPECT_LT(e.subject, topo.nodes);
          EXPECT_GT(e.duration, 0u);
          break;
        case FaultKind::kEngineStall:
          EXPECT_LT(e.subject, topo.engines);
          EXPECT_GT(e.duration, 0u);
          break;
        case FaultKind::kTargetSlow:
          EXPECT_LT(e.subject, topo.targets);
          EXPECT_GE(e.factor, 1.0);
          break;
        case FaultKind::kTargetFail:
        case FaultKind::kTargetRecover:
        case FaultKind::kTargetExclude:
          EXPECT_LT(e.subject, topo.targets);
          // Only one target is ever allowed to die across the whole plan.
          if (victim < 0) victim = e.subject;
          EXPECT_EQ(e.subject, victim);
          break;
      }
    }
  }
}

// --- backoff --------------------------------------------------------------

TEST(Backoff, DeterministicForFixedSeed) {
  net::RetryPolicy p;
  p.backoff_base = 500_us;
  p.backoff_cap = 50_ms;
  std::vector<Time> first;
  std::vector<Time> second;
  for (auto* out : {&first, &second}) {
    sim::Rng rng(42);
    for (int attempt = 0; attempt < 10; ++attempt) {
      out->push_back(net::backoffDelay(p, attempt, rng));
    }
  }
  EXPECT_EQ(first, second);
}

TEST(Backoff, HalfJitterWithinDoublingEnvelopeAndCap) {
  net::RetryPolicy p;
  p.backoff_base = 500_us;
  p.backoff_cap = 50_ms;
  sim::Rng rng(7);
  for (int attempt = 0; attempt < 12; ++attempt) {
    Time envelope = p.backoff_base;
    for (int i = 0; i < attempt && envelope < p.backoff_cap; ++i) {
      envelope *= 2;
    }
    if (envelope > p.backoff_cap) envelope = p.backoff_cap;
    for (int draw = 0; draw < 20; ++draw) {
      const Time d = net::backoffDelay(p, attempt, rng);
      EXPECT_GE(d, envelope / 2);
      EXPECT_LE(d, envelope);
    }
    if (attempt >= 7) {  // 500us << 7 = 64ms > cap
      EXPECT_EQ(envelope, p.backoff_cap);
    }
  }
}

TEST(Backoff, TinyBaseSkipsJitter) {
  net::RetryPolicy p;
  p.backoff_base = 1;
  p.backoff_cap = 1;
  sim::Rng rng(1);
  EXPECT_EQ(net::backoffDelay(p, 0, rng), 1u);
  EXPECT_EQ(net::backoffDelay(p, 5, rng), 1u);
}

// --- retry behaviour over the cluster -------------------------------------

namespace retrytest {

/// The bare transfer a request leg makes: one Cluster::send of the header.
sim::Task<void> plainRequest(hw::Cluster* c, hw::NodeId src, hw::NodeId dst) {
  co_await c->send(src, dst, net::kSmallRequest, 0, obs::Cat::kNetRequest);
}

sim::Task<void> policyRequest(hw::Cluster* c, hw::NodeId src, hw::NodeId dst,
                              net::RetryPolicy policy,
                              std::shared_ptr<std::exception_ptr> err) {
  try {
    co_await net::request(*c, src, dst, 0, /*op=*/0, policy);
  } catch (...) {
    *err = std::current_exception();
  }
}

sim::Task<void> bigSend(hw::Cluster* c, hw::NodeId src, hw::NodeId dst,
                        std::uint64_t bytes) {
  co_await c->send(src, dst, bytes);
}

sim::Task<void> linkRestore(hw::Cluster* c, hw::NodeId node, Time at) {
  co_await c->sim().delay(at);
  c->setLinkDown(node, false);
}

/// Writes an S1 array, then punches it while `server`'s NIC is down for
/// 2 ms.
sim::Task<void> punchThroughFlap(daos::Client* c, hw::NodeId server,
                                 std::shared_ptr<std::exception_ptr> err) {
  try {
    co_await c->poolConnect();
    daos::Container cont = co_await c->contCreate("punch");
    daos::Array arr = co_await daos::Array::create(
        *c, cont, c->nextOid(placement::ObjClass::S1), daos::Array::Attrs{});
    co_await arr.write(0, vos::Payload::synthetic(4096));
    hw::Cluster& cluster = c->system().cluster();
    cluster.setLinkDown(server, true);
    c->sim().spawn(linkRestore(&cluster, server, 2_ms));
    co_await c->objPunch(cont, arr.oid());
  } catch (...) {
    *err = std::current_exception();
  }
}

}  // namespace retrytest

TEST(Retry, DisabledPolicyIsScheduleIdenticalToPlainRequest) {
  Time plain_now = 0;
  std::size_t plain_events = 0;
  std::uint64_t plain_msgs = 0;
  {
    sim::Simulation sim;
    hw::Cluster cluster(sim);
    auto c = cluster.addNode(hw::NodeSpec::client());
    auto s = cluster.addNode(hw::NodeSpec::server());
    sim.spawn(retrytest::plainRequest(&cluster, c, s));
    plain_events = sim.run();
    plain_now = sim.now();
    plain_msgs = cluster.messages();
  }
  {
    // A default (disabled) RetryPolicy must produce the exact event
    // schedule of the bare send: same event count, same clock, no RNG
    // draw, no timer.
    sim::Simulation sim;
    hw::Cluster cluster(sim);
    auto c = cluster.addNode(hw::NodeSpec::client());
    auto s = cluster.addNode(hw::NodeSpec::server());
    auto err = std::make_shared<std::exception_ptr>();
    sim.spawn(retrytest::policyRequest(&cluster, c, s, net::RetryPolicy{},
                                       err));
    EXPECT_EQ(sim.run(), plain_events);
    EXPECT_EQ(sim.now(), plain_now);
    EXPECT_EQ(cluster.messages(), plain_msgs);
    EXPECT_EQ(*err, nullptr);
    EXPECT_EQ(cluster.rpcRetries(), 0u);
    EXPECT_EQ(cluster.rpcTimeouts(), 0u);
  }
}

TEST(Retry, ExhaustsBudgetOnPermanentlyDownedLink) {
  sim::Simulation sim;
  hw::Cluster cluster(sim);
  auto c = cluster.addNode(hw::NodeSpec::client());
  auto s = cluster.addNode(hw::NodeSpec::server());
  cluster.setLinkDown(s, true);
  net::RetryPolicy policy;
  policy.timeout = 5_ms;
  policy.max_retries = 2;
  policy.backoff_base = 100_us;
  policy.backoff_cap = 1_ms;
  auto err = std::make_shared<std::exception_ptr>();
  sim.spawn(retrytest::policyRequest(&cluster, c, s, policy, err));
  sim.run();
  ASSERT_TRUE(*err);
  try {
    std::rethrow_exception(*err);
  } catch (const net::RetryExhausted& e) {
    EXPECT_EQ(e.attempts(), 3);        // 1 initial + 2 retries
    EXPECT_FALSE(e.timedOut());        // failed fast, not by timer
  } catch (...) {
    FAIL() << "expected net::RetryExhausted";
  }
  EXPECT_EQ(cluster.rpcRetries(), 2u);
  EXPECT_EQ(cluster.sendFailures(), 3u);
  EXPECT_EQ(cluster.rpcTimeouts(), 0u);
}

TEST(Retry, RidesThroughTransientFlap) {
  sim::Simulation sim;
  hw::Cluster cluster(sim);
  auto c = cluster.addNode(hw::NodeSpec::client());
  auto s = cluster.addNode(hw::NodeSpec::server());
  cluster.setLinkDown(s, true);
  sim.spawn(retrytest::linkRestore(&cluster, s, 10_ms));
  auto err = std::make_shared<std::exception_ptr>();
  sim.spawn(retrytest::policyRequest(&cluster, c, s,
                                     net::RetryPolicy::chaosDefault(), err));
  sim.run();
  EXPECT_EQ(*err, nullptr) << "chaosDefault should outlast a 10ms flap";
  EXPECT_GT(cluster.rpcRetries(), 0u);
  EXPECT_EQ(cluster.messages(), 1u);  // exactly one attempt went through
  EXPECT_GE(sim.now(), 10_ms);
}

TEST(Retry, PunchRidesThroughTransientFlap) {
  sim::Simulation sim;
  hw::Cluster cluster(sim);
  const auto servers = cluster.addNodes(hw::NodeSpec::server(), 1);
  const hw::NodeId client_node = cluster.addNode(hw::NodeSpec::client());
  daos::DaosConfig cfg;
  cfg.rpc_retry = net::RetryPolicy::chaosDefault();  // what --faults enables
  daos::DaosSystem system(cluster, servers, cfg);
  daos::Client client(system, client_node, /*id=*/1);
  auto err = std::make_shared<std::exception_ptr>();
  sim.spawn(retrytest::punchThroughFlap(&client, servers[0], err));
  sim.run();
  EXPECT_EQ(*err, nullptr) << "the punch should outlast a 2ms flap";
  EXPECT_GT(cluster.rpcRetries(), 0u);
}

TEST(Retry, TimesOutBehindBackloggedReceiver) {
  sim::Simulation sim;
  hw::Cluster cluster(sim);
  auto c = cluster.addNode(hw::NodeSpec::client());
  auto s = cluster.addNode(hw::NodeSpec::server());
  // Occupy the receiver NIC: 100 MiB at 6.25 GiB/s holds rx for ~16ms.
  sim.spawn(retrytest::bigSend(&cluster, c, s, 100 * hw::kMiB));
  net::RetryPolicy policy;
  policy.timeout = 1_ms;
  policy.max_retries = 1;
  policy.backoff_base = 100_us;
  policy.backoff_cap = 200_us;
  auto err = std::make_shared<std::exception_ptr>();
  sim.spawn(retrytest::policyRequest(&cluster, c, s, policy, err));
  sim.run();
  ASSERT_TRUE(*err);
  try {
    std::rethrow_exception(*err);
  } catch (const net::RetryExhausted& e) {
    EXPECT_EQ(e.attempts(), 2);
    EXPECT_TRUE(e.timedOut());
  } catch (...) {
    FAIL() << "expected net::RetryExhausted";
  }
  EXPECT_EQ(cluster.rpcTimeouts(), 2u);
  EXPECT_EQ(cluster.rpcRetries(), 1u);
}

// --- injector: empty plan is a strict no-op -------------------------------

TEST(FaultInjector, EmptyPlanIsStrictNoOp) {
  auto run = [](bool with_injector) {
    apps::DaosTestbed::Options opt;
    opt.server_nodes = 2;
    opt.client_nodes = 1;
    opt.seed = 11;
    opt.with_dfuse = false;
    apps::DaosTestbed tb(opt);
    std::optional<apps::FaultInjector> inj;
    if (with_injector) {
      inj.emplace(tb, FaultPlan{});
      inj->install();
    }
    daos::Client client(tb.daos(), tb.clients()[0], 99);
    struct Probe {
      static Task<void> work(daos::Client* c, daos::Container cont) {
        daos::Array a = co_await daos::Array::create(
            *c, cont, c->nextOid(placement::ObjClass::RP_2G1),
            {.cell_size = 1, .chunk_size = 1 << 20});
        co_await a.write(0, vos::Payload::synthetic(4 * hw::kMiB));
        (void)co_await a.read(0, 4 * hw::kMiB);
      }
    };
    auto h = tb.sim().spawn(Probe::work(&client, tb.container()));
    tb.sim().run();
    if (h.failed()) std::rethrow_exception(h.error());
    if (inj) {
      inj->rethrowIfFailed();
      EXPECT_EQ(inj->stats().events_applied, 0u);
    }
    return tb.sim().now();
  };
  EXPECT_EQ(run(false), run(true));
}

TEST(FaultInjector, EmptyPlanRegistersNoTelemetry) {
  apps::DaosTestbed::Options opt;
  opt.server_nodes = 2;
  opt.client_nodes = 1;
  opt.with_dfuse = false;
  apps::DaosTestbed tb(opt);
  apps::FaultInjector inj(tb, FaultPlan{});
  obs::Telemetry telemetry;
  inj.registerTelemetry(telemetry);
  EXPECT_EQ(telemetry.find("faults/events_applied"), nullptr);
}

TEST(FaultInjector, RejectsOutOfRangeSubjectsUpFront) {
  apps::DaosTestbed::Options opt;
  opt.server_nodes = 2;
  opt.client_nodes = 1;
  opt.with_dfuse = false;
  opt.daos.targets_per_engine = 4;
  apps::DaosTestbed tb(opt);
  FaultPlan bad;
  bad.add({.at = 1_ms, .kind = FaultKind::kTargetFail, .subject = 8});
  EXPECT_THROW(apps::FaultInjector(tb, bad), std::out_of_range);
  FaultPlan bad_node;
  bad_node.add({.at = 1_ms,
                .kind = FaultKind::kNicFlap,
                .subject = 3,
                .duration = 1_ms});
  EXPECT_THROW(apps::FaultInjector(tb, bad_node), std::out_of_range);
}

// --- property suite: acked writes survive seeded chaos --------------------

namespace prop {

constexpr std::uint64_t kRecord = 64 * hw::kKiB;
constexpr int kRecords = 24;

/// Independent census of unrecoverable shards: non-redundant objects (the
/// DFS S1 superblock and SX directories the testbed mounts) that had their
/// only copy of a shard on `victim`. Replicated/EC objects never appear
/// here, so any additional reported loss would mean redundant data was
/// dropped.
std::uint64_t expectedLostShards(daos::DaosSystem& sys, int victim) {
  std::set<std::pair<vos::ContId, placement::ObjectId>> objects;
  for (int e = 0; e < sys.engineCount(); ++e) {
    daos::Engine& engine = sys.engine(e);
    for (int t = 0; t < engine.targetCount(); ++t) {
      const int global = e * sys.config().targets_per_engine + t;
      if (global == victim) continue;
      for (auto& co : engine.target(t).store().listObjects()) {
        objects.insert(co);
      }
    }
  }
  std::vector<std::uint8_t> old_alive = sys.aliveMap();
  old_alive[static_cast<std::size_t>(victim)] = 1;
  std::uint64_t lost = 0;
  for (const auto& [cont, oid] : objects) {
    const placement::Layout old_layout = sys.layoutUnder(oid, old_alive);
    const placement::Layout new_layout = sys.layout(oid);
    const auto& spec = old_layout.spec;
    if (spec.erasureCoded() || spec.replicated()) continue;
    for (std::size_t j = 0; j < old_layout.targets.size(); ++j) {
      if (old_layout.targets[j] != new_layout.targets[j]) ++lost;
    }
  }
  return lost;
}

struct State {
  daos::Client* client = nullptr;
  daos::Container cont;
  std::optional<daos::Array> array;  // old (pre-exclusion) layout
  std::vector<std::uint8_t> acked = std::vector<std::uint8_t>(kRecords, 0);
  int degraded_mismatches = 0;
  int rebuilt_mismatches = 0;
};

/// Paced writer: one replicated record every 8ms so plan events interleave
/// with in-flight I/O. A write that throws (device dead mid-plan, retry
/// budget exhausted) is simply not acknowledged.
sim::Task<void> writer(std::shared_ptr<State> st) {
  st->array = co_await daos::Array::create(
      *st->client, st->cont, st->client->nextOid(placement::ObjClass::RP_2G1),
      {.cell_size = 1, .chunk_size = 1 << 20});
  for (int i = 0; i < kRecords; ++i) {
    vos::Payload rec = vos::patternPayload(kRecord, std::uint64_t(i) + 1);
    bool ok = true;
    try {
      co_await st->array->write(std::uint64_t(i) * kRecord, rec);
    } catch (const std::exception&) {
      ok = false;
    }
    st->acked[std::size_t(i)] = ok ? 1 : 0;
    co_await st->client->sim().delay(8_ms);
  }
}

/// Verifies every acknowledged record twice: through the writer's original
/// Array (old layout — exercises the degraded/replica-fallback path when
/// the victim stayed dead) and through a fresh open (new layout — normal
/// path after rebuild).
sim::Task<void> verifier(std::shared_ptr<State> st) {
  for (int i = 0; i < kRecords; ++i) {
    if (st->acked[std::size_t(i)] == 0) continue;
    vos::Payload want = vos::patternPayload(kRecord, std::uint64_t(i) + 1);
    vos::Payload got =
        co_await st->array->read(std::uint64_t(i) * kRecord, kRecord);
    if (!(got == want)) ++st->degraded_mismatches;
  }
  daos::Array reopened = co_await daos::Array::open(
      *st->client, st->cont, st->array->oid());
  for (int i = 0; i < kRecords; ++i) {
    if (st->acked[std::size_t(i)] == 0) continue;
    vos::Payload want = vos::patternPayload(kRecord, std::uint64_t(i) + 1);
    vos::Payload got =
        co_await reopened.read(std::uint64_t(i) * kRecord, kRecord);
    if (!(got == want)) ++st->rebuilt_mismatches;
  }
}

}  // namespace prop

class FaultProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FaultProperty, AckedWritesSurviveSeededChaos) {
  const std::uint64_t seed = GetParam();
  apps::DaosTestbed::Options opt;
  opt.server_nodes = 3;
  opt.client_nodes = 1;
  opt.seed = seed;
  opt.daos.retain_data = true;  // verify real bytes, not just sizes
  opt.with_dfuse = false;
  opt.daos.targets_per_engine = 4;
  opt.daos.rpc_retry = net::RetryPolicy::chaosDefault();
  apps::DaosTestbed tb(opt);

  const FaultTopology topo{
      .targets = 12,
      .engines = 3,
      .nodes = static_cast<int>(tb.cluster().nodeCount())};
  FaultPlan plan = FaultPlan::random(seed, topo, 6, 200_ms);
  apps::FaultInjector injector(tb, plan);
  injector.install();

  daos::Client client(tb.daos(), tb.clients()[0], 7);
  auto st = std::make_shared<prop::State>();
  st->client = &client;
  st->cont = tb.container();

  auto wh = tb.sim().spawn(prop::writer(st));
  tb.sim().run();  // drains writer, plan driver, flap restores, rebuilds
  if (wh.failed()) std::rethrow_exception(wh.error());
  injector.rethrowIfFailed();

  auto vh = tb.sim().spawn(prop::verifier(st));
  tb.sim().run();
  if (vh.failed()) std::rethrow_exception(vh.error());
  injector.rethrowIfFailed();

  int acked = 0;
  for (std::uint8_t a : st->acked) acked += a;
  EXPECT_GT(acked, 0) << "seed " << seed << ": chaos killed every write";
  EXPECT_EQ(st->degraded_mismatches, 0) << "seed " << seed;
  EXPECT_EQ(st->rebuilt_mismatches, 0) << "seed " << seed;

  const apps::FaultStats& stats = injector.stats();
  EXPECT_EQ(stats.events_applied, plan.size());
  // Every exclusion's background rebuild ran to completion, and its loss
  // accounting is surfaced. The only shards a rebuild may report lost are
  // the non-redundant DFS metadata objects (S1 superblock / SX dirs) that
  // happened to live on the victim — verified against an independent store
  // census. Our RP_2 data and the replicated array metadata must never
  // contribute.
  EXPECT_EQ(stats.rebuilds_completed, stats.rebuilds_started);
  int excluded = -1;
  for (const FaultEvent& e : plan.events()) {
    if (e.kind == FaultKind::kTargetExclude) excluded = e.subject;
  }
  if (excluded >= 0) {
    EXPECT_EQ(stats.rebuilds_started, 1u);
    EXPECT_EQ(stats.objects_lost,
              prop::expectedLostShards(tb.daos(), excluded))
        << "seed " << seed;
  } else {
    EXPECT_EQ(stats.rebuilds_started, 0u);
    EXPECT_EQ(stats.objects_lost, 0u) << "seed " << seed;
  }
  EXPECT_EQ(stats.records_unrecoverable, 0u) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, FaultProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21));

}  // namespace
}  // namespace daosim
