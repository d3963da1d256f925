// Critical-path profiler tests (trace schema 2):
//   * end-to-end round trip: a DAOS array workload traced, exported, and
//     re-parsed through obs::parseChromeTrace must yield causal leg trees
//     (nonzero leg ids, parents referencing legs of the same op) whose
//     exact decomposition sums to each op's span duration;
//   * exemplar reservoir: merge-order invariance (the determinism that
//     makes --jobs runs byte-identical to serial) and the K bound;
//   * decomposition exactness as a randomized property: arbitrary leg
//     forests, including overlapping and span-clipped legs, always account
//     for every nanosecond of the op exactly once;
//   * frozen-format guard: legs whose causal fields are all zero serialize
//     byte-identically to schema 1 (only the version stamp moved).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "daos/array.h"
#include "daos/client.h"
#include "daos/system.h"
#include "hw/cluster.h"
#include "obs/critical_path.h"
#include "obs/observer.h"
#include "obs/trace.h"
#include "obs/trace_reader.h"
#include "sim/queue_station.h"
#include "sim/rng.h"
#include "sim/simulation.h"
#include "vos/payload.h"

namespace daosim {
namespace {

using namespace sim::literals;

sim::Task<void> arrayWorkload(daos::Client* c, int writes) {
  co_await c->poolConnect();
  daos::Container cont = co_await c->contCreate("trace");
  daos::Array arr = co_await daos::Array::create(
      *c, cont, c->nextOid(placement::ObjClass::SX), daos::Array::Attrs{});
  for (int i = 0; i < writes; ++i) {
    co_await arr.write(static_cast<std::uint64_t>(i) * 256 * 1024,
                       vos::Payload::synthetic(256 * 1024));
  }
  vos::Payload p = co_await arr.read(0, 256 * 1024);
  (void)p;
}

/// Sum of all station shares; must equal the op duration exactly.
sim::Time shareSum(const std::vector<obs::StationShare>& shares) {
  sim::Time total = 0;
  for (const auto& s : shares) total += s.wait + s.service;
  return total;
}

// --- round trip through the trace reader -----------------------------------

TEST(TraceRoundTrip, ReaderRebuildsCausalTreesAndExactSums) {
  sim::Simulation sim;
  hw::Cluster cluster(sim);
  auto servers = cluster.addNodes(hw::NodeSpec::server(), 2);
  const hw::NodeId client_node = cluster.addNode(hw::NodeSpec::client());
  daos::DaosSystem system(cluster, servers);
  daos::Client client(system, client_node, /*id=*/1);

  obs::Observer obs;
  obs.attach(sim);
  obs.enableTracing();
  auto h = sim.spawn(arrayWorkload(&client, 4));
  sim.run();
  ASSERT_FALSE(h.failed());

  std::ostringstream os;
  obs.writeChromeTrace(os);
  std::istringstream is(os.str());
  const obs::TraceDump dump = obs::parseChromeTrace(is);
  EXPECT_EQ(dump.schema, obs::kTraceSchemaVersion);
  EXPECT_EQ(dump.dropped_opens, 0u);
  ASSERT_FALSE(dump.ops.empty());
  ASSERT_FALSE(dump.tracks.empty());

  const auto stations = obs::stationNames(dump.tracks);
  bool saw_parent = false;
  for (const obs::OpRecord& op : dump.ops) {
    ASSERT_FALSE(op.legs.empty()) << op.type << " has no legs";
    std::map<obs::LegId, const obs::TraceEvent*> by_id;
    for (const obs::TraceEvent& leg : op.legs) {
      EXPECT_NE(leg.leg, 0u) << "schema-2 leg without an id";
      EXPECT_TRUE(by_id.emplace(leg.leg, &leg).second)
          << "duplicate leg id " << leg.leg << " in " << op.type;
      EXPECT_LE(leg.wait, leg.dur) << "wait exceeds leg duration";
    }
    for (const obs::TraceEvent& leg : op.legs) {
      if (leg.parent == 0) continue;
      saw_parent = true;
      EXPECT_TRUE(by_id.count(leg.parent))
          << op.type << " leg " << leg.leg << " has dangling parent "
          << leg.parent;
      EXPECT_NE(leg.parent, leg.leg) << "self-parented leg";
    }
    // The headline invariant: the per-station wait/service decomposition
    // accounts for every nanosecond of the span exactly once.
    const auto shares = obs::decomposeOp(op, stations);
    EXPECT_EQ(shareSum(shares), op.dur) << op.type << " seq " << op.seq;
  }
  EXPECT_TRUE(saw_parent) << "no nested legs: causal parents not wired";

  // array.write must cross the full pipeline: the decomposition of some
  // write touches a net, an engine, and an nvme station class.
  bool full_path = false;
  for (const obs::OpRecord& op : dump.ops) {
    if (op.type != "array.write") continue;
    bool net = false, engine = false, nvme = false;
    for (const auto& s : obs::decomposeOp(op, stations)) {
      if (s.station.find("net") != std::string::npos) net = true;
      if (s.station.find("engine") != std::string::npos) engine = true;
      if (s.station.find("nvme") != std::string::npos) nvme = true;
    }
    if (net && engine && nvme) {
      full_path = true;
      break;
    }
  }
  EXPECT_TRUE(full_path)
      << "no array.write decomposes across net+engine+nvme stations";
}

// --- exemplar reservoir ----------------------------------------------------

std::unique_ptr<obs::ExemplarReservoir> runRep(std::uint32_t rep, int writes) {
  sim::Simulation sim;
  hw::Cluster cluster(sim);
  auto servers = cluster.addNodes(hw::NodeSpec::server(), 2);
  const hw::NodeId client_node = cluster.addNode(hw::NodeSpec::client());
  daos::DaosSystem system(cluster, servers);
  daos::Client client(system, client_node, /*id=*/1);
  obs::Observer obs;
  obs.attach(sim);
  obs.enableExemplars(2, rep);
  auto h = sim.spawn(arrayWorkload(&client, writes));
  sim.run();
  EXPECT_FALSE(h.failed());
  return obs.takeExemplars();
}

std::string renderReservoir(const obs::ExemplarReservoir& r) {
  const auto ops = obs::reservoirOps(r);
  const auto stations = obs::stationNames(r.tracks());
  std::ostringstream os;
  obs::writeExemplars(os, ops, stations, r.k());
  obs::writeCriticalPath(os, ops, stations);
  return os.str();
}

TEST(ExemplarReservoir, MergeOrderInvariantAndBounded) {
  // Reps with different op populations; the retained set and its rendering
  // must not depend on merge order (this is what makes daosim_run --jobs
  // output byte-identical to a serial run).
  auto r0 = runRep(0, 3);
  auto r1 = runRep(1, 6);
  auto r2 = runRep(2, 1);
  ASSERT_TRUE(r0 && r1 && r2);

  obs::ExemplarReservoir fwd(2);
  fwd.merge(*r0);
  fwd.merge(*r1);
  fwd.merge(*r2);
  obs::ExemplarReservoir rev(2);
  rev.merge(*r2);
  rev.merge(*r1);
  rev.merge(*r0);

  for (const auto& [type, ops] : fwd.byType()) {
    EXPECT_LE(ops.size(), 2u) << type << " exceeds K";
    for (std::size_t i = 1; i < ops.size(); ++i) {
      EXPECT_TRUE(obs::ExemplarReservoir::slower(ops[i - 1], ops[i]) ||
                  ops[i - 1].dur == ops[i].dur)
          << type << " not sorted slowest-first";
    }
  }
  ASSERT_FALSE(fwd.byType().empty());
  EXPECT_EQ(renderReservoir(fwd), renderReservoir(rev));
}

TEST(ExemplarReservoir, KeepsTheSlowestAcrossReps) {
  // 6-write rep ops are a superset of the 1-write rep's; the reservoir must
  // retain per-type the global slowest regardless of which rep offered them.
  auto big = runRep(1, 6);
  auto small = runRep(2, 1);
  obs::ExemplarReservoir merged(1);
  merged.merge(*small);
  merged.merge(*big);
  ASSERT_TRUE(merged.byType().count("array.write"));
  const auto& kept = merged.byType().at("array.write");
  ASSERT_EQ(kept.size(), 1u);
  // Verify against a brute-force max over both inputs.
  sim::Time slowest = 0;
  for (const auto* r : {small.get(), big.get()}) {
    auto it = r->byType().find("array.write");
    if (it == r->byType().end()) continue;
    for (const auto& op : it->second) {
      if (op.dur > slowest) slowest = op.dur;
    }
  }
  EXPECT_EQ(kept[0].dur, slowest);
}

// --- decomposition exactness (property) ------------------------------------

TEST(Decompose, RandomLegForestsAccountForEveryNanosecond) {
  // Arbitrary leg forests — overlapping siblings, nested children, legs
  // clipped by the span edges, waits up to the full leg — must decompose to
  // station shares summing exactly to the span duration.
  sim::Rng rng(20240817);
  const std::vector<std::string> stations = {"alpha", "beta", "gamma"};
  for (int iter = 0; iter < 500; ++iter) {
    obs::OpRecord op;
    op.type = "prop.op";
    op.seq = static_cast<std::uint64_t>(iter + 1);
    op.start = rng.uniform(0, 10'000);
    op.dur = rng.uniform(1, 50'000);
    const int n = static_cast<int>(rng.uniform(0, 12));
    for (int i = 0; i < n; ++i) {
      obs::TraceEvent leg;
      // Legs may start before the span or run past its end; decomposeOp
      // clips them (the trace reader can see such legs on malformed input).
      leg.ts = rng.uniform(0, op.start + op.dur + 5'000);
      leg.dur = rng.uniform(0, 60'000);
      leg.wait = rng.uniform(0, leg.dur);
      leg.leg = static_cast<obs::LegId>(i + 1);
      leg.parent = static_cast<obs::LegId>(rng.uniform(0, i));  // forest
      leg.track = static_cast<obs::TrackId>(
          rng.uniform(0, stations.size() - 1));
      leg.name = "leg";
      leg.cat = obs::Cat::kService;
      op.legs.push_back(leg);
    }
    const auto shares = obs::decomposeOp(op, stations);
    ASSERT_EQ(shareSum(shares), op.dur) << "iter " << iter;
  }
}

TEST(Decompose, WaitServicePartitionMatchesContention) {
  // Two clients on a one-server station: the second op's leg shows the
  // service time of the first as queue wait, and wait + service equals the
  // leg duration exactly.
  sim::Simulation sim;
  obs::Observer obs;
  obs.attach(sim);
  obs.enableExemplars(4);
  sim::QueueStation station(sim, "tgt0", 1);
  for (int i = 0; i < 2; ++i) {
    sim.spawn([](sim::Simulation& s, sim::QueueStation& st,
                 int id) -> sim::Task<void> {
      auto op = obs::beginOp(s, "contend", /*pid=*/100 + id, "client");
      co_await st.exec(1000, op.id());
    }(sim, station, i));
  }
  sim.run();

  auto* r = obs.exemplars();
  ASSERT_NE(r, nullptr);
  ASSERT_TRUE(r->byType().count("contend"));
  const auto& ops = r->byType().at("contend");
  ASSERT_EQ(ops.size(), 2u);
  // Slowest first: the queued op waited the other's full service time.
  EXPECT_EQ(ops[0].dur, 2000);
  EXPECT_EQ(ops[1].dur, 1000);
  ASSERT_EQ(ops[0].legs.size(), 1u);
  EXPECT_EQ(ops[0].legs[0].wait, 1000);
  EXPECT_EQ(ops[0].legs[0].dur, 2000);
  EXPECT_EQ(ops[1].legs[0].wait, 0);

  const auto stations = obs::stationNames(r->tracks());
  const auto shares = obs::decomposeOp(ops[0], stations);
  sim::Time wait = 0, service = 0;
  for (const auto& s : shares) {
    if (s.station == "tgt") {
      wait += s.wait;
      service += s.service;
    }
  }
  EXPECT_EQ(wait, 1000);
  EXPECT_EQ(service, 1000);
  EXPECT_EQ(shareSum(shares), ops[0].dur);
}

// --- frozen schema-1 leg format --------------------------------------------

TEST(FrozenFormat, DepthOneLegsSerializeExactlyAsSchemaOne) {
  obs::Tracer tr;
  const obs::TrackId t = tr.track(3, "client0");
  tr.span(t, 7, "op.x", 1000, 5000);
  tr.leg(t, 7, "leg.a", obs::Cat::kService, 1500, 2500);
  std::ostringstream os;
  tr.writeChromeTrace(os);
  const std::string out = os.str();
  // Byte-frozen schema-1 X record: no leg/parent/wait keys when the causal
  // fields default to zero. Any format drift here breaks old consumers.
  EXPECT_NE(out.find("{\"ph\":\"X\",\"cat\":\"service\",\"name\":\"leg.a\","
                     "\"pid\":3,\"tid\":0,\"ts\":1.500,\"dur\":1,"
                     "\"args\":{\"op\":7}}"),
            std::string::npos)
      << out;
  EXPECT_EQ(out.find("\"leg\""), std::string::npos) << out;
  EXPECT_EQ(out.find("\"parent\""), std::string::npos) << out;
  EXPECT_EQ(out.find("\"wait\""), std::string::npos) << out;

  // And the causal fields do serialize once set.
  tr.leg(t, 7, "leg.b", obs::Cat::kDevice, 2500, 4500, /*leg_id=*/2,
         /*parent=*/1, /*wait=*/500);
  std::ostringstream os2;
  tr.writeChromeTrace(os2);
  EXPECT_NE(os2.str().find("\"args\":{\"op\":7,\"leg\":2,\"parent\":1,"
                           "\"wait\":0.500}"),
            std::string::npos)
      << os2.str();
}

TEST(FrozenFormat, OpIdPackingRoundTrips) {
  const obs::OpId op = obs::withParent(obs::OpId{123456789}, obs::LegId{77});
  EXPECT_EQ(obs::opSeq(op), 123456789u);
  EXPECT_EQ(obs::opParent(op), 77u);
  EXPECT_EQ(obs::opSeq(obs::withParent(op, 9)), 123456789u);
  EXPECT_EQ(obs::opParent(obs::withParent(op, 9)), 9u);
  EXPECT_EQ(obs::opParent(obs::OpId{42}), 0u);
}

}  // namespace
}  // namespace daosim
