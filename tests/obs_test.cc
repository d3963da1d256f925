// Observability subsystem tests: histogram binning and percentiles, the
// exact op rows of metrics dumps, tracer event structure, queue-station busy accounting under
// enter/leave, an end-to-end Chrome-trace round trip that parses the
// exported JSON back and validates the span tree, and the per-category op
// split: exact, and equal to the exemplars' critical-path decomposition.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "daos/array.h"
#include "daos/client.h"
#include "daos/system.h"
#include "hw/cluster.h"
#include "obs/histogram.h"
#include "obs/observer.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "sim/queue_station.h"
#include "sim/simulation.h"
#include "vos/payload.h"

namespace daosim {
namespace {

using obs::Histogram;
using sim::Task;
using namespace sim::literals;

// --- histogram -------------------------------------------------------------

TEST(Histogram, EmptyIsZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_DOUBLE_EQ(h.percentile(50), 0.0);
}

TEST(Histogram, SingleValueAtEveryPercentile) {
  Histogram h;
  h.add(4711);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.min(), 4711u);
  EXPECT_EQ(h.max(), 4711u);
  for (double p : {0.0, 1.0, 50.0, 99.0, 100.0}) {
    EXPECT_DOUBLE_EQ(h.percentile(p), 4711.0) << "p=" << p;
  }
}

TEST(Histogram, ConstantSeriesReportsExactValue) {
  Histogram h;
  for (int i = 0; i < 1000; ++i) h.add(123456);
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_DOUBLE_EQ(h.mean(), 123456.0);
  // Percentiles clamp to the recorded min/max, so quantization within the
  // containing bucket never leaks into a constant series.
  EXPECT_DOUBLE_EQ(h.percentile(50), 123456.0);
  EXPECT_DOUBLE_EQ(h.percentile(99), 123456.0);
}

TEST(Histogram, BucketBoundariesContainTheirValues) {
  const std::uint64_t samples[] = {
      0,  1,  15, 16,  17,  31,   32,   255,  256, 1000, 1023, 1024,
      (1ULL << 20) - 1, 1ULL << 20, (1ULL << 40) + 12345, ~std::uint64_t{0}};
  for (std::uint64_t v : samples) {
    const std::size_t i = Histogram::bucketIndex(v);
    ASSERT_LT(i, Histogram::kBuckets) << v;
    EXPECT_LE(Histogram::bucketLo(i), v) << v;
    if (v != ~std::uint64_t{0}) {
      EXPECT_GT(Histogram::bucketHi(i), v) << v;
    } else {
      // The top bucket's exclusive bound saturates at UINT64_MAX.
      EXPECT_EQ(Histogram::bucketHi(i), v);
    }
  }
}

TEST(Histogram, BucketsTileTheRangeWithBoundedError) {
  // Buckets must be adjacent (no gaps/overlaps) and, beyond the exact
  // region, no wider than 1/kSubBuckets of their lower bound (6.25%).
  for (std::size_t i = 0; i + 1 < 40 * Histogram::kSubBuckets; ++i) {
    EXPECT_EQ(Histogram::bucketHi(i), Histogram::bucketLo(i + 1)) << i;
    if (i >= Histogram::kSubBuckets) {
      const std::uint64_t lo = Histogram::bucketLo(i);
      const std::uint64_t width = Histogram::bucketHi(i) - lo;
      EXPECT_LE(width * Histogram::kSubBuckets, lo) << i;
    }
  }
}

TEST(Histogram, PercentileInterpolatesWithinTolerance) {
  Histogram h;
  for (std::uint64_t v = 1; v <= 1000; ++v) h.add(v);
  // Relative quantization error is bounded by 1/16; allow a bit of slack
  // for the interpolation itself.
  EXPECT_NEAR(h.percentile(50), 500.0, 500.0 / 10);
  EXPECT_NEAR(h.percentile(95), 950.0, 950.0 / 10);
  EXPECT_NEAR(h.percentile(99), 990.0, 990.0 / 10);
  EXPECT_DOUBLE_EQ(h.percentile(100), 1000.0);
  EXPECT_DOUBLE_EQ(h.percentile(0), 1.0);
}

TEST(Histogram, MergeMatchesCombinedHistogram) {
  Histogram a, b, both;
  for (std::uint64_t v = 1; v <= 500; ++v) {
    a.add(v * 3);
    both.add(v * 3);
  }
  for (std::uint64_t v = 1; v <= 300; ++v) {
    b.add(v * 7 + 1);
    both.add(v * 7 + 1);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), both.count());
  EXPECT_EQ(a.min(), both.min());
  EXPECT_EQ(a.max(), both.max());
  EXPECT_DOUBLE_EQ(a.sum(), both.sum());
  for (std::size_t i = 0; i < Histogram::kBuckets; ++i) {
    ASSERT_EQ(a.bucketCount(i), both.bucketCount(i)) << i;
  }
  EXPECT_DOUBLE_EQ(a.percentile(50), both.percentile(50));
}

TEST(Histogram, MergeWithEmptyKeepsMinMax) {
  Histogram a, empty;
  a.add(10);
  a.merge(empty);
  EXPECT_EQ(a.count(), 1u);
  EXPECT_EQ(a.min(), 10u);
  EXPECT_EQ(a.max(), 10u);
}

// --- metrics dump -----------------------------------------------------------

TEST(Metrics, OpRowsAreExact) {
  sim::Simulation sim;
  obs::Observer o;
  o.attach(sim);
  const obs::TrackId t = o.track(0, "client0");
  const obs::OpId put = o.beginOp("kv.put", t);
  sim.runUntil(1000);
  // An 800 ns device leg whose first 300 ns queued; the op's other 200 ns
  // are client time.
  o.leg(put, obs::Cat::kDevice, t, "nvme", 200, 300);
  o.endOp(put, "kv.put", t, 0);
  const obs::OpId odd = o.beginOp("odd,type", t);
  sim.runUntil(3000);
  o.endOp(odd, "odd,type", t, 1000);

  // A metrics file is the telemetry dump of no runs plus the op rows.
  std::ostringstream os;
  obs::writeDumpHeader(os);
  o.writeOpRows(os);
  EXPECT_EQ(os.str(),
            "# daosim-metrics schema=2\n"
            "kind,name,field,value\n"
            "counter,op.kv.put.client_ns,value,200\n"
            "counter,op.kv.put.count,value,1\n"
            "counter,op.kv.put.device_ns,value,500\n"
            "counter,op.kv.put.server_queue_ns,value,300\n"
            "counter,\"op.odd,type.client_ns\",value,2000\n"
            "counter,\"op.odd,type.count\",value,1\n"
            "histogram,op.kv.put.latency_ns,count,1\n"
            "histogram,op.kv.put.latency_ns,min,1000\n"
            "histogram,op.kv.put.latency_ns,max,1000\n"
            "histogram,op.kv.put.latency_ns,mean,1000\n"
            "histogram,op.kv.put.latency_ns,p50,1000\n"
            "histogram,op.kv.put.latency_ns,p95,1000\n"
            "histogram,op.kv.put.latency_ns,p99,1000\n"
            "histogram,\"op.odd,type.latency_ns\",count,1\n"
            "histogram,\"op.odd,type.latency_ns\",min,2000\n"
            "histogram,\"op.odd,type.latency_ns\",max,2000\n"
            "histogram,\"op.odd,type.latency_ns\",mean,2000\n"
            "histogram,\"op.odd,type.latency_ns\",p50,2000\n"
            "histogram,\"op.odd,type.latency_ns\",p95,2000\n"
            "histogram,\"op.odd,type.latency_ns\",p99,2000\n");
}

// --- queue station enter/leave accounting ----------------------------------

sim::Task<void> holdStation(sim::Simulation* s, sim::QueueStation* st,
                            sim::Time hold) {
  const sim::Time held = co_await st->enter();
  co_await s->delay(hold);
  st->leave(held);
}

TEST(QueueStation, EnterLeaveAccountsHeldTimeAsBusy) {
  sim::Simulation sim;
  sim::QueueStation st(sim, "s", 1);
  sim.spawn(holdStation(&sim, &st, 10_us));
  sim.spawn(holdStation(&sim, &st, 5_us));
  sim.run();
  // One server: 10us + 5us of held time, regardless of queueing.
  EXPECT_EQ(st.busyTime(), 15_us);
  EXPECT_EQ(st.ops(), 2u);
  EXPECT_DOUBLE_EQ(st.utilization(sim.now()), 1.0);
}

// --- tracer ----------------------------------------------------------------

TEST(Tracer, EmitsMatchedSpansAndMonotoneTimestamps) {
  obs::Tracer tr;
  const obs::TrackId t0 = tr.track(0, "client");
  const obs::TrackId t1 = tr.track(1, "net");
  tr.span(t0, /*op=*/1, "op.a", /*start=*/100, /*end=*/500);
  tr.leg(t1, /*op=*/1, "send", obs::Cat::kNetRequest, 150, 250);
  tr.span(t0, /*op=*/2, "op.b", 200, 300);
  EXPECT_EQ(tr.trackCount(), 2u);
  std::ostringstream os;
  tr.writeChromeTrace(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("\"schema\": 2"), std::string::npos);
  // "e" for op 1 (ts 0.5us) must come after "b" of op 2 (ts 0.2us).
  const auto b2 = out.find("\"ph\":\"b\",\"cat\":\"op\",\"id\":2");
  const auto e1 = out.find("\"ph\":\"e\",\"cat\":\"op\",\"id\":1");
  ASSERT_NE(b2, std::string::npos);
  ASSERT_NE(e1, std::string::npos);
  EXPECT_LT(b2, e1);
}

// --- end-to-end round trip -------------------------------------------------

// Minimal line-based parser for the exporter's one-object-per-line JSON.
struct ParsedEvent {
  std::string ph;
  std::string cat;
  std::string name;
  double ts = -1;
  std::uint64_t id = 0;  // span id or leg "args":{"op":N}
  bool has_ts = false;
};

std::string strField(const std::string& line, const std::string& key) {
  const std::string pat = "\"" + key + "\":\"";
  const auto p = line.find(pat);
  if (p == std::string::npos) return {};
  const auto start = p + pat.size();
  return line.substr(start, line.find('"', start) - start);
}

bool numField(const std::string& line, const std::string& key, double* out) {
  const std::string pat = "\"" + key + "\":";
  const auto p = line.find(pat);
  if (p == std::string::npos) return false;
  *out = std::strtod(line.c_str() + p + pat.size(), nullptr);
  return true;
}

std::vector<ParsedEvent> parseTrace(const std::string& json,
                                    std::string* error) {
  std::vector<ParsedEvent> events;
  std::istringstream is(json);
  std::string line;
  std::getline(is, line);
  if (line.find("\"schema\": 2") == std::string::npos) {
    *error = "missing schema header: " + line;
    return events;
  }
  while (std::getline(is, line)) {
    if (line.rfind("{\"ph\"", 0) != 0) continue;
    ParsedEvent e;
    e.ph = strField(line, "ph");
    e.cat = strField(line, "cat");
    e.name = strField(line, "name");
    double v = 0;
    if (numField(line, "ts", &v)) {
      e.ts = v;
      e.has_ts = true;
    }
    if (numField(line, "id", &v) || numField(line, "op", &v)) {
      e.id = static_cast<std::uint64_t>(v);
    }
    events.push_back(e);
  }
  return events;
}

sim::Task<void> arrayWorkload(daos::Client* c) {
  co_await c->poolConnect();
  daos::Container cont = co_await c->contCreate("obs");
  daos::Array arr = co_await daos::Array::create(
      *c, cont, c->nextOid(placement::ObjClass::SX), daos::Array::Attrs{});
  co_await arr.write(0, vos::Payload::synthetic(256 * 1024));
  vos::Payload p = co_await arr.read(0, 256 * 1024);
  (void)p;
}

TEST(TraceRoundTrip, ExportedTraceHasWellFormedSpanTree) {
  sim::Simulation sim;
  hw::Cluster cluster(sim);
  auto servers = cluster.addNodes(hw::NodeSpec::server(), 2);
  const hw::NodeId client_node = cluster.addNode(hw::NodeSpec::client());
  daos::DaosSystem system(cluster, servers);
  daos::Client client(system, client_node, /*id=*/1);

  obs::Observer obs;
  obs.attach(sim);
  obs.enableTracing();
  auto h = sim.spawn(arrayWorkload(&client));
  sim.run();
  ASSERT_FALSE(h.failed());
  ASSERT_GE(obs.opsStarted(), 2u);  // at least array.write + array.read

  std::ostringstream os;
  obs.writeChromeTrace(os);
  std::string error;
  const std::vector<ParsedEvent> events = parseTrace(os.str(), &error);
  ASSERT_TRUE(error.empty()) << error;
  ASSERT_FALSE(events.empty());

  // Every "e" matches an open "b" of the same id; every "b" is closed.
  std::set<std::uint64_t> open;
  std::map<std::uint64_t, std::set<std::string>> legs_by_op;
  double last_ts = 0;
  bool saw_span = false;
  for (const ParsedEvent& e : events) {
    if (e.has_ts) {
      EXPECT_GE(e.ts, last_ts) << "timestamps not monotone in file order";
      last_ts = e.ts;
    }
    if (e.ph == "b") {
      EXPECT_TRUE(open.insert(e.id).second) << "duplicate open id " << e.id;
      saw_span = true;
    } else if (e.ph == "e") {
      EXPECT_EQ(open.erase(e.id), 1u) << "exit without enter, id " << e.id;
    } else if (e.ph == "X") {
      legs_by_op[e.id].insert(e.cat);
    }
  }
  EXPECT_TRUE(saw_span);
  EXPECT_TRUE(open.empty()) << open.size() << " spans never closed";

  // At least one op covers the whole path: client RPC request, server-side
  // work (queue or service), device I/O, and the response leg.
  bool full_path = false;
  for (const auto& [op, cats] : legs_by_op) {
    if (cats.count("net_request") &&
        (cats.count("server_queue") || cats.count("service")) &&
        cats.count("device") && cats.count("net_response")) {
      full_path = true;
      break;
    }
  }
  EXPECT_TRUE(full_path)
      << "no op with client->RPC->server->device->response coverage";
}

TEST(TraceRoundTrip, MetricsExportAggregatesOps) {
  sim::Simulation sim;
  hw::Cluster cluster(sim);
  auto servers = cluster.addNodes(hw::NodeSpec::server(), 2);
  const hw::NodeId client_node = cluster.addNode(hw::NodeSpec::client());
  daos::DaosSystem system(cluster, servers);
  daos::Client client(system, client_node, /*id=*/1);

  obs::Observer obs;
  obs.attach(sim);
  auto h = sim.spawn(arrayWorkload(&client));
  sim.run();
  ASSERT_FALSE(h.failed());

  ASSERT_TRUE(obs.opTypes().count("array.write"));
  ASSERT_TRUE(obs.opTypes().count("array.read"));
  const auto& wr = obs.opTypes().at("array.write");
  EXPECT_EQ(wr.count, 1u);
  EXPECT_EQ(wr.latency.count(), 1u);
  EXPECT_GT(wr.latency.min(), 0u);
  // The device leg must be part of the write's breakdown.
  EXPECT_GT(wr.cat_ns[static_cast<int>(obs::Cat::kDevice)], 0u);

  std::ostringstream os;
  obs.writeOpRows(os);
  EXPECT_NE(os.str().find("counter,op.array.write.count,value,1\n"),
            std::string::npos);
  EXPECT_NE(os.str().find("histogram,op.array.write.latency_ns,count,1\n"),
            std::string::npos);

  // Breakdown table renders without tracing enabled.
  std::ostringstream bd;
  obs.writeBreakdown(bd);
  EXPECT_NE(bd.str().find("array.write"), std::string::npos);
}

// --- the category split is each op's critical path -------------------------

TEST(CategorySplit, OverlappingLegsCountOnce) {
  sim::Simulation sim;
  obs::Observer o;
  o.attach(sim);
  const obs::TrackId t = o.track(0, "client0");
  const obs::OpId op = o.beginOp("overlap", t);
  // Two depth-1 legs overlap on [200, 600]; the later-starting one owns
  // the overlap, and its 100 ns wait prefix is queueing.
  sim.runUntil(600);
  o.leg(op, obs::Cat::kDevice, t, "a", 100);
  sim.runUntil(900);
  o.leg(op, obs::Cat::kNetRequest, t, "b", 200, 100);
  sim.runUntil(1000);
  o.endOp(op, "overlap", t, 0);

  const auto& agg = o.opTypes().at("overlap");
  const auto ns = [&](obs::Cat c) { return agg.cat_ns[static_cast<int>(c)]; };
  EXPECT_EQ(ns(obs::Cat::kClient), 200u);
  EXPECT_EQ(ns(obs::Cat::kDevice), 100u);
  EXPECT_EQ(ns(obs::Cat::kServerQueue), 100u);
  EXPECT_EQ(ns(obs::Cat::kNetRequest), 600u);
  EXPECT_EQ(ns(obs::Cat::kService) + ns(obs::Cat::kNetResponse) +
                ns(obs::Cat::kOther),
            0u);
}

sim::Task<void> classWorkload(daos::Client* c, placement::ObjClass oc,
                              std::string cont_name) {
  co_await c->poolConnect();
  daos::Container cont = co_await c->contCreate(cont_name);
  daos::Array arr = co_await daos::Array::create(*c, cont, c->nextOid(oc),
                                                 daos::Array::Attrs{});
  for (std::uint64_t i = 0; i < 4; ++i) {
    co_await arr.write(i << 20, vos::Payload::synthetic(1 << 20));
  }
  for (std::uint64_t i = 0; i < 4; ++i) {
    vos::Payload p = co_await arr.read(i << 20, 1 << 20);
    (void)p;
  }
}

/// Two clients per class, EC_2P1G1 and RP_2G1, write then read at once, so
/// their fan-out legs overlap and queue at the NICs and devices.
void runRedundantArrays(obs::Observer& o) {
  sim::Simulation sim;
  hw::Cluster cluster(sim);
  auto servers = cluster.addNodes(hw::NodeSpec::server(), 2);
  auto client_nodes = cluster.addNodes(hw::NodeSpec::client(), 2);
  daos::DaosSystem system(cluster, servers);
  std::vector<std::unique_ptr<daos::Client>> clients;
  std::vector<sim::ProcHandle> procs;
  o.attach(sim);
  for (int i = 0; i < 4; ++i) {
    clients.push_back(std::make_unique<daos::Client>(
        system, client_nodes[static_cast<std::size_t>(i % 2)],
        static_cast<std::uint32_t>(i + 1)));
    procs.push_back(sim.spawn(classWorkload(
        clients.back().get(),
        i < 2 ? placement::ObjClass::EC_2P1G1 : placement::ObjClass::RP_2G1,
        "split" + std::to_string(i))));
  }
  sim.run();
  o.detach();
  for (const sim::ProcHandle& h : procs) EXPECT_FALSE(h.failed());
}

std::uint64_t catSum(const obs::Observer::OpTypeAgg& agg) {
  std::uint64_t sum = 0;
  for (std::uint64_t ns : agg.cat_ns) sum += ns;
  return sum;
}

TEST(CategorySplit, RedundantArrayOpsSumToTheirLatency) {
  obs::Observer o;
  runRedundantArrays(o);
  ASSERT_TRUE(o.opTypes().count("array.write"));
  ASSERT_TRUE(o.opTypes().count("array.read"));
  for (const auto& [type, agg] : o.opTypes()) {
    EXPECT_EQ(static_cast<double>(catSum(agg)), agg.latency.sum()) << type;
  }
}

TEST(CategorySplit, AgreesWithTheExemplarDecomposition) {
  obs::Observer o;
  o.enableExemplars(1000);  // more than the run's ops: every op is kept
  runRedundantArrays(o);
  const obs::ExemplarReservoir* r = o.exemplars();
  ASSERT_NE(r, nullptr);
  const auto stations = obs::stationNames(r->tracks());
  for (const auto& [type, agg] : o.opTypes()) {
    ASSERT_TRUE(r->byType().count(type)) << type;
    const auto& ops = r->byType().at(type);
    ASSERT_EQ(ops.size(), agg.count) << type;
    std::uint64_t wait = 0;
    std::uint64_t total = 0;
    for (const obs::OpRecord& op : ops) {
      for (const obs::StationShare& s : obs::decomposeOp(op, stations)) {
        wait += s.wait;
        total += s.wait + s.service;
      }
    }
    EXPECT_EQ(wait, agg.cat_ns[static_cast<int>(obs::Cat::kServerQueue)])
        << type;
    EXPECT_EQ(total, catSum(agg)) << type;
  }
}

}  // namespace
}  // namespace daosim
