// obs::Telemetry contract tests: kernel-driven bin boundaries (including
// intervals that do not divide the run, zero-length runs, intervals longer
// than the run, and the clock standing at each boundary while probes are
// read), rate-meter windowing with a partial final bin, probe sampling, CSV
// name escaping + reader round-trip, the reader's refusal of malformed
// dumps, the bottleneck analyzer on a synthetic two-station pipeline and on
// every testbed's probes, NVMe utilization bins under saturation, and the
// sweep's streamed dump: byte-identical for serial vs parallel sweeps and
// for runs that end in any order, with the heap bounded by the runs not yet
// written, and no dump left by a failed sweep.
#include <gtest/gtest.h>
#include <malloc.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/experiment.h"
#include "apps/fault_injector.h"
#include "apps/ior.h"
#include "apps/observe.h"
#include "apps/runner.h"
#include "apps/telemetry_probes.h"
#include "apps/testbed.h"
#include "daos/array.h"
#include "daos/client.h"
#include "obs/telemetry.h"
#include "obs/telemetry_reader.h"
#include "sim/fault_plan.h"
#include "sim/parallel.h"
#include "sim/simulation.h"
#include "sim/task.h"
#include "sim/time.h"
#include "vos/payload.h"

namespace daosim {
namespace {

using obs::Telemetry;
using sim::Simulation;
using sim::Task;
using sim::Time;
using namespace sim::literals;

Task<void> idleUntil(Simulation* sim, Time t) {
  co_await sim->delay(t - sim->now());
}

/// A one-run dump whose paths carry no run label.
std::string dumpOf(const Telemetry& t) {
  std::ostringstream os;
  obs::writeDumpHeader(os);
  t.writeCsvRows(os, "");
  return os.str();
}

// --- sampler bin boundaries ------------------------------------------------

TEST(TelemetrySampler, IntervalNotDividingRunEmitsPartialFinalBin) {
  Simulation sim;
  Telemetry t(10_ms);
  t.gauge("g");
  t.attach(sim);
  sim.spawn(idleUntil(&sim, 25_ms));
  sim.run();
  t.finish();
  const Telemetry::Node* n = t.find("g");
  ASSERT_NE(n, nullptr);
  EXPECT_EQ(n->samples.size(), 3u);
  EXPECT_EQ(t.sampleTimes(), (std::vector<Time>{10_ms, 20_ms, 25_ms}));
}

TEST(TelemetrySampler, ZeroLengthRunHasNoSamples) {
  Simulation sim;
  Telemetry t(10_ms);
  t.gauge("g");
  t.attach(sim);
  t.finish();
  EXPECT_EQ(t.sampleCount(), 0u);
}

TEST(TelemetrySampler, IntervalLongerThanRunYieldsOnePartialSample) {
  Simulation sim;
  Telemetry t(10_ms);
  t.gauge("g");
  t.attach(sim);
  sim.spawn(idleUntil(&sim, 5_ms));
  sim.run();
  t.finish();
  const Telemetry::Node* n = t.find("g");
  ASSERT_EQ(n->samples.size(), 1u);
  EXPECT_EQ(t.sampleTimes()[n->first], 5_ms);
}

TEST(TelemetrySampler, FinishIsIdempotent) {
  Simulation sim;
  Telemetry t(10_ms);
  t.gauge("g");
  t.attach(sim);
  sim.spawn(idleUntil(&sim, 12_ms));
  sim.run();
  t.finish();
  const std::size_t n = t.sampleCount();
  t.finish();
  EXPECT_EQ(t.sampleCount(), n);
}

TEST(TelemetrySampler, ProbesReadTheClockAtEachBoundary) {
  Simulation sim;
  Telemetry t(10_ms);
  t.addProbe("now_ms", Telemetry::Kind::kGauge,
             [&sim] { return sim::toSeconds(sim.now()) * 1e3; });
  t.attach(sim);
  sim.spawn(idleUntil(&sim, 35_ms));  // one event passes three boundaries
  sim.runUntil(50_ms);                // the final clock jump passes one more
  t.finish();
  const Telemetry::Node* n = t.find("now_ms");
  ASSERT_EQ(n->samples.size(), 5u);
  for (std::size_t i = 0; i < n->samples.size(); ++i) {
    EXPECT_NEAR(n->samples[i], 10.0 * static_cast<double>(i + 1), 1e-9);
  }
}

TEST(TelemetrySampler, AttachTimeIsTheSeriesOrigin) {
  // A registry attached mid-run reports timestamps relative to attach, so
  // identical workloads dump identically regardless of deployment time.
  Simulation sim;
  sim.spawn(idleUntil(&sim, 7_ms));
  sim.run();
  Telemetry t(10_ms);
  t.gauge("g");
  t.attach(sim);
  sim.spawn(idleUntil(&sim, 7_ms + 15_ms));
  sim.run();
  t.finish();
  const Telemetry::Node* n = t.find("g");
  ASSERT_EQ(n->samples.size(), 2u);
  EXPECT_EQ(t.sampleTimes(), (std::vector<Time>{10_ms, 15_ms}));
}

// A node registered mid-run starts at the next sample time: its rows in
// the dump carry the times it was sampled at, not the registry's first.
TEST(TelemetrySampler, NodeRegisteredMidRunStartsAtItsFirstSample) {
  Simulation sim;
  Telemetry t(10_ms);
  t.gauge("a").set(1);
  t.attach(sim);
  sim.spawn([](Simulation* s, Telemetry* tel) -> Task<void> {
    co_await s->delay(15_ms);
    tel->gauge("b").set(2);
    co_await s->delay(10_ms);
  }(&sim, &t));
  sim.run();
  t.finish();
  EXPECT_EQ(t.sampleTimes(), (std::vector<Time>{10_ms, 20_ms, 25_ms}));
  const Telemetry::Node* b = t.find("b");
  ASSERT_EQ(b->samples.size(), 2u);
  EXPECT_EQ(b->first, 1u);
  const std::string dump = dumpOf(t);
  EXPECT_NE(dump.find("series,a,10000000,1\n"), std::string::npos);
  EXPECT_NE(dump.find("series,b,20000000,2\nseries,b,25000000,2\n"),
            std::string::npos)
      << dump;
}

// --- rate windowing --------------------------------------------------------

Task<void> pump(Simulation* sim, Telemetry::Handle h, int ticks) {
  for (int i = 0; i < ticks; ++i) {
    co_await sim->delay(1_ms);
    h.add(1000.0);
  }
}

// 40% duty cycle: 0.4ms of busy time accrued per 1ms step.
Task<void> accrueBusy(Simulation* sim, double* busy_ns) {
  for (int i = 0; i < 20; ++i) {
    co_await sim->delay(1_ms);
    *busy_ns += 0.4e6;
  }
}

TEST(TelemetryRate, PerBinDeltaOverActualBinWidth) {
  Simulation sim;
  Telemetry t(10_ms);
  Telemetry::Handle h = t.rate("bytes");
  t.attach(sim);
  sim.spawn(pump(&sim, h, 25));  // +1000 every 1ms for 25ms
  sim.run();
  t.finish();
  const Telemetry::Node* n = t.find("bytes");
  ASSERT_EQ(n->samples.size(), 3u);
  // Whole 10ms bins: 10 ticks * 1000 / 0.01s.
  EXPECT_DOUBLE_EQ(n->samples[0], 1e6);
  EXPECT_DOUBLE_EQ(n->samples[1], 1e6);
  // Partial 5ms bin divides by its real width, so the rate is unchanged.
  EXPECT_EQ(t.sampleTimes()[n->first + 2], 25_ms);
  EXPECT_DOUBLE_EQ(n->samples[2], 1e6);
  // Summary keeps the cumulative total, not the rate.
  EXPECT_DOUBLE_EQ(n->value, 25000.0);
}

TEST(TelemetryRate, ProbeBusySecondsSampleAsUtilization) {
  Simulation sim;
  Telemetry t(10_ms);
  double busy_ns = 0;
  t.addProbe("st/busy_frac", Telemetry::Kind::kRate,
             [&busy_ns] { return busy_ns / 1e9; });
  t.attach(sim);
  sim.spawn(accrueBusy(&sim, &busy_ns));
  sim.run();
  t.finish();
  const Telemetry::Node* n = t.find("st/busy_frac");
  ASSERT_EQ(n->samples.size(), 2u);
  EXPECT_NEAR(n->samples[0], 0.4, 1e-12);
  EXPECT_NEAR(n->samples[1], 0.4, 1e-12);
}

TEST(TelemetryRate, FirstBinCountsOnlyWhatFollowsAttach) {
  Simulation sim;
  Telemetry t(10_ms);
  double total = 0;
  t.addProbe("before", Telemetry::Kind::kRate, [&total] { return total; });
  sim.spawn(idleUntil(&sim, 7_ms));
  sim.run();
  total = 5000;  // accrued before sampling starts, like testbed deployment
  t.attach(sim);
  t.addProbe("after", Telemetry::Kind::kRate, [&total] { return total; });
  sim.spawn([](Simulation* s, double* v) -> Task<void> {
    for (int i = 0; i < 10; ++i) {
      co_await s->delay(1_ms);
      *v += 1000;
    }
  }(&sim, &total));
  sim.run();
  t.finish();
  for (const char* path : {"before", "after"}) {
    const Telemetry::Node* n = t.find(path);
    ASSERT_EQ(n->samples.size(), 1u) << path;
    EXPECT_DOUBLE_EQ(n->samples[0], 1e6) << path;
  }
}

// --- registration ----------------------------------------------------------

TEST(TelemetryTree, KindConflictAndNewlineRejected) {
  Telemetry t;
  t.counter("a/b");
  EXPECT_NO_THROW(t.counter("a/b"));  // same kind dedups to one node
  EXPECT_THROW(t.gauge("a/b"), std::invalid_argument);
  EXPECT_THROW(t.gauge("bad\nname"), std::invalid_argument);
  EXPECT_THROW(t.gauge("bad\rname"), std::invalid_argument);
}

// --- escaping + reader round-trip -------------------------------------------

TEST(TelemetryCsv, CommaAndQuoteNamesRoundTripThroughReader) {
  Simulation sim;
  Telemetry t(10_ms);
  const std::string evil = "evil,\"quoted\"/path";
  t.gauge(evil);
  t.attach(sim);
  sim.spawn(idleUntil(&sim, 12_ms));
  sim.run();
  t.finish();
  std::stringstream ss(dumpOf(t));
  const obs::TelemetryDump dump = obs::parseTelemetryCsv(ss);
  EXPECT_EQ(dump.schema, 2);
  ASSERT_EQ(dump.summary.count(evil), 1u);
  EXPECT_EQ(dump.summary.at(evil).first, "gauge");
  ASSERT_EQ(dump.series.count(evil), 1u);
  EXPECT_EQ(dump.series.at(evil).size(), 2u);  // 10ms + partial 12ms
}

/// The formatting dumps used to get from an ostream, kept as the reference
/// the to_chars formatting must match byte for byte.
std::string streamFormatted(double v) {
  std::ostringstream ss;
  ss.precision(15);
  ss << v;
  return ss.str();
}

TEST(TelemetryCsv, NumbersFormatAsAStreamAtPrecision15) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<double> values = {
      0.0, -0.0, std::numeric_limits<double>::denorm_min(),
      2.2250738585072e-309,  // subnormal
      1e-300, 1e300, 9007199254740992.0,  // 2^53
      nan, std::copysign(nan, -1.0), inf, -inf,
      0.123456789012345, 123456789012345.0, 1.0 / 3.0, 2.0 / 3.0,
      -98765.4321098765, 999999999999999.9, 123456789012345678.0,
      std::numeric_limits<double>::max(), std::numeric_limits<double>::min(),
      1e-5, 1e-4, 1e14, 1e15, 0.1, 1.5, -42.0};
  Simulation sim;
  Telemetry t(1_ms);
  std::size_t next = 0;
  // Each gauge holds one value, in its total and every bin; the probe
  // reads the values in turn, one per bin.
  for (std::size_t i = 0; i < values.size(); ++i) {
    t.gauge("g" + std::to_string(100 + i)).set(values[i]);
  }
  t.addProbe("series", Telemetry::Kind::kGauge,
             [&] { return values[next++ % values.size()]; });
  t.attach(sim);
  sim.spawn(idleUntil(&sim, static_cast<Time>(values.size()) * 1_ms));
  sim.run();
  t.finish();
  ASSERT_EQ(t.find("series")->samples.size(), values.size());

  std::string want = "# daosim-metrics schema=" +
                     std::to_string(obs::kMetricsSchemaVersion) +
                     "\nkind,name,field,value\n";
  for (std::size_t i = 0; i < values.size(); ++i) {
    want += "gauge,g" + std::to_string(100 + i) + ",total," +
            streamFormatted(values[i]) + "\n";
  }
  want += "gauge,series,total," + streamFormatted(values.back()) + "\n";
  const auto bin = [](std::size_t k) {
    return std::to_string((k + 1) * 1'000'000);
  };
  for (std::size_t i = 0; i < values.size(); ++i) {
    for (std::size_t k = 0; k < values.size(); ++k) {
      want += "series,g" + std::to_string(100 + i) + "," + bin(k) + "," +
              streamFormatted(values[i]) + "\n";
    }
  }
  for (std::size_t k = 0; k < values.size(); ++k) {
    want +=
        "series,series," + bin(k) + "," + streamFormatted(values[k]) + "\n";
  }
  EXPECT_EQ(dumpOf(t), want);
  // The reader takes every form the writer prints, nan and inf included.
  std::stringstream ss(want);
  EXPECT_NO_THROW(obs::parseTelemetryCsv(ss));
}

TEST(TelemetryCsv, ReaderRejectsOtherSchemas) {
  std::stringstream ss;
  ss << "# daosim-metrics schema=1\nkind,name,field,value\n";
  try {
    obs::parseTelemetryCsv(ss);
    FAIL() << "expected schema mismatch to throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("schema 1"), std::string::npos)
        << e.what();
  }
  std::stringstream junk("not,a,dump\n");
  EXPECT_THROW(obs::parseTelemetryCsv(junk), std::runtime_error);
}

/// Parses `dump`, which must fail; returns the error.
std::string parseError(const std::string& dump) {
  std::stringstream ss(dump);
  try {
    obs::parseTelemetryCsv(ss);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  ADD_FAILURE() << "parsed: " << dump;
  return "";
}

const std::string kHeader =
    "# daosim-metrics schema=2\nkind,name,field,value\n";

// A damaged dump must not yield a report: a row cut short once turned an
// nvme verdict into nic/tx.
TEST(TelemetryCsv, ReaderRejectsARowWithoutFourFields) {
  EXPECT_NE(parseError(kHeader + "gauge,a,total,1\nseries,a,10\n")
                .find("line 4: want 4 fields, got 3"),
            std::string::npos);
}

TEST(TelemetryCsv, ReaderRejectsAnUnknownKind) {
  EXPECT_NE(parseError(kHeader + "meter,a,total,1\n").find("line 3"),
            std::string::npos);
}

TEST(TelemetryCsv, ReaderRejectsANumberThatDoesNotParseInFull) {
  for (const char* row : {"series,a,10x,1\n", "series,a,10,1.5.1\n",
                          "gauge,a,total,\n", "counter,a,value, 3\n"}) {
    EXPECT_NE(parseError(kHeader + row).find("line 3: bad number"),
              std::string::npos)
        << row;
  }
}

TEST(TelemetryCsv, ReaderRejectsTrailingCharactersAfterTheSchema) {
  EXPECT_NE(parseError("# daosim-metrics schema=2x\n").find("line 1"),
            std::string::npos);
}

// A dump cut anywhere but at a line end loses its last newline.
TEST(TelemetryCsv, ReaderRejectsALastLineWithoutItsNewline) {
  EXPECT_NE(parseError(kHeader + "gauge,a,total,1\nseries,a,10000000,0.")
                .find("line 4: no newline"),
            std::string::npos);
}

// --- station classes + analyzer ---------------------------------------------

TEST(TelemetryAnalyzer, StationClassStripsIndicesAndRunLabels) {
  EXPECT_EQ(obs::stationClass("server/3/target/5/nvme/busy_frac"), "nvme");
  EXPECT_EQ(obs::stationClass("rep/0/server/3/target/5/nvme/busy_frac"),
            "nvme");
  EXPECT_EQ(obs::stationClass("client/7/nic/rx/bytes_per_s"), "nic/rx");
  EXPECT_EQ(obs::stationClass("ior-dfs/c4/n16/rep/2/net/inflight"), "net");
  EXPECT_EQ(obs::stationClass("mds/busy_frac"), "mds");
}

TEST(TelemetryAnalyzer, TwoStationPipelineNamesTheSlowStation) {
  // Synthetic pipeline: 4 NVMe units near saturation, 4 xstreams mostly
  // idle, plus op.* layer counters dominated by device time.
  std::stringstream ss;
  ss << "# daosim-metrics schema=2\nkind,name,field,value\n";
  for (int u = 0; u < 4; ++u) {
    for (int b = 1; b <= 3; ++b) {
      ss << "series,target/" << u << "/nvme/busy_frac," << b * 10000000
         << ",0.9\n";
      ss << "series,target/" << u << "/xs/busy_frac," << b * 10000000
         << ",0.2\n";
    }
  }
  ss << "counter,op.write.device_ns,value,8000000000\n";
  ss << "counter,op.write.net_request_ns,value,1500000000\n";
  ss << "counter,op.write.client_ns,value,500000000\n";
  const obs::Analysis a = obs::analyze(obs::parseTelemetryCsv(ss));
  EXPECT_EQ(a.verdict, "nvme");
  EXPECT_NEAR(a.verdict_util, 0.9, 1e-9);
  ASSERT_EQ(a.classes.size(), 2u);
  EXPECT_FALSE(a.classes[0].straggler);  // perfectly balanced
  ASSERT_FALSE(a.layer_share.empty());
  EXPECT_EQ(a.layer_share[0].first, "device");
  EXPECT_NEAR(a.layer_share[0].second, 0.8, 1e-9);
}

TEST(TelemetryAnalyzer, ImbalancedClassFlagsStraggler) {
  std::stringstream ss;
  ss << "# daosim-metrics schema=2\nkind,name,field,value\n";
  for (int u = 0; u < 4; ++u) {
    const char* util = u == 2 ? "0.9" : "0.1";
    ss << "series,target/" << u << "/nvme/busy_frac,10000000," << util
       << "\n";
  }
  const obs::Analysis a = obs::analyze(obs::parseTelemetryCsv(ss));
  ASSERT_EQ(a.classes.size(), 1u);
  EXPECT_TRUE(a.classes[0].straggler);
  EXPECT_EQ(a.classes[0].hottest_unit, "target/2/nvme");
  EXPECT_NEAR(a.classes[0].imbalance, 0.9 / 0.3, 1e-9);
}

// --- streamed sweep dumps ---------------------------------------------------

std::string readFile(const std::string& path) {
  std::ifstream in(path);
  return {std::istreambuf_iterator<char>(in), {}};
}

std::vector<std::string> repLabels(std::size_t runs) {
  std::vector<std::string> labels;
  for (std::size_t rep = 0; rep < runs; ++rep) {
    labels.push_back("rep/" + std::to_string(rep));
  }
  return labels;
}

apps::ObserveSpec dumpSpec(const std::string& file, Time interval) {
  apps::ObserveSpec spec;
  spec.telemetry_file = ::testing::TempDir() + file;
  spec.telemetry_interval = interval;
  return spec;
}

apps::DaosTestbed::Options smallTestbed(std::size_t rep) {
  apps::DaosTestbed::Options opt;
  opt.server_nodes = 2;
  opt.client_nodes = 1;
  opt.seed = 7 + rep;
  opt.with_dfuse = false;
  return opt;
}

/// Observes `runs` runs through one sweep with a telemetry file: `body`
/// runs each on a slot of it, on `jobs` threads. Returns the dump.
template <typename Body>
std::string sweepDump(std::size_t runs, int jobs, Time interval,
                      const Body& body) {
  const apps::ObserveSpec spec = dumpSpec("sweep_dump.csv", interval);
  {
    apps::SweepObservation sweep(spec, repLabels(runs));
    sim::parallelMap(runs, jobs, [&](std::size_t rep) {
      body(sweep.slot(rep), rep);
      return 0;
    });
    std::ostringstream reports;
    sweep.finish(reports);
  }
  std::string dump = readFile(spec.telemetry_file);
  std::remove(spec.telemetry_file.c_str());
  return dump;
}

Task<void> hubWorkload(Simulation* sim, Telemetry::Handle ops,
                       std::uint64_t seed) {
  for (std::uint64_t i = 0; i < 20 + seed; ++i) {
    co_await sim->delay(1_ms);
    ops.add(1.0 + static_cast<double>(seed));
  }
}

std::string hubDump(int jobs) {
  return sweepDump(4, jobs, 10_ms, [](const apps::RunSlot& slot,
                                      std::size_t rep) {
    apps::DaosTestbed tb(smallTestbed(rep));
    apps::ObservedRun observed(slot, tb);
    Telemetry& t = *observed.telemetry();
    Simulation& sim = tb.sim();
    t.addProbe("now_ms", Telemetry::Kind::kGauge,
               [&sim] { return sim::toSeconds(sim.now()) * 1e3; });
    sim.spawn(hubWorkload(&sim, t.rate("ops"), rep));
    sim.run();
  });
}

TEST(SweepObservation, SerialAndParallelDumpsAreByteIdentical) {
  const std::string serial = hubDump(1);
  EXPECT_EQ(serial, hubDump(4));
  // And the dump names every run and parses with every run's series.
  std::size_t runs = 0;
  for (std::size_t at = 0;
       (at = serial.find("\n# telemetry run=", at)) != std::string::npos;
       ++at) {
    ++runs;
  }
  EXPECT_EQ(runs, 4u);
  std::stringstream ss(serial);
  const obs::TelemetryDump dump = obs::parseTelemetryCsv(ss);
  EXPECT_EQ(dump.series.count("rep/0/ops"), 1u);
  EXPECT_EQ(dump.series.count("rep/3/ops"), 1u);
}

/// Full-testbed telemetry dump with all standard probes, optionally with an
/// installed empty-plan FaultInjector. The injector must register nothing
/// and perturb nothing: all four combinations (with/without machinery,
/// serial/parallel) produce byte-identical CSV.
std::string testbedDump(int jobs, bool with_fault_machinery) {
  return sweepDump(2, jobs, 1_ms, [with_fault_machinery](
                                      const apps::RunSlot& slot,
                                      std::size_t rep) {
    apps::DaosTestbed tb(smallTestbed(rep));
    std::optional<apps::FaultInjector> inj;
    apps::ObservedRun observed(slot, tb);
    if (with_fault_machinery) {
      inj.emplace(tb, sim::FaultPlan{});
      inj->registerTelemetry(*observed.telemetry());
      inj->install();
    }
    daos::Client client(tb.daos(), tb.clients()[0], 42);
    struct Work {
      static Task<void> run(daos::Client* c, daos::Container cont,
                            std::uint64_t rep) {
        daos::Array a = co_await daos::Array::create(
            *c, cont, c->nextOid(placement::ObjClass::RP_2G1),
            {.cell_size = 1, .chunk_size = 1 << 20});
        for (std::uint64_t i = 0; i < 4 + rep; ++i) {
          co_await a.write(i * hw::kMiB, vos::Payload::synthetic(hw::kMiB));
        }
        (void)co_await a.read(0, hw::kMiB);
      }
    };
    tb.sim().spawn(Work::run(&client, tb.container(), rep));
    tb.sim().run();
  });
}

TEST(SweepObservation, EmptyFaultPlanDumpsAreByteIdenticalSerialAndParallel) {
  const std::string plain = testbedDump(1, false);
  EXPECT_EQ(plain, testbedDump(1, true));
  EXPECT_EQ(plain, testbedDump(2, true));
  EXPECT_EQ(plain, testbedDump(2, false));
  // The machinery-off dump has no fault series at all, and the pool-health
  // gauges it does always export sit flat at zero.
  EXPECT_EQ(plain.find("faults/"), std::string::npos);
  EXPECT_NE(plain.find("rep/0/daos/targets_failed"), std::string::npos);
}

Task<void> idleFor(Simulation* sim, Time d) { co_await sim->delay(d); }

/// Three observed runs that end in `order`. After each end, the dump on
/// disk holds the rows of exactly the runs whose earlier runs have all
/// ended. Returns the finished dump.
std::string dumpEndingIn(const std::vector<std::size_t>& order) {
  const apps::ObserveSpec spec = dumpSpec("sweep_order.csv", 1_ms);
  {
    apps::SweepObservation sweep(spec, repLabels(3));
    std::vector<std::unique_ptr<apps::DaosTestbed>> tbs;
    std::vector<std::optional<apps::ObservedRun>> runs(3);
    for (std::size_t rep = 0; rep < 3; ++rep) {
      tbs.push_back(std::make_unique<apps::DaosTestbed>(smallTestbed(rep)));
      runs[rep].emplace(sweep.slot(rep), *tbs[rep]);
      Simulation& sim = tbs[rep]->sim();
      sim.spawn(idleFor(&sim, static_cast<Time>(5 + rep) * 1_ms));
      sim.run();
    }
    std::size_t written = 0;
    for (std::size_t rep : order) {
      runs[rep].reset();
      while (written < 3 && !runs[written]) ++written;
      const std::string dump = readFile(spec.telemetry_file);
      for (std::size_t r = 0; r < 3; ++r) {
        const std::string rows = "series,rep/" + std::to_string(r) + "/";
        EXPECT_EQ(dump.find(rows) != std::string::npos, r < written)
            << "run " << r << " after run " << rep << " ended";
      }
    }
    std::ostringstream reports;
    sweep.finish(reports);
  }
  std::string dump = readFile(spec.telemetry_file);
  std::remove(spec.telemetry_file.c_str());
  return dump;
}

TEST(SweepObservation, RunsThatEndOutOfOrderWriteTheSameDump) {
  const std::string in_order = dumpEndingIn({0, 1, 2});
  EXPECT_EQ(dumpEndingIn({2, 0, 1}), in_order);
  EXPECT_EQ(dumpEndingIn({1, 2, 0}), in_order);
  EXPECT_NE(in_order.find("series,rep/2/"), std::string::npos);
}

// A sweep writes each run's rows and frees its registry once every earlier
// run has ended, so the heap in use stays flat however many runs end.
TEST(SweepObservation, HeapInUseDoesNotGrowWithEndedRuns) {
  const apps::ObserveSpec spec = dumpSpec("sweep_heap.csv", 100_us);
  constexpr std::size_t kRuns = 12;
  apps::RunSpec run;
  run.servers = 1;
  run.clients = 1;
  run.ppn = 1;
  apps::IorConfig cfg;
  cfg.ops = 20;
  run.bench = cfg;
  std::vector<std::size_t> in_use;
  {
    apps::SweepObservation sweep(spec, repLabels(kRuns));
    for (std::size_t rep = 0; rep < kRuns; ++rep) {
      (void)apps::run(run, rep + 1, sweep.slot(rep));
      in_use.push_back(mallinfo2().uordblks);
    }
    std::ostringstream reports;
    sweep.finish(reports);
  }
  const obs::TelemetryDump dump = [&] {
    std::ifstream in(spec.telemetry_file);
    return obs::parseTelemetryCsv(in);
  }();
  std::remove(spec.telemetry_file.c_str());
  std::size_t samples = 0;
  for (const auto& [path, points] : dump.series) {
    if (path.starts_with("rep/1/")) samples += points.size();
  }
  // From the second run to the second-to-last (the last attaches the
  // sweep's observer), the heap grows by less than one run's samples.
  ASSERT_GT(samples, 10'000u);
  const std::size_t first = in_use[1];
  const std::size_t last = in_use[kRuns - 2];
  EXPECT_LT(last, first + samples * sizeof(double))
      << "heap in use " << first << " -> " << last << " bytes";
}

TEST(SweepObservation, UnwritableDumpFailsBeforeAnyRun) {
  const apps::ObserveSpec spec = dumpSpec("no/such/dir/t.csv", 1_ms);
  EXPECT_THROW(apps::SweepObservation(spec, repLabels(1)),
               std::runtime_error);
}

// A run that fails writes nothing, and its sweep leaves no dump.
TEST(SweepObservation, FailedSweepLeavesNoDump) {
  const apps::ObserveSpec spec = dumpSpec("sweep_failed.csv", 1_ms);
  {
    apps::SweepObservation sweep(spec, repLabels(2));
    const auto body = [&](std::size_t rep) {
      apps::DaosTestbed tb(smallTestbed(rep));
      apps::ObservedRun observed(sweep.slot(rep), tb);
      tb.sim().spawn(idleFor(&tb.sim(), 5_ms));
      tb.sim().run();
      if (rep == 1) throw std::runtime_error("run 1 failed");
      return 0;
    };
    EXPECT_THROW(sim::parallelMap(2, 1, body), std::runtime_error);
    const std::string dump = readFile(spec.telemetry_file);
    EXPECT_NE(dump.find("series,rep/0/"), std::string::npos);
    EXPECT_EQ(dump.find(",rep/1/"), std::string::npos);
  }
  EXPECT_FALSE(std::filesystem::exists(spec.telemetry_file));
}

// --- testbed probes ----------------------------------------------------------

/// Runs a small IOR through `api` with every standard probe registered and
/// returns the station classes the analyzer reports.
template <typename Testbed>
std::set<std::string> analyzedClasses(Testbed& tb, const std::string& api) {
  Telemetry t(1_ms);
  apps::registerProbes(t, tb);
  t.attach(tb.sim());
  apps::IorConfig cfg;
  cfg.ops = 4;
  apps::Ior bench(tb.ioEnv(), api, cfg);
  apps::runSpmd(tb.sim(), tb.clients(), 2, bench);
  t.finish();
  std::stringstream ss(dumpOf(t));
  std::set<std::string> classes;
  for (const obs::ClassUtil& c :
       obs::analyze(obs::parseTelemetryCsv(ss)).classes) {
    classes.insert(c.cls);
  }
  return classes;
}

TEST(TelemetryAnalyzer, EveryTestbedReportsEveryResourceClass) {
  const auto expectClasses = [](const std::set<std::string>& got,
                                std::initializer_list<const char*> want) {
    for (const char* cls : want) EXPECT_EQ(got.count(cls), 1u) << cls;
  };
  {
    apps::DaosTestbed::Options opt;
    opt.server_nodes = 2;
    opt.client_nodes = 1;
    apps::DaosTestbed tb(opt);
    expectClasses(analyzedClasses(tb, "dfuse"),
                  {"nvme", "xs", "nic/tx", "nic/rx", "server/ps", "dfuse"});
  }
  {
    apps::LustreTestbed::Options opt;
    opt.oss_nodes = 2;
    opt.client_nodes = 1;
    apps::LustreTestbed tb(opt);
    expectClasses(analyzedClasses(tb, "lustre-posix"), {"nvme", "cpu", "mds"});
  }
  {
    apps::CephTestbed::Options opt;
    opt.osd_nodes = 2;
    opt.client_nodes = 1;
    opt.ceph.pg_count = 16;
    apps::CephTestbed tb(opt);
    expectClasses(analyzedClasses(tb, "rados"), {"nvme", "threads"});
  }
}

/// Eight writers keep one NVMe target backlogged. Every busy_frac bin is a
/// utilization, so none may exceed 1: booking an op's service at admission,
/// or reading probes at the previous event's clock, pushes bins far above.
TEST(TelemetryProbes, SaturatedNvmeBusyFracNeverExceedsOne) {
  apps::DaosTestbed::Options opt;
  opt.server_nodes = 1;
  opt.client_nodes = 1;
  opt.with_dfuse = false;
  apps::DaosTestbed tb(opt);
  Telemetry t(1_ms);
  apps::registerProbes(t, tb);
  t.attach(tb.sim());
  daos::Client client(tb.daos(), tb.clients()[0], 42);
  struct Work {
    static Task<void> writer(daos::Array* a, std::uint64_t first_mib) {
      for (std::uint64_t i = first_mib; i < first_mib + 4; ++i) {
        co_await a->write(i * hw::kMiB, vos::Payload::synthetic(hw::kMiB));
      }
    }
    static Task<void> run(Simulation* sim, daos::Client* c,
                          daos::Container cont) {
      daos::Array a = co_await daos::Array::create(
          *c, cont, c->nextOid(placement::ObjClass::S1),
          {.cell_size = 1, .chunk_size = 1 << 20});
      std::vector<sim::ProcHandle> writers;
      for (std::uint64_t w = 0; w < 8; ++w) {
        writers.push_back(sim->spawn(writer(&a, 4 * w)));
      }
      for (const sim::ProcHandle& h : writers) co_await h.join();
    }
  };
  tb.sim().spawn(Work::run(&tb.sim(), &client, tb.container()));
  tb.sim().run();
  t.finish();
  double peak = 0;
  std::string hottest;
  for (const auto& n : t.nodes()) {
    if (!n->path.ends_with("/nvme/busy_frac")) continue;
    for (std::size_t i = 0; i < n->samples.size(); ++i) {
      if (n->samples[i] > peak) {
        peak = n->samples[i];
        hottest = n->path + " at " +
                  std::to_string(t.sampleTimes()[n->first + i]) + " ns";
      }
    }
  }
  EXPECT_LE(peak, 1.0 + 1e-9) << hottest;
  EXPECT_GT(peak, 0.99) << "the target never saturated";
}

/// 16 MiB IOR reads on 4 servers x 4 clients x 8 processes keep the NICs
/// saturated. A station that books a service only when it completes, or a
/// rate probe whose first bin counts the deployment before attach, pushes
/// busy fractions above 1 (NIC tx to 1.38 at 1 ms bins).
TEST(TelemetryProbes, EveryBusyFracBinIsAtMostOne) {
  apps::DaosTestbed::Options opt;
  opt.server_nodes = 4;
  opt.client_nodes = 4;
  opt.with_dfuse = false;
  apps::DaosTestbed tb(opt);
  Telemetry t(1_ms);
  t.attach(tb.sim());  // then the probes, as apps::ObservedRun does
  apps::registerProbes(t, tb);
  apps::IorConfig cfg;
  cfg.transfer = 16 * hw::kMiB;
  cfg.ops = 20;
  cfg.write_phase = false;
  apps::Ior ior(tb.ioEnv(), "daos-array", cfg);
  apps::runSpmd(tb.sim(), tb.clients(), 8, ior);
  t.finish();
  double peak = 0;
  std::string hottest;
  for (const auto& n : t.nodes()) {
    if (!n->path.ends_with("/busy_frac")) continue;
    for (std::size_t i = 0; i < n->samples.size(); ++i) {
      if (n->samples[i] > peak) {
        peak = n->samples[i];
        hottest = n->path + " at " +
                  std::to_string(t.sampleTimes()[n->first + i]) + " ns";
      }
    }
  }
  EXPECT_LE(peak, 1.0 + 1e-9) << hottest;
  EXPECT_GT(peak, 0.99) << "no station saturated";
}

}  // namespace
}  // namespace daosim
