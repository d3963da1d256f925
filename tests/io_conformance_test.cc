// Backend-conformance suite for the io:: layer.
//
// Three contracts, checked for every registered backend:
//   1. Registry — the paper's seven API paths (plus hdf5-daos) are reachable
//      by their canonical names, aliases resolve, and unknown names throw.
//   2. Round trip — a write/barrier/read-back cycle through io::Object
//      returns the exact bytes written (testbeds run with retain_data).
//   3. Frozen numbers — at queue_depth = 1 the unified benchmarks reproduce
//      the pre-io:: per-backend implementations bit for bit; the expected
//      integers below were captured from the seed implementations at
//      seed 7, 2 servers x 2 client nodes x 2 ppn, 256 KiB transfers. Each
//      case runs twice: wired by hand on a testbed, and through apps::run.
// Plus the queue-depth contract: deeper IOR submission queues never lower
// write bandwidth (and strictly help before saturation).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "apps/experiment.h"
#include "apps/fault_injector.h"
#include "apps/fdb.h"
#include "apps/fieldio.h"
#include "apps/ior.h"
#include "apps/runner.h"
#include "apps/testbed.h"
#include "io/backend.h"
#include "io/submit_queue.h"
#include "net/retry.h"
#include "sim/fault_plan.h"
#include "vos/payload.h"

namespace daosim {
namespace {

using hw::kKiB;
using sim::Task;
using vos::Payload;

// --- 1. registry ---------------------------------------------------------

TEST(IoRegistry, AllSevenPaperPathsRegistered) {
  const auto names = io::backendNames();
  for (const char* api : {"daos-array", "dfs", "dfuse", "dfuse-il", "hdf5",
                          "hdf5-daos", "lustre-posix", "rados"}) {
    EXPECT_TRUE(io::haveBackend(api)) << api;
    EXPECT_NE(std::find(names.begin(), names.end(), api), names.end()) << api;
  }
}

TEST(IoRegistry, AliasesResolveToCanonicalNames) {
  EXPECT_EQ(io::canonicalName("libdaos"), "daos-array");
  EXPECT_EQ(io::canonicalName("array"), "daos-array");
  EXPECT_EQ(io::canonicalName("dfuse+il"), "dfuse-il");
  EXPECT_EQ(io::canonicalName("hdf5-dfuse"), "hdf5");
  EXPECT_EQ(io::canonicalName("lustre"), "lustre-posix");
  EXPECT_EQ(io::canonicalName("daos-array"), "daos-array");  // idempotent
}

TEST(IoRegistry, UnknownNamesThrow) {
  EXPECT_FALSE(io::haveBackend("ntfs"));
  EXPECT_THROW((void)io::canonicalName("ntfs"), std::invalid_argument);
  EXPECT_THROW((void)io::backendSystem("ntfs"), std::invalid_argument);
  io::Env env;
  EXPECT_THROW((void)io::makeBackend("ntfs", env, hw::NodeId{}, 0),
               std::invalid_argument);
}

TEST(IoRegistry, BackendsMapToTheirSystems) {
  for (const char* api :
       {"daos-array", "dfs", "dfuse", "dfuse-il", "hdf5", "hdf5-daos"}) {
    EXPECT_EQ(io::backendSystem(api), io::System::kDaos) << api;
  }
  EXPECT_EQ(io::backendSystem("lustre-posix"), io::System::kLustre);
  EXPECT_EQ(io::backendSystem("rados"), io::System::kCeph);
}

// --- 2. write/barrier/read-back round trip -------------------------------

/// Each rank writes two pattern blocks to its own object, waits at the
/// barrier, then reads both back and compares byte-for-byte.
class RoundTrip final : public apps::SpmdBenchmark {
 public:
  RoundTrip(io::Env env, std::string api) : env_(env), api_(std::move(api)) {}

  sim::Task<void> process(apps::ProcContext ctx) override {
    std::unique_ptr<io::Backend> backend = io::makeBackend(
        api_, env_, ctx.node,
        apps::spmdClientId(env_.seed, /*domain=*/0x99000, ctx.rank));
    co_await backend->connect();
    io::OpenSpec spec;
    spec.name = "conf." + std::to_string(ctx.rank);
    std::unique_ptr<io::Object> obj = co_await backend->open(spec);

    const Payload a = vos::patternPayload(128 * kKiB, 1000u + ctx.rank);
    const Payload b = vos::patternPayload(64 * kKiB, 2000u + ctx.rank);
    co_await obj->write(0, a);
    co_await obj->write(128 * kKiB, b);
    co_await obj->sync();
    co_await ctx.barrier->arriveAndWait();

    const Payload ra = co_await obj->read(0, 128 * kKiB);
    const Payload rb = co_await obj->read(128 * kKiB, 64 * kKiB);
    EXPECT_EQ(ra, a) << api_ << " rank " << ctx.rank;
    EXPECT_EQ(rb, b) << api_ << " rank " << ctx.rank;
    EXPECT_EQ(co_await obj->size(), 192 * kKiB) << api_;
    co_await obj->close();
  }

 private:
  io::Env env_;
  std::string api_;
};

void runRoundTrip(io::Env env, const std::string& api,
                  sim::Simulation& simu, std::vector<hw::NodeId> nodes) {
  RoundTrip bench(env, api);
  (void)apps::runSpmd(simu, std::move(nodes), 2, bench);
}

TEST(IoRoundTrip, EveryBackendReturnsWrittenBytes) {
  for (const std::string& api : io::backendNames()) {
    SCOPED_TRACE(api);
    switch (io::backendSystem(api)) {
      case io::System::kDaos: {
        apps::DaosTestbed::Options opt;
        opt.server_nodes = 2;
        opt.client_nodes = 1;
        opt.daos.retain_data = true;
        apps::DaosTestbed tb(opt);
        runRoundTrip(tb.ioEnv(), api, tb.sim(), tb.clientSubset(1));
        break;
      }
      case io::System::kLustre: {
        apps::LustreTestbed::Options opt;
        opt.oss_nodes = 2;
        opt.client_nodes = 1;
        opt.lustre.retain_data = true;
        apps::LustreTestbed tb(opt);
        runRoundTrip(tb.ioEnv(), api, tb.sim(), tb.clientSubset(1));
        break;
      }
      case io::System::kCeph: {
        apps::CephTestbed::Options opt;
        opt.osd_nodes = 2;
        opt.client_nodes = 1;
        opt.ceph.retain_data = true;
        apps::CephTestbed tb(opt);
        runRoundTrip(tb.ioEnv(), api, tb.sim(), tb.clientSubset(1));
        break;
      }
    }
  }
}

// --- 3. frozen pre-refactor numbers at queue_depth = 1 --------------------

struct PhaseExpect {
  std::uint64_t bytes, ops, span, p50, p95, p99;
};

void expectPhase(const std::string& label, const apps::PhaseResult& got,
                 const PhaseExpect& want) {
  EXPECT_EQ(got.bytes, want.bytes) << label;
  EXPECT_EQ(got.ops, want.ops) << label;
  EXPECT_EQ(got.span(), want.span) << label;
  // Truncate interpolated percentiles to whole nanoseconds, as the capture
  // harness that produced the expected values did.
  EXPECT_EQ(static_cast<std::uint64_t>(got.latency.percentile(50)), want.p50)
      << label;
  EXPECT_EQ(static_cast<std::uint64_t>(got.latency.percentile(95)), want.p95)
      << label;
  EXPECT_EQ(static_cast<std::uint64_t>(got.latency.percentile(99)), want.p99)
      << label;
}

apps::DaosTestbed::Options frozenDaos() {
  apps::DaosTestbed::Options opt;
  opt.server_nodes = 2;
  opt.client_nodes = 2;
  opt.seed = 7;
  return opt;
}

apps::IorConfig frozenIor() {
  apps::IorConfig cfg;
  cfg.transfer = 256 * kKiB;
  cfg.ops = 20;
  return cfg;
}

/// `bench` through `api` on the frozen deployment, run by apps::run.
apps::RunResult runFrozen(const std::string& api, apps::RunSpec::Bench bench,
                          sim::FaultPlan faults = {},
                          net::RetryPolicy retry = {}) {
  apps::RunSpec spec;
  spec.api = api;
  spec.servers = 2;
  spec.clients = 2;
  spec.ppn = 2;
  spec.bench = std::move(bench);
  spec.faults = std::move(faults);
  spec.retry = retry;
  return apps::run(spec, /*seed=*/7);
}

/// Checks both phases of a hand-wired run and of its apps::run twin.
void expectRuns(const std::string& label, const apps::RunResult& wired,
                const apps::RunResult& via_run, const PhaseExpect& write,
                const PhaseExpect& read) {
  expectPhase(label + ".write", wired.write(), write);
  expectPhase(label + ".read", wired.read(), read);
  expectPhase(label + ".run.write", via_run.write(), write);
  expectPhase(label + ".run.read", via_run.read(), read);
}

struct IorCase {
  const char* api;
  bool shared;
  PhaseExpect write, read;
};

TEST(IoFrozenNumbers, IorDaosApisMatchPreRefactorSeed) {
  const IorCase cases[] = {
      {"daos-array", false,
       {20971520, 80, 4189688, 203380, 233472, 281804},
       {20971520, 80, 4081651, 200977, 233472, 265420}},
      {"dfs", false,
       {20971520, 80, 4189688, 203380, 233472, 281804},
       {20971520, 80, 4081651, 200977, 233472, 265420}},
      {"dfuse", false,
       {20971520, 80, 5999352, 303535, 311296, 377290},
       {20971520, 80, 5924011, 290899, 316757, 363724}},
      {"dfuse-il", false,
       {20971520, 80, 4188992, 209111, 212992, 281804},
       {20971520, 80, 4113651, 200977, 232106, 265420}},
      {"hdf5", false,
       {20971520, 80, 29240831, 1468006, 1504303, 1520435},
       {20971520, 80, 28961566, 1464007, 1503995, 1520435}},
      {"hdf5-daos", false,
       {20971520, 80, 31280406, 1555678, 1572012, 1717043},
       {20971520, 80, 29234403, 1475400, 1505647, 1546649}},
      {"daos-array", true,
       {20971520, 80, 4189688, 203380, 237568, 244121},
       {20971520, 80, 4081651, 201036, 234837, 239058}},
      {"dfs", true,
       {20971520, 80, 4189688, 203380, 239616, 281804},
       {20971520, 80, 4081651, 200977, 233472, 265420}},
  };
  for (const IorCase& c : cases) {
    const std::string label =
        std::string("ior.") + c.api + (c.shared ? ".shared" : "");
    apps::DaosTestbed tb(frozenDaos());
    apps::IorConfig cfg = frozenIor();
    cfg.shared_file = c.shared;
    apps::Ior bench(tb.ioEnv(), c.api, cfg);
    apps::RunResult r =
        apps::runSpmd(tb.sim(), tb.clientSubset(2), 2, bench);
    expectRuns(label, r, runFrozen(c.api, cfg), c.write, c.read);
  }
}

TEST(IoFrozenNumbers, IorLustreAndRadosMatchPreRefactorSeed) {
  {
    apps::LustreTestbed::Options opt;
    opt.oss_nodes = 2;
    opt.client_nodes = 2;
    opt.seed = 7;
    apps::LustreTestbed tb(opt);
    apps::Ior bench(tb.ioEnv(), "lustre-posix", frozenIor());
    apps::RunResult r =
        apps::runSpmd(tb.sim(), tb.clientSubset(2), 2, bench);
    expectRuns("ior.lustre", r, runFrozen("lustre-posix", frozenIor()),
               {20971520, 80, 4128296, 204380, 204589, 242483},
               {20971520, 80, 4028297, 200809, 204589, 240058});
  }
  {
    apps::CephTestbed::Options opt;
    opt.osd_nodes = 2;
    opt.client_nodes = 2;
    opt.seed = 7;
    apps::CephTestbed tb(opt);
    apps::Ior bench(tb.ioEnv(), "rados", frozenIor());
    apps::RunResult r =
        apps::runSpmd(tb.sim(), tb.clientSubset(2), 2, bench);
    expectRuns("ior.rados", r, runFrozen("rados", frozenIor()),
               {20971520, 80, 7421434, 368959, 376619, 445644},
               {20971520, 80, 14999634, 746314, 752823, 819668});
  }
}

TEST(IoFrozenNumbers, FieldIoAndFdbMatchPreRefactorSeed) {
  {
    apps::DaosTestbed tb(frozenDaos());
    apps::FieldIoConfig cfg;
    cfg.field_size = 256 * kKiB;
    cfg.fields = 15;
    apps::FieldIo bench(tb.ioEnv(), "daos-array", cfg);
    apps::RunResult r =
        apps::runSpmd(tb.sim(), tb.clientSubset(2), 2, bench);
    expectRuns("fieldio", r, runFrozen("daos-array", cfg),
               {15728640, 60, 8921608, 578901, 622592, 648806},
               {15728640, 60, 5439635, 355766, 409600, 445739});
  }
  for (const bool async : {false, true}) {
    apps::DaosTestbed tb(frozenDaos());
    apps::FdbConfig cfg;
    cfg.field_size = 256 * kKiB;
    cfg.fields = 20;
    cfg.async_index = async;
    apps::Fdb bench(tb.ioEnv(), "daos-array", cfg);
    apps::RunResult r =
        apps::runSpmd(tb.sim(), tb.clientSubset(2), 2, bench);
    PhaseExpect write{20971520, 80, 10926950, 543283, 579993, 596377};
    if (async) write = {20971520, 80, 4407792, 215598, 245760, 280504};
    // The retrieve path is identical in both modes.
    expectRuns(async ? "fdb.async" : "fdb.sync", r,
               runFrozen("daos-array", cfg), write,
               {20971520, 80, 6082598, 298812, 352256, 362647});
  }
}

// --- 3b. fault machinery off == fault machinery absent --------------------

void expectPhaseBitIdentical(const std::string& label,
                             const apps::PhaseResult& got,
                             const apps::PhaseResult& want) {
  EXPECT_EQ(got.bytes, want.bytes) << label;
  EXPECT_EQ(got.ops, want.ops) << label;
  EXPECT_EQ(got.first_start, want.first_start) << label;
  EXPECT_EQ(got.last_end, want.last_end) << label;
  EXPECT_EQ(got.latency.count(), want.latency.count()) << label;
  EXPECT_EQ(got.latency.min(), want.latency.min()) << label;
  EXPECT_EQ(got.latency.max(), want.latency.max()) << label;
  for (std::size_t i = 0; i < obs::Histogram::kBuckets; ++i) {
    ASSERT_EQ(got.latency.bucketCount(i), want.latency.bucketCount(i))
        << label << " bucket " << i;
  }
}

/// An installed-but-empty FaultPlan and an explicitly disabled RetryPolicy
/// must take the zero-retry fast path everywhere: the full frozen IOR run
/// (event schedule, clock, per-op latency histogram) is bit-identical to a
/// run with no fault machinery at all.
TEST(IoFrozenNumbers, EmptyFaultPlanIsBitIdenticalToPlanFreeRun) {
  auto run = [](bool with_fault_machinery) {
    apps::DaosTestbed::Options opt = frozenDaos();
    if (with_fault_machinery) {
      opt.daos.rpc_retry = net::RetryPolicy{};  // disabled, explicitly
    }
    apps::DaosTestbed tb(opt);
    std::optional<apps::FaultInjector> inj;
    if (with_fault_machinery) {
      inj.emplace(tb, sim::FaultPlan{});
      inj->install();
    }
    apps::Ior bench(tb.ioEnv(), "daos-array", frozenIor());
    apps::RunResult r =
        apps::runSpmd(tb.sim(), tb.clientSubset(2), 2, bench);
    if (inj) {
      inj->rethrowIfFailed();
      EXPECT_EQ(inj->stats().events_applied, 0u);
    }
    EXPECT_EQ(tb.cluster().rpcRetries(), 0u);
    EXPECT_EQ(tb.cluster().rpcTimeouts(), 0u);
    return std::make_pair(r, tb.sim().now());
  };
  const auto [plain, plain_now] = run(false);
  const auto [chaos, chaos_now] = run(true);
  EXPECT_EQ(plain_now, chaos_now);
  EXPECT_EQ(plain.procs, chaos.procs);
  expectPhaseBitIdentical("emptyplan.write", chaos.write(), plain.write());
  expectPhaseBitIdentical("emptyplan.read", chaos.read(), plain.read());
}

// --- 3c. frozen chaos runs ------------------------------------------------
//
// Seeded fault plans on the frozen deployment, pinned to exact outputs so
// the fault injector, RPC retry, rebuild and degraded-read paths cannot
// drift unnoticed. The fault-free cases above never reach this code.

struct FaultExpect {
  std::uint64_t retries, timeouts, degraded_reads, rebuild_bytes, objects_lost;
};

/// Runs `bench` under `spec` with the chaos retry policy and checks the
/// phases and fault counters; every exclusion's rebuild must complete. The
/// apps::run twin must give the same phases.
template <typename Bench, typename Config>
void expectChaosRun(const std::string& label, const char* spec,
                    const Config& cfg, const PhaseExpect& write,
                    const PhaseExpect& read, const FaultExpect& want) {
  apps::DaosTestbed::Options opt = frozenDaos();
  opt.daos.rpc_retry = net::RetryPolicy::chaosDefault();
  apps::DaosTestbed tb(opt);
  sim::FaultTopology topo;
  topo.engines = tb.daos().engineCount();
  topo.targets = tb.daos().totalTargets();
  topo.nodes = static_cast<int>(tb.cluster().nodeCount());
  const sim::FaultPlan plan = sim::FaultPlan::parse(spec, topo);
  apps::FaultInjector inj(tb, plan);
  inj.install();
  Bench bench(tb.ioEnv(), "daos-array", cfg);
  apps::RunResult r = apps::runSpmd(tb.sim(), tb.clientSubset(2), 2, bench);
  inj.rethrowIfFailed();
  const apps::RunResult via_run =
      runFrozen("daos-array", cfg, plan, opt.daos.rpc_retry);
  expectRuns(label, r, via_run, write, read);
  const apps::FaultStats& st = inj.stats();
  EXPECT_EQ(st.events_applied, inj.plan().size()) << label;
  EXPECT_EQ(st.rebuilds_completed, st.rebuilds_started) << label;
  EXPECT_EQ(tb.cluster().rpcRetries(), want.retries) << label;
  EXPECT_EQ(tb.cluster().rpcTimeouts(), want.timeouts) << label;
  EXPECT_EQ(tb.daos().degradedReads(), want.degraded_reads) << label;
  EXPECT_EQ(st.rebuild_bytes_moved, want.rebuild_bytes) << label;
  EXPECT_EQ(st.objects_lost, want.objects_lost) << label;
}

TEST(IoFrozenNumbers, IorChaosRunMatchesSeed) {
  apps::IorConfig cfg = frozenIor();
  cfg.oclass = placement::ObjClass::RP_2GX;
  // The exclusion lands mid-write: reads of the pre-exclusion layout fall
  // back to the surviving replica while rebuild restores redundancy.
  const char* plan =
      "slow@6ms:t3,x4;stall@7ms:e1,300us;flap@8ms:n0,500us;exclude@10ms:t6";
  const PhaseExpect write{20971520, 80, 9064330, 237568, 731818, 1442990};
  const PhaseExpect read{20971520, 80, 4081651, 201159, 229376, 242326};
  const FaultExpect faults{5, 0, 4, 1048576, 1};
  expectChaosRun<apps::Ior>("chaos.ior", plan, cfg, write, read, faults);
}

TEST(IoFrozenNumbers, FdbChaosRunMatchesSeed) {
  apps::FdbConfig cfg;
  cfg.field_size = 256 * kKiB;
  cfg.fields = 20;
  cfg.array_oclass = placement::ObjClass::RP_2G1;
  cfg.kv_oclass = placement::ObjClass::RP_2G1;
  // The flap hits the write phase; the exclusion's rebuild overlaps the
  // retrieve phase.
  const char* plan = "flap@12ms:n1,400us;exclude@21ms:t17";
  const PhaseExpect write{20971520, 80, 14488629, 660401, 851968, 1782579};
  const PhaseExpect read{20971520, 80, 6205064, 294912, 341723, 356078};
  const FaultExpect faults{5, 0, 0, 3407872, 1};
  expectChaosRun<apps::Fdb>("chaos.fdb", plan, cfg, write, read, faults);
}

// --- 4. queue depth ------------------------------------------------------

TEST(IoQueueDepth, DeeperQueuesNeverLowerIorWriteBandwidth) {
  double prev = 0;
  for (const int qd : {1, 2, 4, 8}) {
    apps::DaosTestbed tb(frozenDaos());
    apps::IorConfig cfg = frozenIor();
    cfg.ops = 100;
    cfg.queue_depth = qd;
    apps::Ior bench(tb.ioEnv(), "daos-array", cfg);
    apps::RunResult r =
        apps::runSpmd(tb.sim(), tb.clientSubset(2), 2, bench);
    EXPECT_EQ(r.write().bytes, 4ULL * 100 * 256 * kKiB) << "qd=" << qd;
    EXPECT_GE(r.write().gibps(), prev) << "qd=" << qd;
    prev = r.write().gibps();
  }
  // Depth 1 is well below saturation here, so depth 8 must strictly win.
  apps::DaosTestbed tb(frozenDaos());
  apps::IorConfig cfg = frozenIor();
  cfg.ops = 100;
  apps::Ior bench(tb.ioEnv(), "daos-array", cfg);
  const double qd1 =
      apps::runSpmd(tb.sim(), tb.clientSubset(2), 2, bench).write().gibps();
  EXPECT_GT(prev, qd1 * 1.2);
}

TEST(IoSubmitQueue, BoundsInFlightOpsToDepth) {
  sim::Simulation simu;
  bool done = false;
  simu.spawn([](sim::Simulation& s, bool& done) -> Task<void> {
    io::SubmitQueue q(s, /*depth=*/3);
    EXPECT_EQ(q.depth(), 3u);
    for (int i = 0; i < 10; ++i) {
      co_await q.submit([](sim::Simulation& s) -> Task<void> {
        co_await s.delay(sim::kMillisecond);
      }(s));
      EXPECT_LE(q.inFlight(), 3u);
    }
    co_await q.waitAll();
    EXPECT_EQ(q.inFlight(), 0u);
    done = true;
  }(simu, done));
  simu.run();
  EXPECT_TRUE(done);
}

TEST(IoSubmitQueue, SubmitPropagatesFailuresFromEarlierOps) {
  sim::Simulation simu;
  bool caught = false;
  simu.spawn([](sim::Simulation& s, bool& caught) -> Task<void> {
    io::SubmitQueue q(s, /*depth=*/1);
    q.launch([](sim::Simulation& s) -> Task<void> {
      co_await s.delay(sim::kMicrosecond);
      throw std::runtime_error("op failed");
    }(s));
    try {
      // Depth 1: this submit must first join the failed op...
      co_await q.submit([](sim::Simulation& s) -> Task<void> {
        co_await s.delay(sim::kMicrosecond);
      }(s));
      co_await q.waitAll();
    } catch (const std::runtime_error&) {
      caught = true;
    }
  }(simu, caught));
  simu.run();
  EXPECT_TRUE(caught);
}

}  // namespace
}  // namespace daosim
