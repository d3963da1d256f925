// Parameterized redundancy suite: for every protected object class, verify
// round-trip correctness, storage amplification, and single-failure
// degraded reads — the guarantees behind the paper's §III-D experiments.
// Also covers pool space queries and IOR's single-shared-file mode.
#include <gtest/gtest.h>

#include <memory>

#include "apps/ior.h"
#include "apps/runner.h"
#include "apps/testbed.h"
#include "daos/array.h"
#include "daos/client.h"
#include "daos/kv.h"
#include "daos/system.h"
#include "hw/cluster.h"
#include "sim/simulation.h"

namespace daosim {
namespace {

using daos::Array;
using daos::Client;
using daos::Container;
using daos::DaosSystem;
using daos::KeyValue;
using placement::classSpec;
using placement::ObjClass;
using sim::Task;
using vos::Payload;
using hw::kKiB;
using hw::kMiB;

struct RedundancyCase {
  ObjClass oclass;
  const char* name;
  bool survives_one_failure;
};

class RedundancyTest : public ::testing::TestWithParam<RedundancyCase> {
 protected:
  RedundancyTest() : cluster_(sim_) {
    auto servers = cluster_.addNodes(hw::NodeSpec::server(), 4);
    client_node_ = cluster_.addNode(hw::NodeSpec::client());
    system_ = std::make_unique<DaosSystem>(cluster_, servers);
    client_ = std::make_unique<Client>(*system_, client_node_, 1);
  }

  sim::Simulation sim_;
  hw::Cluster cluster_;
  hw::NodeId client_node_{};
  std::unique_ptr<DaosSystem> system_;
  std::unique_ptr<Client> client_;
};

TEST_P(RedundancyTest, RoundTripAmplificationAndDegradedRead) {
  const RedundancyCase& tc = GetParam();
  bool done = false;
  auto h = sim_.spawn([](Client& c, RedundancyCase tc, bool& done) -> Task<void> {
    co_await c.poolConnect();
    Container cont = co_await c.contCreate("red");
    Array a = co_await Array::create(c, cont, c.nextOid(tc.oclass),
                                     {.cell_size = 1, .chunk_size = 1 << 20});
    // 4 full stripes of real data.
    Payload data = vos::patternPayload(4 * kMiB, 99);
    const std::uint64_t before = c.system().bytesStored();
    co_await a.write(0, data);
    const double stored =
        static_cast<double>(c.system().bytesStored() - before);
    const double expected =
        classSpec(tc.oclass).writeAmplification() * 4 * kMiB;
    EXPECT_NEAR(stored, expected, 0.01 * expected) << tc.name;

    Payload healthy = co_await a.read(0, 4 * kMiB);
    EXPECT_EQ(healthy, data) << tc.name;

    if (tc.survives_one_failure) {
      // Fail the first target of the first group; reads must still return
      // identical bytes (replica failover or XOR reconstruction).
      const int victim = a.layout().target(0, 0);
      c.system().failTarget(victim);
      Payload degraded = co_await a.read(0, 4 * kMiB);
      EXPECT_EQ(degraded, data) << tc.name << " (degraded)";
      // Size probes must also survive the failure.
      EXPECT_EQ(co_await a.getSize(), 4 * kMiB) << tc.name;
      c.system().recoverTarget(victim);
    }
    done = true;
  }(*client_, tc, done));
  sim_.run();
  ASSERT_FALSE(h.failed()) << tc.name;
  EXPECT_TRUE(done);
}

INSTANTIATE_TEST_SUITE_P(
    Classes, RedundancyTest,
    ::testing::Values(
        RedundancyCase{ObjClass::S1, "S1", false},
        RedundancyCase{ObjClass::SX, "SX", false},
        RedundancyCase{ObjClass::RP_2G1, "RP_2G1", true},
        RedundancyCase{ObjClass::RP_2GX, "RP_2GX", true},
        RedundancyCase{ObjClass::RP_3G1, "RP_3G1", true},
        RedundancyCase{ObjClass::EC_2P1G1, "EC_2P1G1", true},
        RedundancyCase{ObjClass::EC_2P1GX, "EC_2P1GX", true},
        RedundancyCase{ObjClass::EC_4P2GX, "EC_4P2GX", true}),
    [](const auto& info) { return info.param.name; });

TEST_F(RedundancyTest, ReplicatedKvSurvivesTwoFailuresWithRp3) {
  bool done = false;
  auto h = sim_.spawn([](Client& c, bool& done) -> Task<void> {
    co_await c.poolConnect();
    Container cont = co_await c.contCreate("kv3");
    KeyValue kv(c, cont, c.nextOid(ObjClass::RP_3G1));
    co_await kv.put("k", Payload::fromString("triple"));
    c.system().failTarget(kv.layout().target(0, 0));
    c.system().failTarget(kv.layout().target(0, 1));
    auto v = co_await kv.get("k");
    EXPECT_TRUE(v.has_value());
    if (v) {
      EXPECT_EQ(v->toString(), "triple");
    }
    done = true;
  }(*client_, done));
  sim_.run();
  ASSERT_FALSE(h.failed());
  EXPECT_TRUE(done);
}

TEST_F(RedundancyTest, PoolQueryReportsCapacityAndUsage) {
  bool done = false;
  auto h = sim_.spawn([](Client& c, bool& done) -> Task<void> {
    co_await c.poolConnect();
    auto before = co_await c.poolQuery();
    EXPECT_EQ(before.engines, 4);
    EXPECT_EQ(before.targets, 64);
    EXPECT_EQ(before.total_bytes, 64ULL * 384 * (1ULL << 30));

    Container cont = co_await c.contCreate("space");
    Array a = co_await Array::create(c, cont, c.nextOid(ObjClass::RP_2GX),
                                     {.cell_size = 1, .chunk_size = 1 << 20});
    co_await a.write(0, Payload::synthetic(8 * kMiB));
    auto after = co_await c.poolQuery();
    // 8 MiB twice (RP_2) + the replicated attrs records.
    EXPECT_EQ(after.used_bytes - before.used_bytes, 16 * kMiB + 32);
    done = true;
  }(*client_, done));
  sim_.run();
  ASSERT_FALSE(h.failed());
  EXPECT_TRUE(done);
}

// --- IOR single-shared-file mode ---------------------------------------

TEST(SharedFileIor, DaosArraySegmentsDoNotCollide) {
  apps::DaosTestbed::Options opt;
  opt.server_nodes = 2;
  opt.client_nodes = 2;
  opt.daos.retain_data = true;  // verify actual stored bytes
  apps::DaosTestbed tb(opt);
  apps::IorConfig cfg;
  cfg.transfer = 128 * kKiB;
  cfg.ops = 10;
  cfg.shared_file = true;
  apps::Ior bench(tb.ioEnv(), "daos-array", cfg);
  apps::RunResult r = apps::runSpmd(tb.sim(), tb.clientSubset(2), 2, bench);

  // 4 ranks x 10 ops x 128 KiB, all in ONE object: exactly that much data
  // stored (disjoint segments) plus a handful of metadata records (array
  // attrs, DFS superblock and directory entry from the testbed setup).
  EXPECT_EQ(r.write().bytes, 4ULL * 10 * 128 * kKiB);
  EXPECT_GE(tb.daos().bytesStored(), r.write().bytes);
  EXPECT_LT(tb.daos().bytesStored(), r.write().bytes + 256);
  EXPECT_EQ(r.read().bytes, r.write().bytes);
}

TEST(SharedFileIor, DfsSharedFileHasSingleDirectoryEntry) {
  apps::DaosTestbed::Options opt;
  opt.server_nodes = 2;
  opt.client_nodes = 2;
  opt.daos.retain_data = true;
  apps::DaosTestbed tb(opt);
  apps::IorConfig cfg;
  cfg.transfer = 64 * kKiB;
  cfg.ops = 8;
  cfg.shared_file = true;
  apps::Ior bench(tb.ioEnv(), "dfs", cfg);
  (void)apps::runSpmd(tb.sim(), tb.clientSubset(2), 2, bench);

  // The namespace holds exactly one shared file.
  bool checked = false;
  auto h = tb.sim().spawn(
      [](apps::DaosTestbed& tb, bool& checked) -> Task<void> {
        dfs::FileSystem fs = tb.dfsMount();
        auto names = co_await fs.readdir("/bench");
        EXPECT_EQ(names, (std::vector<std::string>{"ior.shared"}));
        auto st = co_await fs.stat("/bench/ior.shared");
        EXPECT_EQ(st.size, 4ULL * 8 * 64 * kKiB);
        checked = true;
      }(tb, checked));
  tb.sim().run();
  ASSERT_FALSE(h.failed());
  EXPECT_TRUE(checked);
}

}  // namespace
}  // namespace daosim
