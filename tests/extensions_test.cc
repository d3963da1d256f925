// Tests for the extensions beyond the paper's exact configurations:
// Ceph replication, fdb-hammer's asynchronous index path, rename through
// every POSIX access path, and event-queue error propagation.
#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "apps/fdb.h"
#include "apps/runner.h"
#include "apps/testbed.h"
#include "daos/client.h"
#include "io/submit_queue.h"
#include "lustre/lustre.h"
#include "posix/dfuse.h"
#include "rados/rados.h"
#include "sim/simulation.h"

namespace daosim {
namespace {

using posix::OpenFlags;
using sim::Task;
using vos::Payload;
using hw::kKiB;
using hw::kMiB;

// --- Ceph replication ----------------------------------------------------

class CephReplicationTest : public ::testing::Test {
 protected:
  CephReplicationTest() : cluster_(sim_) {
    osd_nodes_ = cluster_.addNodes(hw::NodeSpec::server(), 2);
    mon_ = cluster_.addNode(hw::NodeSpec::client());
    client_node_ = cluster_.addNode(hw::NodeSpec::client());
  }

  sim::Simulation sim_;
  hw::Cluster cluster_;
  std::vector<hw::NodeId> osd_nodes_;
  hw::NodeId mon_{};
  hw::NodeId client_node_{};
};

TEST_F(CephReplicationTest, UpSetsAreDistinctAndBalanced) {
  rados::CephConfig cfg;
  cfg.replica_count = 3;
  rados::CephCluster ceph(cluster_, osd_nodes_, mon_, cfg);
  std::vector<int> load(static_cast<std::size_t>(ceph.osdCount()), 0);
  for (int pg = 0; pg < cfg.pg_count; ++pg) {
    auto up = ceph.upSet(pg);
    ASSERT_EQ(up.size(), 3u);
    std::set<int> s(up.begin(), up.end());
    ASSERT_EQ(s.size(), 3u) << "pg " << pg;
    for (int osd : up) load[static_cast<std::size_t>(osd)]++;
  }
  const double mean = 3.0 * cfg.pg_count / ceph.osdCount();
  for (int l : load) EXPECT_NEAR(l, mean, 0.5 * mean);
}

TEST_F(CephReplicationTest, ReplicatedWriteStoresTwoCopies) {
  rados::CephConfig cfg;
  cfg.replica_count = 2;
  rados::CephCluster ceph(cluster_, osd_nodes_, mon_, cfg);
  auto h = sim_.spawn(
      [](rados::CephCluster& ceph, hw::NodeId node) -> Task<void> {
        rados::RadosClient c(ceph, node);
        co_await c.connect();
        Payload data = vos::patternPayload(2 * kMiB, 5);
        co_await c.writeFull("obj", data);
        // Both copies stored; reads (from the primary) return the data.
        EXPECT_EQ(ceph.bytesStored(), 4 * kMiB);
        Payload back = co_await c.read("obj", 0, 2 * kMiB);
        EXPECT_EQ(back, data);
        int osds_with_data = 0;
        for (int i = 0; i < ceph.osdCount(); ++i) {
          if (ceph.osd(i).store.bytesStored() > 0) ++osds_with_data;
        }
        EXPECT_EQ(osds_with_data, 2);
      }(ceph, client_node_));
  sim_.run();
  ASSERT_FALSE(h.failed());
}

TEST_F(CephReplicationTest, ReplicationHalvesSustainedWriteBandwidth) {
  auto measure = [&](int replicas) {
    sim::Simulation sim;
    hw::Cluster cluster(sim);
    auto osd_nodes = cluster.addNodes(hw::NodeSpec::server(), 2);
    auto mon = cluster.addNode(hw::NodeSpec::client());
    auto cnode = cluster.addNode(hw::NodeSpec::client());
    rados::CephConfig cfg;
    cfg.replica_count = replicas;
    rados::CephCluster ceph(cluster, osd_nodes, mon, cfg);
    // 16 writers streaming 1 MiB objects.
    for (int w = 0; w < 16; ++w) {
      sim.spawn([](rados::CephCluster& ceph, hw::NodeId node,
                   int w) -> Task<void> {
        rados::RadosClient c(ceph, node);
        co_await c.connect();
        for (int i = 0; i < 150; ++i) {
          co_await c.writeFull("w" + std::to_string(w) + "." +
                                   std::to_string(i),
                               Payload::synthetic(kMiB));
        }
      }(ceph, cnode, w));
    }
    sim.run();
    return 16 * 150.0 / (1 << 10) / sim::toSeconds(sim.now());  // GiB/s
  };
  const double r1 = measure(1);
  const double r2 = measure(2);
  // Twice the device volume per user byte: roughly half the bandwidth
  // (slightly above 0.5x because the single-copy run is not fully
  // saturated by 16 writers).
  EXPECT_LT(r2, r1 * 0.7);
  EXPECT_GT(r2, r1 * 0.45);
}

// --- fdb async index -------------------------------------------------------

TEST(FdbAsyncIndex, OverlapsIndexPutsWithDataWrite) {
  auto run = [](bool async) {
    apps::DaosTestbed::Options opt;
    opt.server_nodes = 2;
    opt.client_nodes = 1;
    apps::DaosTestbed tb(opt);
    apps::FdbConfig cfg;
    cfg.fields = 60;
    cfg.async_index = async;
    apps::Fdb bench(tb.ioEnv(), "daos-array", cfg);
    return apps::runSpmd(tb.sim(), tb.clientSubset(1), 1, bench)
        .write()
        .gibps();
  };
  const double sync_bw = run(false);
  const double async_bw = run(true);
  // Seven serialized index puts cost ~0.5 ms/field; overlapped they are
  // hidden behind the 1 MiB array write.
  EXPECT_GT(async_bw, sync_bw * 1.1);
}

TEST(EventQueue, PropagatesFailuresOnWaitAll) {
  sim::Simulation sim;
  bool caught = false;
  sim.spawn([](sim::Simulation& s, bool& caught) -> Task<void> {
    io::SubmitQueue eq(s);
    eq.launch([](sim::Simulation& s) -> Task<void> {
      co_await s.delay(sim::kMicrosecond);
    }(s));
    eq.launch([](sim::Simulation& s) -> Task<void> {
      co_await s.delay(sim::kMicrosecond);
      throw std::runtime_error("async op failed");
    }(s));
    try {
      co_await eq.waitAll();
    } catch (const std::runtime_error&) {
      caught = true;
    }
  }(sim, caught));
  sim.run();
  EXPECT_TRUE(caught);
}

// --- rename through the POSIX paths ---------------------------------------

TEST(VfsRename, WorksThroughDfuseAndInterception) {
  apps::DaosTestbed::Options opt;
  opt.server_nodes = 2;
  opt.client_nodes = 1;
  opt.daos.retain_data = true;
  apps::DaosTestbed tb(opt);
  auto h = tb.sim().spawn([](apps::DaosTestbed& tb) -> Task<void> {
    posix::DfuseVfs dfuse(tb.daemon(tb.clients().front()));
    posix::Fd fd = co_await dfuse.open("/old-name", OpenFlags::writeCreate());
    co_await dfuse.pwrite(fd, 0, Payload::fromString("contents"));
    co_await dfuse.close(fd);

    co_await dfuse.rename("/old-name", "/new-name");
    bool threw = false;
    try {
      (void)co_await dfuse.stat("/old-name");
    } catch (const std::runtime_error&) {
      threw = true;
    }
    EXPECT_TRUE(threw);
    auto st = co_await dfuse.stat("/new-name");
    EXPECT_EQ(st.size, 8u);

    // And through the interception library (metadata forwards to dfuse).
    posix::InterceptVfs il(tb.daemon(tb.clients().front()), tb.dfsMount());
    co_await il.rename("/new-name", "/final-name");
    posix::Fd rd = co_await il.open("/final-name", OpenFlags::readOnly());
    Payload back = co_await il.pread(rd, 0, 8);
    EXPECT_EQ(back.toString(), "contents");
    co_await il.close(rd);
  }(tb));
  tb.sim().run();
  ASSERT_FALSE(h.failed());
}

TEST(VfsRename, WorksOnLustre) {
  apps::LustreTestbed::Options opt;
  opt.oss_nodes = 2;
  opt.client_nodes = 1;
  opt.lustre.retain_data = true;
  apps::LustreTestbed tb(opt);
  auto h = tb.sim().spawn([](apps::LustreTestbed& tb) -> Task<void> {
    lustre::LustreVfs vfs(tb.lustre(), tb.clients().front());
    posix::Fd fd = co_await vfs.open("/a", OpenFlags::writeCreate());
    co_await vfs.pwrite(fd, 0, vos::patternPayload(64 * kKiB, 3));
    co_await vfs.close(fd);
    co_await vfs.rename("/a", "/b");
    auto st = co_await vfs.stat("/b");
    EXPECT_EQ(st.size, 64 * kKiB);
    posix::Fd rd = co_await vfs.open("/b", OpenFlags::readOnly());
    Payload back = co_await vfs.pread(rd, 0, 64 * kKiB);
    EXPECT_EQ(back, vos::patternPayload(64 * kKiB, 3));
    co_await vfs.close(rd);
  }(tb));
  tb.sim().run();
  ASSERT_FALSE(h.failed());
}

}  // namespace
}  // namespace daosim
