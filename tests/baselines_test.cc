// Tests for the Lustre and Ceph baseline systems: functional round-trips,
// striping/placement properties, and the cost-model relations the paper's
// comparison figures (Fig. 7-9) depend on.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>

#include "hw/cluster.h"
#include "lustre/lustre.h"
#include "rados/rados.h"
#include "sim/simulation.h"
#include "sim/stats.h"
#include "sim/sync.h"

namespace daosim {
namespace {

using posix::OpenFlags;
using sim::Task;
using sim::Time;
using vos::Payload;
using namespace sim::literals;
using hw::kKiB;
using hw::kMiB;

class LustreTest : public ::testing::Test {
 protected:
  LustreTest() : cluster_(sim_) {
    auto oss = cluster_.addNodes(hw::NodeSpec::server(), 2);
    auto mds = cluster_.addNode(hw::NodeSpec::server(1));
    client_node_ = cluster_.addNode(hw::NodeSpec::client());
    lustre_ = std::make_unique<lustre::LustreSystem>(cluster_, oss, mds);
  }

  template <typename Body>
  void run(Body body) {
    auto h = sim_.spawn([](lustre::LustreSystem& ls, hw::NodeId node,
                           Body body) -> Task<void> {
      lustre::LustreVfs vfs(ls, node);
      co_await body(ls, vfs);
    }(*lustre_, client_node_, std::move(body)));
    sim_.run();
    if (h.failed()) {
      sim_.spawn([](sim::ProcHandle h) -> Task<void> { co_await h.join(); }(h));
      EXPECT_NO_THROW(sim_.run());
      FAIL() << "simulated process failed";
    }
  }

  sim::Simulation sim_;
  hw::Cluster cluster_;
  hw::NodeId client_node_{};
  std::unique_ptr<lustre::LustreSystem> lustre_;
};

TEST_F(LustreTest, FileRoundTripAndStat) {
  run([](lustre::LustreSystem&, lustre::LustreVfs& vfs) -> Task<void> {
    co_await vfs.mkdirs("/runs/a");
    posix::Fd fd = co_await vfs.open("/runs/a/data", OpenFlags::writeCreate());
    Payload data = vos::patternPayload(3 * kMiB, 11);
    co_await vfs.pwrite(fd, 0, data);
    co_await vfs.close(fd);

    posix::Fd rd = co_await vfs.open("/runs/a/data", OpenFlags::readOnly());
    Payload back = co_await vfs.pread(rd, 0, 3 * kMiB);
    EXPECT_EQ(back, data);
    auto st = co_await vfs.fstat(rd);
    EXPECT_EQ(st.size, 3 * kMiB);
    co_await vfs.close(rd);

    auto dir_st = co_await vfs.stat("/runs");
    EXPECT_TRUE(dir_st.is_directory);
    auto names = co_await vfs.readdir("/runs/a");
    EXPECT_EQ(names, (std::vector<std::string>{"data"}));
  });
}

TEST_F(LustreTest, StripingSpreadsAcrossOsts) {
  run([](lustre::LustreSystem& ls, lustre::LustreVfs&) -> Task<void> {
    lustre::LustreVfs striped(ls, 3, /*stripe_count=*/8, 1 * kMiB);
    posix::Fd fd = co_await striped.open("/striped", OpenFlags::writeCreate());
    co_await striped.pwrite(fd, 0, Payload::synthetic(16 * kMiB));
    co_await striped.close(fd);

    int osts_with_data = 0;
    for (int i = 0; i < ls.ostCount(); ++i) {
      if (ls.ost(i).store.bytesStored() > 0) ++osts_with_data;
    }
    EXPECT_EQ(osts_with_data, 8);
    EXPECT_EQ(ls.bytesStored(), 16 * kMiB);
  });
}

TEST_F(LustreTest, StripedReadReassemblesRealBytes) {
  run([](lustre::LustreSystem& ls, lustre::LustreVfs&) -> Task<void> {
    lustre::LustreVfs striped(ls, 3, /*stripe_count=*/8, 1 * kMiB);
    const Payload data = vos::patternPayload(7 * kMiB / 2, 42);
    posix::Fd fd = co_await striped.open("/real", OpenFlags::writeCreate());
    co_await striped.pwrite(fd, 0, data);
    // Unaligned on both ends, across stripes 0-3 on four OSTs.
    const std::uint64_t off = kMiB / 2 + 123;
    const std::uint64_t len = data.size() - off - 77;
    Payload back = co_await striped.pread(fd, off, len);
    EXPECT_TRUE(back.hasBytes());
    EXPECT_EQ(back, data.slice(off, len));
    back = co_await striped.pread(fd, 0, data.size());
    EXPECT_EQ(back, data);
    co_await striped.close(fd);
  });
}

TEST_F(LustreTest, OpenCloseAndStatGoThroughMds) {
  run([](lustre::LustreSystem&, lustre::LustreVfs& vfs) -> Task<void> {
    posix::Fd fd = co_await vfs.open("/f", OpenFlags::writeCreate());
    co_await vfs.pwrite(fd, 0, Payload::synthetic(kKiB));
    co_await vfs.close(fd);
    (void)co_await vfs.stat("/f");
  });
  // open(create) + close + stat = 3 MDS requests; the data write = 0.
  EXPECT_EQ(lustre_->mdsStation().ops(), 3u);
}

TEST_F(LustreTest, MdsSaturationCapsMetadataRate) {
  // Many concurrent processes doing open/close loops: aggregate op rate must
  // cap at mds_threads / mds_service regardless of process count.
  const int procs = 64;
  const int ops = 30;
  for (int p = 0; p < procs; ++p) {
    sim_.spawn([](lustre::LustreSystem& ls, hw::NodeId node,
                  int id, int ops) -> Task<void> {
      lustre::LustreVfs vfs(ls, node);
      for (int i = 0; i < ops; ++i) {
        posix::Fd fd = co_await vfs.open(
            "/meta" + std::to_string(id) + "_" + std::to_string(i),
            OpenFlags::writeCreate());
        co_await vfs.close(fd);
      }
    }(*lustre_, client_node_, p, ops));
  }
  sim_.run();
  const double mds_ops = procs * ops * 2.0;  // open + close
  const double rate = mds_ops / sim::toSeconds(sim_.now());
  const double cap = 16.0 / 80e-6;  // mds_threads / mds_service = 200k/s
  EXPECT_LT(rate, cap * 1.05);
  EXPECT_GT(rate, cap * 0.5);  // and the MDS is the actual bottleneck
}

TEST_F(LustreTest, UnlinkTruncateSemantics) {
  run([](lustre::LustreSystem& ls, lustre::LustreVfs& vfs) -> Task<void> {
    posix::Fd fd = co_await vfs.open("/t", OpenFlags::writeCreate());
    co_await vfs.pwrite(fd, 0, vos::patternPayload(2 * kMiB, 3));
    co_await vfs.close(fd);

    co_await vfs.truncate("/t", kMiB);
    auto st = co_await vfs.stat("/t");
    EXPECT_EQ(st.size, kMiB);
    EXPECT_EQ(ls.bytesStored(), kMiB);

    co_await vfs.unlink("/t");
    EXPECT_EQ(ls.bytesStored(), 0u);
    bool threw = false;
    try {
      (void)co_await vfs.stat("/t");
    } catch (const std::runtime_error&) {
      threw = true;
    }
    EXPECT_TRUE(threw);
  });
}

class CephTest : public ::testing::Test {
 protected:
  CephTest() : cluster_(sim_) {
    auto osd_nodes = cluster_.addNodes(hw::NodeSpec::server(), 2);
    auto mon = cluster_.addNode(hw::NodeSpec::client());
    client_node_ = cluster_.addNode(hw::NodeSpec::client());
    ceph_ = std::make_unique<rados::CephCluster>(cluster_, osd_nodes, mon);
  }

  template <typename Body>
  void run(Body body) {
    auto h = sim_.spawn([](rados::CephCluster& ceph, hw::NodeId node,
                           Body body) -> Task<void> {
      rados::RadosClient client(ceph, node);
      co_await client.connect();
      co_await body(ceph, client);
    }(*ceph_, client_node_, std::move(body)));
    sim_.run();
    if (h.failed()) {
      sim_.spawn([](sim::ProcHandle h) -> Task<void> { co_await h.join(); }(h));
      EXPECT_NO_THROW(sim_.run());
      FAIL() << "simulated process failed";
    }
  }

  sim::Simulation sim_;
  hw::Cluster cluster_;
  hw::NodeId client_node_{};
  std::unique_ptr<rados::CephCluster> ceph_;
};

TEST_F(CephTest, ObjectRoundTrip) {
  run([](rados::CephCluster&, rados::RadosClient& c) -> Task<void> {
    Payload data = vos::patternPayload(5 * kMiB, 21);
    co_await c.writeFull("field.0", data);
    Payload back = co_await c.read("field.0", 0, 5 * kMiB);
    EXPECT_EQ(back, data);
    EXPECT_EQ(co_await c.stat("field.0"), 5 * kMiB);
    EXPECT_EQ(co_await c.stat("missing"), 0u);

    co_await c.remove("field.0");
    EXPECT_EQ(co_await c.stat("field.0"), 0u);
  });
}

TEST_F(CephTest, ObjectSizeCapEnforced) {
  run([](rados::CephCluster& ceph, rados::RadosClient& c) -> Task<void> {
    bool threw = false;
    try {
      co_await c.write("big", ceph.config().max_object_bytes - 10,
                       Payload::synthetic(100));
    } catch (const std::invalid_argument&) {
      threw = true;
    }
    EXPECT_TRUE(threw);
  });
}

TEST_F(CephTest, ObjectsAreNotSharded) {
  run([](rados::CephCluster& ceph, rados::RadosClient& c) -> Task<void> {
    co_await c.writeFull("whole", Payload::synthetic(32 * kMiB));
    int osds_with_data = 0;
    for (int i = 0; i < ceph.osdCount(); ++i) {
      if (ceph.osd(i).store.bytesStored() > 0) ++osds_with_data;
    }
    EXPECT_EQ(osds_with_data, 1);  // single primary OSD holds it all
  });
}

TEST_F(CephTest, PgPlacementBalancesManyObjects) {
  std::set<int> used;
  for (int i = 0; i < 2000; ++i) {
    used.insert(ceph_->primaryOsd(ceph_->pgOf("obj" + std::to_string(i))));
  }
  // 2000 objects over 1024 PGs over 32 OSDs: every OSD gets some.
  EXPECT_EQ(used.size(), static_cast<std::size_t>(ceph_->osdCount()));
}

TEST_F(CephTest, FewerPgsBalanceWorse) {
  rados::CephConfig few;
  few.pg_count = 16;
  rados::CephCluster small(cluster_, {}, 0, few);  // placement math only
  std::set<int> pgs;
  for (int i = 0; i < 1000; ++i) {
    pgs.insert(small.pgOf("o" + std::to_string(i)));
  }
  EXPECT_LE(pgs.size(), 16u);
}

TEST_F(CephTest, WriteAmplificationChargesDevice) {
  run([](rados::CephCluster& ceph, rados::RadosClient& c) -> Task<void> {
    co_await c.writeFull("amp", Payload::synthetic(10 * kMiB));
    std::uint64_t device_bytes = 0;
    for (int i = 0; i < ceph.osdCount(); ++i) {
      device_bytes += ceph.osd(i).device->bytesWritten();
    }
    // BlueStore amplification on the device, exact user bytes in the store.
    EXPECT_NEAR(static_cast<double>(device_bytes),
                ceph.config().write_amplification * 10 * kMiB,
                0.01 * 10 * kMiB);
    EXPECT_EQ(ceph.bytesStored(), 10 * kMiB);
  });
}

TEST_F(CephTest, PerOsdWriteBandwidthIsRoughlyTwoThirdsOfRaw) {
  // Sustained 1 MiB writes to one object: effective bandwidth should be
  // raw_device / write_amplification (plus small op overheads).
  run([](rados::CephCluster& ceph, rados::RadosClient& c) -> Task<void> {
    const int ops = 60;
    const Time t0 = ceph.cluster().sim().now();
    for (int i = 0; i < ops; ++i) {
      co_await c.write("stream", static_cast<std::uint64_t>(i) * kMiB,
                       Payload::synthetic(kMiB));
    }
    const double secs = sim::toSeconds(ceph.cluster().sim().now() - t0);
    const double mibps = ops / secs / 1.048576e6 * 1e6;  // MiB/s
    const double raw = 3.86 * 1024 / 16;  // 247 MiB/s
    const double expected = raw / ceph.config().write_amplification;
    EXPECT_LT(mibps, expected * 1.1);
    EXPECT_GT(mibps, expected * 0.8);
  });
}

}  // namespace
}  // namespace daosim
