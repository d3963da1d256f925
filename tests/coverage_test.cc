// Edge-case coverage across modules: empty/zero-length operations, cursor
// semantics, error paths, accounting corners, and API contracts that the
// scenario-driven suites do not reach.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "apps/observe.h"
#include "apps/runner.h"
#include "apps/sweep.h"
#include "apps/testbed.h"
#include "daos/array.h"
#include "daos/client.h"
#include "daos/kv.h"
#include "daos/system.h"
#include "dfs/dfs.h"
#include "hdf5/h5.h"
#include "hw/cluster.h"
#include "io/submit_queue.h"
#include "lustre/lustre.h"
#include "placement/objclass.h"
#include "posix/dfuse.h"
#include "sim/queue_station.h"
#include "sim/simulation.h"
#include "sim/sync.h"

namespace daosim {
namespace {

using daos::Array;
using daos::Client;
using daos::Container;
using daos::DaosSystem;
using daos::KeyValue;
using placement::ObjClass;
using posix::OpenFlags;
using sim::Task;
using vos::Payload;
using namespace sim::literals;
using hw::kKiB;
using hw::kMiB;

// --- sim kernel corners ----------------------------------------------------

TEST(SimCorners, WhenAllEmptyVectorCompletesImmediately) {
  sim::Simulation sim;
  bool done = false;
  sim.spawn([](sim::Simulation& s, bool& d) -> Task<void> {
    co_await sim::whenAll(s, {});
    d = true;
  }(sim, done));
  sim.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(sim.now(), 0u);
}

TEST(SimCorners, QueueStationEnterLeavePreservesFifoOrder) {
  sim::Simulation sim;
  sim::QueueStation st(sim, "s", 1);
  std::vector<int> order;
  for (int i = 0; i < 4; ++i) {
    sim.spawn([](sim::Simulation& s, sim::QueueStation& st,
                 std::vector<int>& o, int id) -> Task<void> {
      co_await s.delay(static_cast<sim::Time>(id) * 1_us);
      const sim::Time held = co_await st.enter();
      co_await s.delay(10_us);  // held across arbitrary work
      o.push_back(id);
      st.leave(held);
    }(sim, st, order, i));
  }
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(st.ops(), 4u);
}

TEST(SimCorners, BarrierWithOneParty) {
  sim::Simulation sim;
  sim::Barrier b(sim, 1);
  bool done = false;
  sim.spawn([](sim::Barrier& b, bool& d) -> Task<void> {
    co_await b.arriveAndWait();
    co_await b.arriveAndWait();
    d = true;
  }(b, done));
  sim.run();
  EXPECT_TRUE(done);
}

TEST(SimCorners, ProcHandleErrorIsNullOnSuccess) {
  sim::Simulation sim;
  auto h = sim.spawn([](sim::Simulation& s) -> Task<void> {
    co_await s.delay(1_us);
  }(sim));
  sim.run();
  EXPECT_TRUE(h.done());
  EXPECT_EQ(h.error(), nullptr);
}

// --- payload / placement corners -------------------------------------------

TEST(PayloadCorners, SliceOfSliceComposes) {
  auto p = vos::patternPayload(1000, 1);
  auto a = p.slice(100, 500);
  auto b = a.slice(50, 100);
  EXPECT_EQ(b, p.slice(150, 100));
}

TEST(PayloadCorners, XorOfSyntheticIsSynthetic) {
  auto x = vos::xorPayloads({Payload::synthetic(64), vos::patternPayload(64, 1)},
                            64);
  EXPECT_FALSE(x.hasBytes());
  EXPECT_EQ(x.size(), 64u);
}

TEST(PayloadCorners, XorIsInvolution) {
  auto a = vos::patternPayload(128, 1);
  auto b = vos::patternPayload(128, 2);
  auto axb = vos::xorPayloads({a, b}, 128);
  EXPECT_EQ(vos::xorPayloads({axb, b}, 128), a);
}

TEST(ObjClassCorners, NameRoundTrip) {
  for (ObjClass oc : {ObjClass::S1, ObjClass::SX, ObjClass::RP_2GX,
                      ObjClass::EC_2P1G1, ObjClass::EC_4P2GX}) {
    EXPECT_EQ(placement::classFromName(placement::className(oc)), oc);
  }
  EXPECT_THROW(placement::classFromName("NOPE"), std::invalid_argument);
}

// --- DAOS client corners ----------------------------------------------------

class DaosCorners : public ::testing::Test {
 protected:
  DaosCorners() : cluster_(sim_) {
    auto servers = cluster_.addNodes(hw::NodeSpec::server(), 2);
    client_node_ = cluster_.addNode(hw::NodeSpec::client());
    system_ = std::make_unique<DaosSystem>(cluster_, servers);
    client_ = std::make_unique<Client>(*system_, client_node_, 1);
  }

  template <typename Body>
  void run(Body body) {
    auto h = sim_.spawn([](Client& c, Body body) -> Task<void> {
      co_await c.poolConnect();
      Container cont = co_await c.contCreate("corners");
      co_await body(c, cont);
    }(*client_, std::move(body)));
    sim_.run();
    if (h.failed()) std::rethrow_exception(h.error());
  }

  sim::Simulation sim_;
  hw::Cluster cluster_;
  hw::NodeId client_node_{};
  std::unique_ptr<DaosSystem> system_;
  std::unique_ptr<Client> client_;
};

TEST_F(DaosCorners, EmptyWritesAndReadsAreNoOps) {
  run([](Client& c, Container cont) -> Task<void> {
    Array a = co_await Array::create(c, cont, c.nextOid(ObjClass::SX),
                                     {.cell_size = 1, .chunk_size = 1024});
    co_await a.write(100, Payload{});
    EXPECT_EQ(co_await a.getSize(), 0u);
    Payload r = co_await a.read(0, 0);
    EXPECT_EQ(r.size(), 0u);
  });
}

TEST_F(DaosCorners, GetSizeOnUntouchedArrayIsZero) {
  run([](Client& c, Container cont) -> Task<void> {
    Array a = co_await Array::create(c, cont, c.nextOid(ObjClass::S4),
                                     {.cell_size = 1, .chunk_size = 1024});
    EXPECT_EQ(co_await a.getSize(), 0u);
  });
}

TEST_F(DaosCorners, ContDestroyReclaimsAllShards) {
  run([](Client& c, Container cont) -> Task<void> {
    Array a = co_await Array::create(c, cont, c.nextOid(ObjClass::SX),
                                     {.cell_size = 1, .chunk_size = 1 << 16});
    co_await a.write(0, Payload::synthetic(1 << 20));
    EXPECT_GT(c.system().bytesStored(), 1u << 20);
    co_await c.contDestroy("corners");
    EXPECT_EQ(c.system().bytesStored(), 0u);
  });
}

TEST_F(DaosCorners, KvRemoveOnReplicatedObjectRemovesAllCopies) {
  run([](Client& c, Container cont) -> Task<void> {
    KeyValue kv(c, cont, c.nextOid(ObjClass::RP_2G1));
    co_await kv.put("k", Payload::fromString("vv"));
    EXPECT_EQ(c.system().bytesStored(), 4u);  // two copies
    EXPECT_TRUE(co_await kv.remove("k"));
    EXPECT_EQ(c.system().bytesStored(), 0u);
  });
}

TEST_F(DaosCorners, EcPartialWriteReadsBackThroughHealthyPath) {
  run([](Client& c, Container cont) -> Task<void> {
    Array a = co_await Array::create(c, cont, c.nextOid(ObjClass::EC_2P1G1),
                                     {.cell_size = 1, .chunk_size = 1 << 20});
    // Unaligned partial write: spans both data cells, not a full stripe.
    Payload data = vos::patternPayload(600 * kKiB, 3);
    co_await a.write(100 * kKiB, data);
    Payload back = co_await a.read(100 * kKiB, 600 * kKiB);
    EXPECT_EQ(back, data);
    EXPECT_EQ(co_await a.getSize(), 700 * kKiB);
  });
}

TEST_F(DaosCorners, EventQueueWaitAllOnEmptyQueue) {
  run([](Client& c, Container) -> Task<void> {
    io::SubmitQueue eq(c.sim());
    EXPECT_EQ(eq.inFlight(), 0u);
    co_await eq.waitAll();  // must not hang
  });
}

// --- POSIX cursor semantics ----------------------------------------------

TEST(PosixCorners, SeekTellAndIndependentFds) {
  apps::DaosTestbed::Options opt;
  opt.server_nodes = 2;
  opt.client_nodes = 1;
  opt.daos.retain_data = true;
  apps::DaosTestbed tb(opt);
  auto h = tb.sim().spawn([](apps::DaosTestbed& tb) -> Task<void> {
    posix::DfsVfs vfs(tb.dfsMount());
    posix::Fd a = co_await vfs.open("/f", OpenFlags::writeCreate());
    posix::Fd b = co_await vfs.open("/f", OpenFlags::readOnly());
    co_await vfs.write(a, Payload::fromString("0123456789"));
    EXPECT_EQ(vfs.tell(a), 10u);
    EXPECT_EQ(vfs.tell(b), 0u);  // cursors are per-fd
    vfs.seek(b, 4);
    Payload r = co_await vfs.read(b, 3);
    EXPECT_EQ(r.toString(), "456");
    EXPECT_EQ(vfs.tell(b), 7u);
    co_await vfs.close(a);
    co_await vfs.close(b);
  }(tb));
  tb.sim().run();
  ASSERT_FALSE(h.failed());
}

TEST(PosixCorners, DfuseOpenMissingWithoutCreateThrows) {
  apps::DaosTestbed::Options opt;
  opt.server_nodes = 2;
  opt.client_nodes = 1;
  apps::DaosTestbed tb(opt);
  auto h = tb.sim().spawn([](apps::DaosTestbed& tb) -> Task<void> {
    posix::DfuseVfs vfs(tb.daemon(tb.clients().front()));
    bool threw = false;
    try {
      (void)co_await vfs.open("/missing", OpenFlags::readOnly());
    } catch (const std::runtime_error&) {
      threw = true;
    }
    EXPECT_TRUE(threw);
  }(tb));
  tb.sim().run();
  ASSERT_FALSE(h.failed());
}

// --- Lustre corners ----------------------------------------------------

TEST(LustreCorners, AppendCursorAndReaddirNested) {
  apps::LustreTestbed::Options opt;
  opt.oss_nodes = 2;
  opt.client_nodes = 1;
  opt.lustre.retain_data = true;
  apps::LustreTestbed tb(opt);
  auto h = tb.sim().spawn([](apps::LustreTestbed& tb) -> Task<void> {
    lustre::LustreVfs vfs(tb.lustre(), tb.clients().front());
    co_await vfs.mkdirs("/a/b");
    posix::Fd fd = co_await vfs.open("/a/b/log", OpenFlags::appendCreate());
    co_await vfs.write(fd, Payload::fromString("one"));
    co_await vfs.close(fd);
    posix::Fd fd2 = co_await vfs.open("/a/b/log", OpenFlags::appendCreate());
    EXPECT_EQ(vfs.tell(fd2), 3u);
    co_await vfs.write(fd2, Payload::fromString("two"));
    co_await vfs.close(fd2);
    auto st = co_await vfs.stat("/a/b/log");
    EXPECT_EQ(st.size, 6u);
    // (assign before comparing: GCC 12 miscompiles brace-init temporaries
    // inside co_await full expressions)
    auto names_a = co_await vfs.readdir("/a");
    EXPECT_EQ(names_a, (std::vector<std::string>{"b"}));
    auto names_ab = co_await vfs.readdir("/a/b");
    EXPECT_EQ(names_ab, (std::vector<std::string>{"log"}));
  }(tb));
  tb.sim().run();
  ASSERT_FALSE(h.failed());
}

// --- HDF5 corners -----------------------------------------------------

Task<void> bigIndexBody(apps::DaosTestbed& tb) {
  posix::DfsVfs vfs(tb.dfsMount());
  auto file =
      co_await hdf5::H5PosixFile::create(tb.sim(), vfs, "/big-index.h5");
  // Many datasets: the persisted index spans several KiB.
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t size = i == 0 ? 0 : 64;
    auto d = co_await file->createDataset(
        "dataset_with_a_long_name_" + std::to_string(i), size);
    if (i > 0) co_await file->writeDataset(d, Payload::synthetic(64));
  }
  co_await file->close();

  auto reopened =
      co_await hdf5::H5PosixFile::open(tb.sim(), vfs, "/big-index.h5");
  auto d0 = co_await reopened->openDataset("dataset_with_a_long_name_0");
  EXPECT_EQ(d0.size, 0u);
  auto d199 = co_await reopened->openDataset("dataset_with_a_long_name_199");
  EXPECT_EQ(d199.size, 64u);
  co_await reopened->close();
}

TEST(Hdf5Corners, ZeroByteDatasetAndLargeIndex) {
  apps::DaosTestbed::Options opt;
  opt.server_nodes = 2;
  opt.client_nodes = 1;
  opt.daos.retain_data = true;
  apps::DaosTestbed tb(opt);
  auto h = tb.sim().spawn(bigIndexBody(tb));
  tb.sim().run();
  ASSERT_FALSE(h.failed());
}

// --- apps corners ------------------------------------------------------

TEST(AppsCorners, PhaseResultEmptyIsZero) {
  apps::PhaseResult p;
  EXPECT_EQ(p.span(), 0u);
  EXPECT_DOUBLE_EQ(p.gibps(), 0.0);
  EXPECT_DOUBLE_EQ(p.iops(), 0.0);
}

std::size_t exemplars() { return apps::ObserveSpec::fromEnv().exemplars; }

TEST(AppsCorners, EnvOverridesParse) {
  setenv("DAOSIM_OPS", "123", 1);
  setenv("DAOSIM_REPS", "7", 1);
  EXPECT_EQ(apps::envOps(), 123u);
  EXPECT_EQ(apps::envReps(), 7);
  unsetenv("DAOSIM_OPS");
  unsetenv("DAOSIM_REPS");
  EXPECT_EQ(apps::envOps(55), 55u);
  EXPECT_EQ(apps::envReps(3), 3);
  // Anything but a whole number >= 1 is rejected, not read as 0.
  for (const char* bad : {"0", "abc", "12abc", "-5", " 7"}) {
    setenv("DAOSIM_OPS", bad, 1);
    EXPECT_THROW(apps::envOps(), std::invalid_argument) << bad;
    setenv("DAOSIM_REPS", bad, 1);
    EXPECT_THROW(apps::envReps(), std::invalid_argument) << bad;
  }
  unsetenv("DAOSIM_OPS");
  unsetenv("DAOSIM_REPS");
  // DAOSIM_JOBS / DAOSIM_EXEMPLARS: unset, empty or 0 is the default
  // (hardware concurrency / off); junk throws instead of reading as 0 or 4.
  unsetenv("DAOSIM_JOBS");
  unsetenv("DAOSIM_EXEMPLARS");
  const int hw_jobs = apps::envJobs();
  EXPECT_GE(hw_jobs, 1);
  EXPECT_EQ(exemplars(), 0u);
  for (const char* dflt : {"", "0"}) {
    setenv("DAOSIM_JOBS", dflt, 1);
    EXPECT_EQ(apps::envJobs(), hw_jobs) << dflt;
    setenv("DAOSIM_EXEMPLARS", dflt, 1);
    EXPECT_EQ(exemplars(), 0u) << dflt;
  }
  setenv("DAOSIM_JOBS", "3", 1);
  setenv("DAOSIM_EXEMPLARS", "2", 1);
  EXPECT_EQ(apps::envJobs(), 3);
  EXPECT_EQ(exemplars(), 2u);
  for (const char* bad : {"abc", "4x", "-1", " 2", "99999999999"}) {
    setenv("DAOSIM_JOBS", bad, 1);
    EXPECT_THROW(apps::envJobs(), std::invalid_argument) << bad;
    setenv("DAOSIM_EXEMPLARS", bad, 1);
    EXPECT_THROW(exemplars(), std::invalid_argument) << bad;
  }
  unsetenv("DAOSIM_JOBS");
  unsetenv("DAOSIM_EXEMPLARS");
  // DAOSIM_FULL_GRID: unset, empty or 0 is off and 1 is on; anything else
  // throws instead of silently meaning off.
  unsetenv("DAOSIM_FULL_GRID");
  EXPECT_FALSE(apps::envFullGrid());
  for (const char* off : {"", "0"}) {
    setenv("DAOSIM_FULL_GRID", off, 1);
    EXPECT_FALSE(apps::envFullGrid()) << off;
  }
  setenv("DAOSIM_FULL_GRID", "1", 1);
  EXPECT_TRUE(apps::envFullGrid());
  for (const char* bad : {"yes", "2", "1x", "-1", " 1"}) {
    setenv("DAOSIM_FULL_GRID", bad, 1);
    EXPECT_THROW(apps::envFullGrid(), std::invalid_argument) << bad;
  }
  unsetenv("DAOSIM_FULL_GRID");
}

TEST(AppsCorners, PrintSeriesFormatsRows) {
  apps::Series s;
  s.name = "demo";
  apps::Measurement m;
  m.point = {4, 8};
  apps::RunResult r;
  r.phase[apps::kWrite].bytes = 1ULL << 30;
  r.phase[apps::kWrite].ops = 1024;
  r.phase[apps::kWrite].first_start = 0;
  r.phase[apps::kWrite].last_end = sim::kSecond;
  m.add(r);
  s.points.push_back(m);
  std::ostringstream os;
  apps::printSeries(os, s);
  const std::string out = os.str();
  EXPECT_NE(out.find("demo"), std::string::npos);
  EXPECT_NE(out.find("1.00"), std::string::npos);  // 1 GiB in 1 s
  EXPECT_NE(out.find("32"), std::string::npos);    // 4 x 8 procs
}


// --- second batch: transport, grids, namespaces, stores -------------------

TEST(ClusterCorners, HeaderBytesChargedPerMessage) {
  sim::Simulation sim;
  hw::Cluster cluster(sim);
  auto a = cluster.addNode(hw::NodeSpec::client());
  auto b = cluster.addNode(hw::NodeSpec::client());
  sim.spawn([](hw::Cluster& c, hw::NodeId a, hw::NodeId b) -> Task<void> {
    co_await c.send(a, b, 1000);
    co_await c.send(a, b, 0);  // pure header
  }(cluster, a, b));
  sim.run();
  EXPECT_EQ(cluster.messages(), 2u);
  EXPECT_EQ(cluster.bytesSent(), 1000u);  // payload accounting excl. header
  // Both messages serialized their wire size (payload + 512B header).
  EXPECT_GT(cluster.node(a).tx().busyTime(), 0u);
}

TEST(SweepCorners, ClientNodeGridIncludesNonPowerOfTwoMax) {
  auto grid = apps::clientNodeGrid(24, 4);
  ASSERT_GE(grid.size(), 2u);
  EXPECT_EQ(grid.back().client_nodes, 24);  // appended explicitly
  EXPECT_EQ(grid[grid.size() - 2].client_nodes, 16);
}

TEST(DfsCorners, RenameAcrossDirectoriesKeepsData) {
  apps::DaosTestbed::Options opt;
  opt.server_nodes = 2;
  opt.client_nodes = 1;
  opt.daos.retain_data = true;
  apps::DaosTestbed tb(opt);
  auto h = tb.sim().spawn([](apps::DaosTestbed& tb) -> Task<void> {
    dfs::FileSystem fs = tb.dfsMount();
    co_await fs.mkdirs("/src/deep");
    co_await fs.mkdirs("/dst");
    dfs::File f = co_await fs.open("/src/deep/file", {.create = true});
    co_await fs.write(f, 0, Payload::fromString("payload"));
    co_await fs.rename("/src/deep/file", "/dst/moved");

    auto gone = co_await fs.lookup("/src/deep/file");
    EXPECT_FALSE(gone.has_value());
    dfs::File g = co_await fs.open("/dst/moved", {});
    Payload back = co_await fs.read(g, 0, 7);
    EXPECT_EQ(back.toString(), "payload");
  }(tb));
  tb.sim().run();
  ASSERT_FALSE(h.failed());
}

TEST(KvCorners, ListMergesManyKeysAcrossAllGroups) {
  apps::DaosTestbed::Options opt;
  opt.server_nodes = 2;
  opt.client_nodes = 1;
  opt.daos.retain_data = true;
  apps::DaosTestbed tb(opt);
  auto h = tb.sim().spawn([](apps::DaosTestbed& tb) -> Task<void> {
    Client c(tb.daos(), tb.clients().front(), 77);
    Container cont = co_await c.contOpen("bench");
    KeyValue kv(c, cont, c.nextOid(ObjClass::SX));  // 32 groups
    for (int i = 0; i < 200; ++i) {
      co_await kv.put("key" + std::to_string(i), Payload::fromString("v"));
    }
    auto keys = co_await kv.list();
    EXPECT_EQ(keys.size(), 200u);
    EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
  }(tb));
  tb.sim().run();
  ASSERT_FALSE(h.failed());
}

TEST(LustreCorners2, TruncateThenReadSeesHole) {
  apps::LustreTestbed::Options opt;
  opt.oss_nodes = 2;
  opt.client_nodes = 1;
  opt.lustre.retain_data = true;
  apps::LustreTestbed tb(opt);
  auto h = tb.sim().spawn([](apps::LustreTestbed& tb) -> Task<void> {
    lustre::LustreVfs vfs(tb.lustre(), tb.clients().front());
    posix::Fd fd = co_await vfs.open("/t", OpenFlags::writeCreate());
    co_await vfs.pwrite(fd, 0, vos::patternPayload(256 * kKiB, 1));
    co_await vfs.close(fd);
    co_await vfs.truncate("/t", 100 * kKiB);

    posix::Fd rd = co_await vfs.open("/t", OpenFlags::readOnly());
    Payload head = co_await vfs.pread(rd, 0, 100 * kKiB);
    EXPECT_EQ(head, vos::patternPayload(256 * kKiB, 1).slice(0, 100 * kKiB));
    Payload beyond = co_await vfs.pread(rd, 100 * kKiB, 16);
    bool zero = true;
    for (auto b : beyond.bytes()) {
      if (b != std::byte{0}) zero = false;
    }
    EXPECT_TRUE(zero);
    co_await vfs.close(rd);
  }(tb));
  tb.sim().run();
  ASSERT_FALSE(h.failed());
}

TEST(RadosCorners, RemoveFreesSpaceAndStatSeesPartialWrites) {
  apps::CephTestbed::Options opt;
  opt.osd_nodes = 2;
  opt.client_nodes = 1;
  opt.ceph.retain_data = true;
  apps::CephTestbed tb(opt);
  auto h = tb.sim().spawn([](apps::CephTestbed& tb) -> Task<void> {
    rados::RadosClient c(tb.ceph(), tb.clients().front());
    co_await c.connect();
    co_await c.write("obj", 1 * kMiB, Payload::synthetic(64 * kKiB));
    // stat reports one past the last byte, even with a leading hole.
    EXPECT_EQ(co_await c.stat("obj"), 1 * kMiB + 64 * kKiB);
    EXPECT_EQ(tb.ceph().bytesStored(), 64 * kKiB);
    co_await c.remove("obj");
    EXPECT_EQ(tb.ceph().bytesStored(), 0u);
  }(tb));
  tb.sim().run();
  ASSERT_FALSE(h.failed());
}

Task<void> h5DaosOverwriteBody(apps::DaosTestbed& tb) {
  Client c(tb.daos(), tb.clients().front(), 88);
  auto file = co_await hdf5::H5DaosFile::create(c, "overwrite.h5");
  auto d1 = co_await file->createDataset("d", 32 * kKiB);
  co_await file->writeDataset(d1, vos::patternPayload(32 * kKiB, 1));
  // Re-creating the same dataset name points the catalog at a new object.
  auto d2 = co_await file->createDataset("d", 16 * kKiB);
  co_await file->writeDataset(d2, vos::patternPayload(16 * kKiB, 2));
  auto opened = co_await file->openDataset("d");
  EXPECT_EQ(opened.size, 16 * kKiB);
  Payload back = co_await file->readDataset(opened);
  EXPECT_EQ(back, vos::patternPayload(16 * kKiB, 2));
  co_await file->close();
}

TEST(Hdf5Corners, DaosVolDatasetOverwriteTakesLatest) {
  apps::DaosTestbed::Options opt;
  opt.server_nodes = 2;
  opt.client_nodes = 1;
  opt.daos.retain_data = true;
  apps::DaosTestbed tb(opt);
  auto h = tb.sim().spawn(h5DaosOverwriteBody(tb));
  tb.sim().run();
  ASSERT_FALSE(h.failed());
}

}  // namespace
}  // namespace daosim
