// Tests for pool-map exclusion and rebuild: placement stability under
// exclusion, replica re-protection, erasure-code reconstruction onto
// spares, loss accounting for unprotected data, and post-rebuild access
// through the normal (non-degraded) path.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "daos/array.h"
#include "daos/client.h"
#include "daos/kv.h"
#include "daos/rebuild.h"
#include "daos/system.h"
#include "hw/cluster.h"
#include "placement/layout.h"
#include "sim/simulation.h"

namespace daosim {
namespace {

using daos::Array;
using daos::Client;
using daos::Container;
using daos::DaosSystem;
using daos::KeyValue;
using placement::computeLayout;
using placement::makeOid;
using placement::ObjClass;
using sim::Task;
using vos::Payload;
using hw::kMiB;

// --- placement stability under exclusion ---------------------------------

TEST(ExclusionPlacement, SurvivingSlotsNeverMove) {
  const int T = 64;
  std::vector<std::uint8_t> all(T, 1);
  for (std::uint64_t id = 0; id < 300; ++id) {
    for (ObjClass oc : {ObjClass::SX, ObjClass::RP_2GX, ObjClass::EC_2P1GX}) {
      auto oid = makeOid(oc, id);
      auto healthy = computeLayout(oid, T, &all);
      // Exclude one target that appears in the layout.
      const int victim = healthy.targets[0];
      std::vector<std::uint8_t> degraded = all;
      degraded[static_cast<std::size_t>(victim)] = 0;
      auto after = computeLayout(oid, T, &degraded);
      ASSERT_EQ(after.groups, healthy.groups);
      ASSERT_EQ(after.targets.size(), healthy.targets.size());
      for (std::size_t j = 0; j < healthy.targets.size(); ++j) {
        if (healthy.targets[j] == victim) {
          EXPECT_NE(after.targets[j], victim);
        } else {
          EXPECT_EQ(after.targets[j], healthy.targets[j])
              << "surviving slot moved (oid " << id << ")";
        }
      }
    }
  }
}

TEST(ExclusionPlacement, SparesKeepGroupMembersDistinct) {
  const int T = 24;
  std::vector<std::uint8_t> alive(T, 1);
  alive[3] = alive[7] = alive[11] = 0;
  for (std::uint64_t id = 0; id < 200; ++id) {
    auto layout = computeLayout(makeOid(ObjClass::EC_2P1GX, id), T, &alive);
    for (int g = 0; g < layout.groups; ++g) {
      auto members = layout.groupTargets(g);
      std::set<int> s(members.begin(), members.end());
      ASSERT_EQ(s.size(), members.size());
      for (int t : members) EXPECT_TRUE(alive[static_cast<std::size_t>(t)]);
    }
  }
}

TEST(ExclusionPlacement, ThrowsWhenTooFewTargetsAlive) {
  std::vector<std::uint8_t> alive = {1, 0, 0, 0};
  EXPECT_THROW(computeLayout(makeOid(ObjClass::RP_2G1, 1), 4, &alive),
               std::invalid_argument);
}

// --- full rebuild flows --------------------------------------------------

class RebuildTest : public ::testing::Test {
 protected:
  RebuildTest() : cluster_(sim_) {
    auto servers = cluster_.addNodes(hw::NodeSpec::server(), 4);
    client_node_ = cluster_.addNode(hw::NodeSpec::client());
    system_ = std::make_unique<DaosSystem>(cluster_, servers);
    client_ = std::make_unique<Client>(*system_, client_node_, 1);
  }

  template <typename Body>
  void run(Body body) {
    auto h = sim_.spawn([](Client& c, Body body) -> Task<void> {
      co_await c.poolConnect();
      Container cont = co_await c.contCreate("rebuild");
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

TEST_F(RebuildTest, ReplicatedArrayIsReprotectedOntoSpare) {
  run([](Client& c, Container cont) -> Task<void> {
    Array a = co_await Array::create(c, cont, c.nextOid(ObjClass::RP_2G1),
                                     {.cell_size = 1, .chunk_size = 1 << 20});
    Payload data = vos::patternPayload(2 * kMiB, 7);
    co_await a.write(0, data);

    // Kill replica 0: exclude it from the map AND fail its device.
    const int victim = a.layout().target(0, 0);
    c.system().failTarget(victim);
    c.system().excludeTarget(victim);

    daos::RebuildStats stats = co_await daos::rebuild(c.system(), victim);
    EXPECT_GE(stats.slots_repaired, 1u);
    EXPECT_GE(stats.bytes_moved, 2 * kMiB);
    EXPECT_EQ(stats.objects_lost, 0u);

    // The NEW layout avoids the victim; reads go through the normal path
    // (both replicas healthy again) even though the device stays dead.
    Array reopened = co_await Array::open(c, cont, a.oid());
    const placement::Layout& now = reopened.layout();
    for (std::size_t j = 0; j < now.targets.size(); ++j) {
      EXPECT_NE(now.targets[j], victim);
    }
    Payload back = co_await reopened.read(0, 2 * kMiB);
    EXPECT_EQ(back, data);

    // Redundancy is really back: fail the OTHER original replica too and
    // read again — only possible if the spare now holds a full copy.
    const int other = a.layout().target(0, 1);
    c.system().failTarget(other);
    Payload again = co_await reopened.read(0, 2 * kMiB);
    EXPECT_EQ(again, data);
  });
}

TEST_F(RebuildTest, ErasureCodedCellIsReconstructedOntoSpare) {
  run([](Client& c, Container cont) -> Task<void> {
    Array a = co_await Array::create(c, cont, c.nextOid(ObjClass::EC_2P1G1),
                                     {.cell_size = 1, .chunk_size = 1 << 20});
    Payload data = vos::patternPayload(3 * kMiB, 9);  // 3 full stripes
    co_await a.write(0, data);

    // Kill data cell 1 (not the metadata-carrying front target).
    const int victim = a.layout().target(0, 1);
    c.system().failTarget(victim);
    c.system().excludeTarget(victim);

    daos::RebuildStats stats = co_await daos::rebuild(c.system(), victim);
    EXPECT_EQ(stats.slots_repaired, 1u);
    // One reconstructed cell per stripe + the replicated attrs record.
    EXPECT_EQ(stats.records_restored, 4u);
    EXPECT_EQ(stats.records_unrecoverable, 0u);

    // Normal-path read: every cell healthy under the new layout.
    Array reopened = co_await Array::open(c, cont, a.oid());
    Payload back = co_await reopened.read(0, 3 * kMiB);
    EXPECT_EQ(back, data);

    // The parity is intact too: fail the rebuilt spare's *sibling* data
    // cell and confirm degraded reads still reconstruct.
    c.system().failTarget(reopened.layout().target(0, 0));
    Payload degraded = co_await reopened.read(0, 3 * kMiB);
    EXPECT_EQ(degraded, data);
  });
}

TEST_F(RebuildTest, ParityCellIsRecomputedOntoSpare) {
  run([](Client& c, Container cont) -> Task<void> {
    Array a = co_await Array::create(c, cont, c.nextOid(ObjClass::EC_2P1G1),
                                     {.cell_size = 1, .chunk_size = 1 << 20});
    Payload data = vos::patternPayload(2 * kMiB, 13);
    co_await a.write(0, data);

    const int victim = a.layout().target(0, 2);  // the parity cell
    c.system().failTarget(victim);
    c.system().excludeTarget(victim);
    daos::RebuildStats stats = co_await daos::rebuild(c.system(), victim);
    EXPECT_EQ(stats.slots_repaired, 1u);

    // Parity works again: fail a data cell, degraded read must succeed.
    Array reopened = co_await Array::open(c, cont, a.oid());
    c.system().failTarget(reopened.layout().target(0, 1));
    Payload back = co_await reopened.read(0, 2 * kMiB);
    EXPECT_EQ(back, data);
  });
}

TEST_F(RebuildTest, ReplicatedKvIsReprotected) {
  run([](Client& c, Container cont) -> Task<void> {
    KeyValue kv(c, cont, c.nextOid(ObjClass::RP_2G1));
    for (int i = 0; i < 20; ++i) {
      co_await kv.put("key" + std::to_string(i),
                      Payload::fromString("value" + std::to_string(i)));
    }
    const int victim = kv.layout().target(0, 0);
    c.system().failTarget(victim);
    c.system().excludeTarget(victim);
    daos::RebuildStats stats = co_await daos::rebuild(c.system(), victim);
    EXPECT_GE(stats.records_restored, 20u);

    KeyValue reopened(c, cont, kv.oid());
    c.system().failTarget(kv.layout().target(0, 1));  // other original copy
    for (int i = 0; i < 20; ++i) {
      auto v = co_await reopened.get("key" + std::to_string(i));
      EXPECT_TRUE(v.has_value());
      if (v) {
      EXPECT_EQ(v->toString(), "value" + std::to_string(i));
    }
    }
  });
}

TEST_F(RebuildTest, UnprotectedShardsAreReportedLost) {
  run([](Client& c, Container cont) -> Task<void> {
    Array a = co_await Array::create(c, cont, c.nextOid(ObjClass::SX),
                                     {.cell_size = 1, .chunk_size = 1 << 16});
    co_await a.write(0, Payload::synthetic(1 << 20));  // 16 chunks over SX

    const int victim = a.layout().targets[0];
    c.system().excludeTarget(victim);
    daos::RebuildStats stats = co_await daos::rebuild(c.system(), victim);
    EXPECT_GE(stats.objects_lost, 1u);
    EXPECT_EQ(stats.slots_repaired, 0u);
  });
}

TEST_F(RebuildTest, RebuildChargesRealIo) {
  run([](Client& c, Container cont) -> Task<void> {
    Array a = co_await Array::create(c, cont, c.nextOid(ObjClass::RP_2G1),
                                     {.cell_size = 1, .chunk_size = 1 << 20});
    co_await a.write(0, Payload::synthetic(16 * kMiB));
    const int victim = a.layout().target(0, 0);
    c.system().excludeTarget(victim);

    const std::uint64_t msgs_before = c.system().cluster().messages();
    daos::RebuildStats stats = co_await daos::rebuild(c.system(), victim);
    // 16 MiB re-replicated: takes real simulated time and network messages.
    EXPECT_GE(stats.bytes_moved, 16 * kMiB);
    EXPECT_GT(stats.duration, 8 * sim::kMillisecond);
    EXPECT_GT(c.system().cluster().messages(), msgs_before);
  });
}

}  // namespace
}  // namespace daosim
