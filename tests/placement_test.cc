// Tests for OID encoding, object classes and placement layouts, including
// distribution-uniformity properties across classes (parameterized).
#include <gtest/gtest.h>
#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "placement/layout.h"
#include "placement/objclass.h"
#include "placement/oid.h"
#include "sim/rng.h"

namespace daosim::placement {
namespace {

TEST(ObjClassSpec, ShardingClasses) {
  EXPECT_EQ(classSpec(ObjClass::S1).groups, 1);
  EXPECT_EQ(classSpec(ObjClass::S4).groups, 4);
  EXPECT_EQ(classSpec(ObjClass::SX).groups, -1);
  EXPECT_EQ(classSpec(ObjClass::S1).groupSize(), 1);
  EXPECT_FALSE(classSpec(ObjClass::SX).erasureCoded());
  EXPECT_FALSE(classSpec(ObjClass::SX).replicated());
}

TEST(ObjClassSpec, RedundancyClasses) {
  auto rp = classSpec(ObjClass::RP_2GX);
  EXPECT_TRUE(rp.replicated());
  EXPECT_EQ(rp.groupSize(), 2);
  EXPECT_DOUBLE_EQ(rp.writeAmplification(), 2.0);

  auto ec = classSpec(ObjClass::EC_2P1GX);
  EXPECT_TRUE(ec.erasureCoded());
  EXPECT_EQ(ec.groupSize(), 3);
  EXPECT_DOUBLE_EQ(ec.writeAmplification(), 1.5);

  auto ec42 = classSpec(ObjClass::EC_4P2GX);
  EXPECT_DOUBLE_EQ(ec42.writeAmplification(), 1.5);
}

TEST(Oid, EncodesClassAndPreservesUserBits) {
  auto oid = makeOid(ObjClass::EC_2P1GX, 0xdeadbeefcafeULL, 0x1234);
  EXPECT_EQ(oidClass(oid), ObjClass::EC_2P1GX);
  EXPECT_EQ(oid.lo, 0xdeadbeefcafeULL);
  EXPECT_EQ(oidUserHi(oid), 0x1234u);
}

TEST(Oid, HashDiffersByClassAndId) {
  auto a = makeOid(ObjClass::S1, 1);
  auto b = makeOid(ObjClass::S1, 2);
  auto c = makeOid(ObjClass::SX, 1);
  EXPECT_NE(a.hash(), b.hash());
  EXPECT_NE(a.hash(), c.hash());
  EXPECT_NE(a, b);
}

TEST(Layout, SxUsesEveryTarget) {
  const int targets = 256;
  auto layout = computeLayout(makeOid(ObjClass::SX, 42), targets);
  EXPECT_EQ(layout.groups, targets);
  EXPECT_EQ(layout.group_size, 1);
  std::set<int> used;
  for (std::size_t j = 0; j < layout.targets.size(); ++j) {
    used.insert(layout.targets[j]);
  }
  EXPECT_EQ(used.size(), static_cast<std::size_t>(targets));
}

TEST(Layout, S1UsesExactlyOneTarget) {
  auto layout = computeLayout(makeOid(ObjClass::S1, 7), 64);
  EXPECT_EQ(layout.groups, 1);
  EXPECT_EQ(layout.targets.size(), 1u);
  EXPECT_GE(layout.targets[0], 0);
  EXPECT_LT(layout.targets[0], 64);
}

TEST(Layout, GroupMembersAreDistinct) {
  for (std::uint64_t id = 0; id < 200; ++id) {
    auto layout = computeLayout(makeOid(ObjClass::EC_2P1GX, id), 48);
    for (int g = 0; g < layout.groups; ++g) {
      auto members = layout.groupTargets(g);
      std::set<int> s(members.begin(), members.end());
      EXPECT_EQ(s.size(), members.size()) << "oid " << id << " group " << g;
    }
  }
}

TEST(Layout, NoTargetRepeatsWithinLayout) {
  for (std::uint64_t id = 0; id < 200; ++id) {
    auto layout = computeLayout(makeOid(ObjClass::RP_2GX, id), 32);
    std::set<int> s;
    for (std::size_t j = 0; j < layout.targets.size(); ++j) {
      s.insert(layout.targets[j]);
    }
    EXPECT_EQ(s.size(), layout.targets.size()) << "oid " << id;
  }
}

TEST(Layout, DeterministicForSameOid) {
  auto a = computeLayout(makeOid(ObjClass::SX, 99), 128);
  auto b = computeLayout(makeOid(ObjClass::SX, 99), 128);
  ASSERT_EQ(a.targets.size(), b.targets.size());
  for (std::size_t j = 0; j < a.targets.size(); ++j) {
    EXPECT_EQ(a.targets[j], b.targets[j]) << "slot " << j;
  }
}

TEST(Layout, ThrowsWhenClassNeedsMoreTargetsThanPool) {
  EXPECT_THROW(computeLayout(makeOid(ObjClass::EC_2P1G1, 1), 2),
               std::invalid_argument);
  EXPECT_THROW(computeLayout(makeOid(ObjClass::S1, 1), 0),
               std::invalid_argument);
}

TEST(Layout, FixedGroupCountClampedToPool) {
  // S8 on a 4-target pool degrades to 4 groups instead of duplicating.
  auto layout = computeLayout(makeOid(ObjClass::S8, 5), 4);
  EXPECT_EQ(layout.groups, 4);
}

TEST(Layout, DkeyGroupStableAndInRange) {
  auto layout = computeLayout(makeOid(ObjClass::SX, 11), 96);
  for (int i = 0; i < 100; ++i) {
    std::string key = "chunk" + std::to_string(i);
    int g = dkeyGroup(layout, key);
    EXPECT_GE(g, 0);
    EXPECT_LT(g, layout.groups);
    EXPECT_EQ(g, dkeyGroup(layout, key));
  }
}

// Property: placement of many S1 objects is near-uniform over targets.
struct UniformityCase {
  ObjClass oclass;
  int targets;
};

class PlacementUniformity : public ::testing::TestWithParam<UniformityCase> {};

TEST_P(PlacementUniformity, S1StyleObjectsSpreadEvenly) {
  const auto [oclass, targets] = GetParam();
  std::vector<int> load(static_cast<std::size_t>(targets), 0);
  const int objects = 20000;
  for (int i = 0; i < objects; ++i) {
    auto layout =
        computeLayout(makeOid(oclass, static_cast<std::uint64_t>(i)), targets);
    for (std::size_t j = 0; j < layout.targets.size(); ++j) {
      load[static_cast<std::size_t>(layout.targets[j])]++;
    }
  }
  const double mean =
      static_cast<double>(objects) *
      static_cast<double>(computeLayout(makeOid(oclass, 0), targets)
                              .targets.size()) /
      targets;
  // Binomial-ish bins: allow 5 standard deviations (plus a floor for small
  // means) so the test is robust across many bins without masking skew.
  const double tolerance = std::max(0.3 * mean, 5.0 * std::sqrt(mean));
  for (int t = 0; t < targets; ++t) {
    EXPECT_NEAR(load[static_cast<std::size_t>(t)], mean, tolerance)
        << "target " << t;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Classes, PlacementUniformity,
    ::testing::Values(UniformityCase{ObjClass::S1, 64},
                      UniformityCase{ObjClass::S1, 256},
                      UniformityCase{ObjClass::S4, 64},
                      UniformityCase{ObjClass::RP_2G1, 32},
                      UniformityCase{ObjClass::EC_2P1G1, 48}));

// Property: dkeys of an SX object spread near-uniformly over groups.
TEST(Layout, DkeyDistributionUniform) {
  auto layout = computeLayout(makeOid(ObjClass::SX, 3), 256);
  std::vector<int> load(static_cast<std::size_t>(layout.groups), 0);
  const int keys = 100000;
  for (int i = 0; i < keys; ++i) {
    load[static_cast<std::size_t>(dkeyGroup(layout, "k" + std::to_string(i)))]++;
  }
  const double mean = static_cast<double>(keys) / layout.groups;
  for (int g = 0; g < layout.groups; ++g) {
    EXPECT_NEAR(load[static_cast<std::size_t>(g)], mean, 0.3 * mean);
  }
}

// --- the materializing walk, kept as the oracle ---------------------------

// A layout as placement stored it before targets were computed on demand:
// every slot's target in a vector.
struct RefLayout {
  ObjClass oclass{};
  ClassSpec spec;
  int total_targets = 0;
  int groups = 0;
  int group_size = 0;
  std::vector<int> targets;

  int target(int group, int index_in_group) const noexcept {
    return targets[static_cast<std::size_t>(group * group_size +
                                            index_in_group)];
  }
};

// The materializing computeLayout, body unchanged.
RefLayout referenceLayout(const ObjectId& oid, int total_targets,
                          const std::vector<std::uint8_t>* alive) {
  if (total_targets <= 0) {
    throw std::invalid_argument("computeLayout: pool has no targets");
  }

  RefLayout layout;
  layout.oclass = oidClass(oid);
  layout.spec = classSpec(layout.oclass);
  layout.total_targets = total_targets;
  layout.group_size = layout.spec.groupSize();
  if (layout.group_size > total_targets) {
    throw std::invalid_argument(
        "computeLayout: object class needs more targets than the pool has");
  }

  if (layout.spec.groups < 0) {
    layout.groups = std::max(1, total_targets / layout.group_size);
  } else {
    layout.groups = layout.spec.groups;
  }
  // A class with a fixed group count can still exceed the pool; clamp so one
  // target never appears twice in a (healthy) layout.
  layout.groups =
      std::min(layout.groups, total_targets / layout.group_size);
  layout.groups = std::max(layout.groups, 1);

  const int entries = layout.groups * layout.group_size;
  const std::uint64_t h = oid.hash();
  const int start = static_cast<int>(h % static_cast<std::uint64_t>(total_targets));
  // Stride coprime to T makes the walk a permutation: all entries distinct.
  int stride = 1;
  if (total_targets > 1) {
    stride = 1 + static_cast<int>(sim::mix64(h) %
                                  static_cast<std::uint64_t>(total_targets - 1));
    while (std::gcd(stride, total_targets) != 1) ++stride;
  }

  auto walk = [&](int j) {
    return static_cast<int>((start + static_cast<long long>(j) * stride) %
                            total_targets);
  };

  // Base layout: the first `entries` steps of the permutation. Group count
  // and surviving slot assignments are *stable* under exclusion — only dead
  // slots are re-pointed at spares (as DAOS pool-map rebuild does), so dkey
  // to group mappings never change and data movement is minimal.
  layout.targets.reserve(static_cast<std::size_t>(entries));
  for (int j = 0; j < entries; ++j) layout.targets.push_back(walk(j));
  if (alive == nullptr) return layout;

  int spare = entries;  // shared cursor into the permutation's remainder
  for (int j = 0; j < entries; ++j) {
    if ((*alive)[static_cast<std::size_t>(layout.targets[static_cast<std::size_t>(j)])] != 0) {
      continue;
    }
    const int group = j / layout.group_size;
    // Pick the next alive spare not already serving this group. Unprotected
    // (group-size 1) classes may reuse an alive target after a full cycle;
    // protected classes must keep group members distinct or fail.
    int chosen = -1;
    for (int probe = 0; probe < 2 * total_targets; ++probe) {
      const int t = walk(spare + probe);
      if ((*alive)[static_cast<std::size_t>(t)] == 0) continue;
      bool in_group = false;
      for (int m = 0; m < layout.group_size; ++m) {
        if (layout.target(group, m) == t) in_group = true;
      }
      if (in_group &&
          (layout.group_size > 1 || probe < total_targets)) {
        continue;
      }
      chosen = t;
      spare = spare + probe + 1;
      break;
    }
    if (chosen < 0) {
      throw std::invalid_argument(
          "computeLayout: not enough alive targets for the object class");
    }
    layout.targets[static_cast<std::size_t>(j)] = chosen;
  }
  return layout;
}

std::optional<RefLayout> referenceOrNothing(
    const ObjectId& oid, int total_targets,
    const std::vector<std::uint8_t>* alive) {
  try {
    return referenceLayout(oid, total_targets, alive);
  } catch (const std::invalid_argument&) {
    return std::nullopt;
  }
}

// Both algorithms on one input: the same layout slot for slot, or both
// throw.
::testing::AssertionResult matchesReference(
    const ObjectId& oid, int total_targets,
    const std::vector<std::uint8_t>* alive) {
  const std::optional<RefLayout> want =
      referenceOrNothing(oid, total_targets, alive);
  std::optional<Layout> got;
  try {
    got = computeLayout(oid, total_targets, alive);
  } catch (const std::invalid_argument&) {
  }
  if (!want || !got) {
    if (want.has_value() == got.has_value()) {
      return ::testing::AssertionSuccess();
    }
    return ::testing::AssertionFailure()
           << (want ? "only the computed layout threw"
                    : "only the reference threw");
  }
  if (got->groups != want->groups || got->group_size != want->group_size ||
      got->targets.size() != want->targets.size()) {
    return ::testing::AssertionFailure()
           << "shape " << got->groups << "x" << got->group_size << " ("
           << got->targets.size() << " slots), reference " << want->groups
           << "x" << want->group_size << " (" << want->targets.size()
           << " slots)";
  }
  for (std::size_t j = 0; j < want->targets.size(); ++j) {
    if (got->targets[j] != want->targets[j]) {
      return ::testing::AssertionFailure()
             << "slot " << j << ": " << got->targets[j] << ", reference "
             << want->targets[j];
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(LayoutOracle, MatchesMaterializedWalkSlotForSlot) {
  const ObjClass classes[] = {
      ObjClass::S1,       ObjClass::S2,       ObjClass::S4,
      ObjClass::S8,       ObjClass::SX,       ObjClass::RP_2G1,
      ObjClass::RP_2GX,   ObjClass::RP_3G1,   ObjClass::EC_2P1G1,
      ObjClass::EC_2P1GX, ObjClass::EC_4P2GX};
  for (int T : {1, 2, 3, 4, 12, 24, 48, 96, 256, 2048}) {
    const std::vector<std::uint8_t> all(static_cast<std::size_t>(T), 1);
    for (ObjClass oc : classes) {
      for (std::uint64_t id = 0; id < 200; ++id) {
        const ObjectId oid = makeOid(oc, id);
        std::vector<std::pair<std::string, std::vector<std::uint8_t>>> maps;
        maps.emplace_back("all alive", all);
        if (const auto healthy = referenceOrNothing(oid, T, nullptr)) {
          const std::vector<int>& slots = healthy->targets;
          auto one = all;
          one[static_cast<std::size_t>(slots[id % slots.size()])] = 0;
          maps.emplace_back("one member excluded", std::move(one));
          // Slots 0 and 1 share group 0 when groups have two or more
          // members, and the third dead target is then group 1's first
          // member; with one-member groups it is slot 2. A layout too short
          // for that loses a neighbour of slot 0's target instead.
          const std::size_t third =
              healthy->group_size == 1
                  ? 2
                  : static_cast<std::size_t>(healthy->group_size);
          const int dead[] = {
              slots[0], slots[std::min<std::size_t>(1, slots.size() - 1)],
              third < slots.size() ? slots[third] : (slots[0] + 1) % T};
          auto three = all;
          for (int t : dead) three[static_cast<std::size_t>(t)] = 0;
          maps.emplace_back("three excluded", std::move(three));
        }
        sim::Rng rng(oid.hash() ^ static_cast<std::uint64_t>(T));
        auto tenth = all;
        for (auto& a : tenth) a = rng.uniform(0, 9) == 0 ? 0 : 1;
        maps.emplace_back("10% dead", std::move(tenth));

        EXPECT_TRUE(matchesReference(oid, T, nullptr))
            << className(oc) << " T=" << T << " oid " << id << ", no map";
        for (const auto& [name, alive] : maps) {
          EXPECT_TRUE(matchesReference(oid, T, &alive))
              << className(oc) << " T=" << T << " oid " << id << ", "
              << name;
        }
      }
    }
  }
}

TEST(LayoutOracle, BothThrowOnTheSameInputs) {
  const std::vector<std::uint8_t> alive = {1, 0, 0, 0};
  const ObjectId rp = makeOid(ObjClass::RP_2G1, 1);
  EXPECT_THROW(referenceLayout(rp, 4, &alive), std::invalid_argument);
  EXPECT_THROW(computeLayout(rp, 4, &alive), std::invalid_argument);
  const ObjectId ec = makeOid(ObjClass::EC_2P1G1, 1);
  EXPECT_THROW(referenceLayout(ec, 2, nullptr), std::invalid_argument);
  EXPECT_THROW(computeLayout(ec, 2), std::invalid_argument);
}

// A held layout costs the same on any pool width: 512 SX layouts over 2,048
// targets allocate (almost) nothing beyond the reserved vector, where a
// stored target list would take 8 KiB each.
TEST(Layout, HeldLayoutsDoNotGrowWithPoolWidth) {
  constexpr std::size_t kHeld = 512;
  std::vector<Layout> held;
  held.reserve(kHeld);
  const long long heap0 = static_cast<long long>(mallinfo2().uordblks);
  for (std::size_t i = 0; i < kHeld; ++i) {
    held.push_back(computeLayout(makeOid(ObjClass::SX, i + 1), 2048));
  }
  const long long grown =
      static_cast<long long>(mallinfo2().uordblks) - heap0;
  EXPECT_LT(grown, static_cast<long long>(kHeld) * 128);
}

}  // namespace
}  // namespace daosim::placement
