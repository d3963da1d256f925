#include "placement/layout.h"

#include <numeric>
#include <stdexcept>

namespace daosim::placement {

std::vector<int> Layout::groupTargets(int group) const {
  std::vector<int> out;
  out.reserve(static_cast<std::size_t>(group_size));
  for (int i = 0; i < group_size; ++i) out.push_back(target(group, i));
  return out;
}

Layout computeLayout(const ObjectId& oid, int total_targets,
                     const std::vector<std::uint8_t>* alive) {
  if (total_targets <= 0) {
    throw std::invalid_argument("computeLayout: pool has no targets");
  }

  Layout layout;
  layout.oclass = oidClass(oid);
  layout.spec = classSpec(layout.oclass);
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

  // The walk's first `entries` steps are the layout. Group count and
  // surviving slot assignments are *stable* under exclusion — only dead
  // slots are re-pointed at spares (as DAOS pool-map rebuild does), so dkey
  // to group mappings never change and data movement is minimal.
  layout.targets = {start, stride, entries, total_targets, {}};
  if (alive == nullptr) return layout;

  const TargetWalk& walk = layout.targets;
  int spare = entries;  // shared cursor into the permutation's remainder
  for (int j = 0; j < entries; ++j) {
    if ((*alive)[static_cast<std::size_t>(walk.step(j))] != 0) continue;
    const int group = j / layout.group_size;
    // Pick the next alive spare not already serving this group. Unprotected
    // (group-size 1) classes may reuse an alive target after a full cycle;
    // protected classes must keep group members distinct or fail.
    int chosen = -1;
    for (int probe = 0; probe < 2 * total_targets; ++probe) {
      const int t = walk.step(spare + probe);
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
    layout.targets.spares.emplace_back(j, chosen);
  }
  return layout;
}

std::uint64_t dkeyHash(std::string_view dkey) noexcept {
  // FNV-1a, finished with a strong mixer.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : dkey) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return sim::mix64(h);
}

int dkeyGroup(const Layout& layout, std::string_view dkey) noexcept {
  return static_cast<int>(dkeyHash(dkey) %
                          static_cast<std::uint64_t>(layout.groups));
}

}  // namespace daosim::placement
