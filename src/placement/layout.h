// Object placement: maps (oid, object class, pool width) to concrete target
// lists, and dkeys to redundancy groups.
//
// Placement is a deterministic pseudo-random ring walk seeded by the OID
// hash: slot j of a layout (group j / group_size, member j % group_size)
// maps to target (start + j*stride) mod T, with a per-object start and a
// stride coprime to T. This is uniform across objects, keeps
// redundancy-group members distinct, and is stable for the lifetime of the
// pool — the properties the algorithmic placement in DAOS provides that
// matter for performance experiments. As DAOS clients do from the OID and
// the pool map, a layout computes its targets on demand: a handle stores
// the walk, not a list of every target, so it costs the same on any pool
// width, plus one (slot, spare) pair per slot an excluded target re-points.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <utility>
#include <vector>

#include "placement/objclass.h"
#include "placement/oid.h"

namespace daosim::placement {

/// The target list of a layout, computed slot by slot from its ring walk:
/// slot j is step(j) unless `spares` re-points it.
struct TargetWalk {
  int start = 0;
  int stride = 1;
  int entries = 0;
  int total_targets = 1;
  /// (slot, spare) for each slot an excluded target re-points, ascending.
  std::vector<std::pair<int, int>> spares;

  std::size_t size() const noexcept {
    return static_cast<std::size_t>(entries);
  }
  /// Step `j` of the walk; steps past size() are the spare candidates.
  int step(int j) const noexcept {
    return static_cast<int>((start + static_cast<long long>(j) * stride) %
                            total_targets);
  }
  int operator[](std::size_t slot) const noexcept {
    const int j = static_cast<int>(slot);
    const auto it = std::lower_bound(
        spares.begin(), spares.end(), j,
        [](const std::pair<int, int>& p, int s) { return p.first < s; });
    return it != spares.end() && it->first == j ? it->second : step(j);
  }
};

struct Layout {
  ObjClass oclass{};
  ClassSpec spec;
  int groups = 0;       // resolved redundancy-group count
  int group_size = 0;   // targets per group
  /// groups * group_size target slots; group g occupies
  /// [g*group_size, (g+1)*group_size).
  TargetWalk targets;

  int target(int group, int index_in_group) const noexcept {
    return targets[static_cast<std::size_t>(group * group_size +
                                            index_in_group)];
  }
  /// All targets of one redundancy group.
  std::vector<int> groupTargets(int group) const;
};

/// Resolves the layout of `oid` on a pool with `total_targets` targets.
/// `alive` (optional, size total_targets) marks excluded targets with 0:
/// each slot whose target is excluded is re-pointed at the next alive
/// spare further along the object's walk, and every surviving slot keeps
/// its target — the property pool-map-driven rebuild relies on. With all
/// targets alive the result is identical to the two-argument form.
Layout computeLayout(const ObjectId& oid, int total_targets,
                     const std::vector<std::uint8_t>* alive = nullptr);

/// Stable hash of a distribution key.
std::uint64_t dkeyHash(std::string_view dkey) noexcept;

/// Which redundancy group a dkey belongs to.
int dkeyGroup(const Layout& layout, std::string_view dkey) noexcept;

}  // namespace daosim::placement
