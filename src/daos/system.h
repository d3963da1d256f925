// DaosSystem: a deployed DAOS pool — one engine per server node, a pool
// service on the first engine, and target addressing shared by all clients.
#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "daos/config.h"
#include "daos/engine.h"
#include "daos/pool_service.h"
#include "hw/cluster.h"
#include "placement/layout.h"

namespace daosim::daos {

class DaosSystem {
 public:
  DaosSystem(hw::Cluster& cluster, std::vector<hw::NodeId> server_nodes,
             DaosConfig cfg = {});

  hw::Cluster& cluster() noexcept { return *cluster_; }
  const DaosConfig& config() const noexcept { return cfg_; }
  PoolService& poolService() noexcept { return *pool_service_; }

  int engineCount() const noexcept { return static_cast<int>(engines_.size()); }
  Engine& engine(int i) noexcept { return *engines_[static_cast<std::size_t>(i)]; }

  /// Pool-wide target count (engines * targets_per_engine).
  int totalTargets() const noexcept {
    return engineCount() * cfg_.targets_per_engine;
  }

  /// Maps a pool-global target index to (engine, local target index).
  std::pair<Engine*, int> locateTarget(int global) noexcept {
    const int e = global / cfg_.targets_per_engine;
    return {engines_[static_cast<std::size_t>(e)].get(),
            global % cfg_.targets_per_engine};
  }

  /// The object's layout under the current pool map. A map with nothing
  /// excluded re-points no slot, so it is not scanned.
  placement::Layout layout(const placement::ObjectId& oid) const {
    return placement::computeLayout(
        oid, totalTargets(), excluded_targets_ > 0 ? &alive_ : nullptr);
  }
  /// The layout the object had under a previous pool map (all targets in
  /// `was_alive` considered alive) — used by rebuild to locate old shards.
  placement::Layout layoutUnder(const placement::ObjectId& oid,
                                const std::vector<std::uint8_t>& was_alive)
      const {
    return placement::computeLayout(oid, totalTargets(), &was_alive);
  }

  /// Fails/recovers the device behind a pool-global target (redundancy
  /// experiments).
  void failTarget(int global);
  void recoverTarget(int global);

  /// Administrative exclusion: removes the target from the pool map, so
  /// *new* layouts avoid it. Existing data is restored by daos::rebuild().
  void excludeTarget(int global);
  const std::vector<std::uint8_t>& aliveMap() const noexcept { return alive_; }

  /// Total user bytes held across all targets (space accounting tests).
  std::uint64_t bytesStored() const;

  // --- health accounting (fault injection / telemetry) ------------------
  /// Called by Array/KeyValue when a read falls back to a surviving
  /// replica or an EC reconstruction because the primary's device failed.
  void noteDegradedRead() noexcept { ++degraded_reads_; }
  std::uint64_t degradedReads() const noexcept { return degraded_reads_; }
  /// Targets whose device is currently failed / currently excluded from
  /// the pool map (gauges daos/targets_failed, daos/targets_excluded).
  int failedTargets() const noexcept { return failed_targets_; }
  int excludedTargets() const noexcept { return excluded_targets_; }

 private:
  hw::Cluster* cluster_;
  DaosConfig cfg_;
  std::vector<std::unique_ptr<Engine>> engines_;
  std::unique_ptr<PoolService> pool_service_;
  std::vector<std::uint8_t> alive_;
  std::uint64_t degraded_reads_ = 0;
  int failed_targets_ = 0;
  int excluded_targets_ = 0;
};

}  // namespace daosim::daos
