#include "daos/system.h"

#include <algorithm>
#include <stdexcept>

namespace daosim::daos {

DaosSystem::DaosSystem(hw::Cluster& cluster,
                       std::vector<hw::NodeId> server_nodes, DaosConfig cfg)
    : cluster_(&cluster), cfg_(cfg) {
  if (server_nodes.empty()) {
    throw std::invalid_argument("DaosSystem: no server nodes");
  }
  engines_.reserve(server_nodes.size());
  for (hw::NodeId n : server_nodes) {
    engines_.push_back(std::make_unique<Engine>(cluster, n, cfg_));
  }
  const int replicas = std::min<int>(5, static_cast<int>(engines_.size()));
  pool_service_ = std::make_unique<PoolService>(
      cluster, engines_.front()->node(), replicas, cfg_.pool_service);
  alive_.assign(static_cast<std::size_t>(totalTargets()), 1);
}

void DaosSystem::excludeTarget(int global) {
  auto& slot = alive_[static_cast<std::size_t>(global)];
  if (slot != 0) {
    slot = 0;
    ++excluded_targets_;
  }
}

void DaosSystem::failTarget(int global) {
  auto [engine, local] = locateTarget(global);
  auto& device = engine->target(local).device();
  if (!device.failed()) {
    device.fail();
    ++failed_targets_;
  }
}

void DaosSystem::recoverTarget(int global) {
  auto [engine, local] = locateTarget(global);
  auto& device = engine->target(local).device();
  if (device.failed()) {
    device.recover();
    --failed_targets_;
  }
}

std::uint64_t DaosSystem::bytesStored() const {
  std::uint64_t total = 0;
  for (const auto& e : engines_) {
    for (int t = 0; t < e->targetCount(); ++t) {
      total += e->target(t).store().bytesStored();
    }
  }
  return total;
}

}  // namespace daosim::daos
