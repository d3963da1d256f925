// Testbeds: fully deployed storage systems plus client fleets, mirroring the
// paper's three deployments (§II-B, §III-E, §III-F). A testbed owns the
// simulation; benchmarks are run against it with apps::runSpmd. Each
// repetition of an experiment uses a fresh testbed with a different seed,
// which perturbs object placement the way re-running on a real system would.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "daos/client.h"
#include "daos/system.h"
#include "dfs/dfs.h"
#include "hw/cluster.h"
#include "io/backend.h"
#include "lustre/lustre.h"
#include "posix/dfuse.h"
#include "rados/rados.h"
#include "sim/simulation.h"

namespace daosim::apps {

/// A system config that keeps only sizes, not payload bytes: the default of
/// every testbed's options, since benchmarks run size-only.
template <typename Config>
Config sizeOnly() {
  Config c;
  c.retain_data = false;
  return c;
}

/// DAOS deployment: `server_count` engines (16 targets each) + client fleet.
class DaosTestbed {
 public:
  struct Options {
    int server_nodes = 16;
    int client_nodes = 16;
    std::uint64_t seed = 1;
    bool with_dfuse = true;  // start a DFUSE daemon on every client node
    /// Size-only by default: set daos.retain_data to keep real bytes.
    daos::DaosConfig daos = sizeOnly<daos::DaosConfig>();
    posix::DfuseConfig dfuse;
  };

  explicit DaosTestbed(Options opt);

  sim::Simulation& sim() noexcept { return sim_; }
  hw::Cluster& cluster() noexcept { return cluster_; }
  daos::DaosSystem& daos() noexcept { return *daos_; }
  const std::vector<hw::NodeId>& clients() const noexcept { return clients_; }
  const daos::Container& container() const noexcept { return cont_; }
  const dfs::FileSystem& dfsMount() const noexcept { return *dfs_; }
  posix::DfuseDaemon& daemon(hw::NodeId node) { return *daemons_.at(node); }
  /// All running DFUSE daemons (empty when with_dfuse = false).
  const std::map<hw::NodeId, std::unique_ptr<posix::DfuseDaemon>>& daemons()
      const noexcept {
    return daemons_;
  }
  std::uint64_t seed() const noexcept { return seed_; }

  /// Env for io::makeBackend, pointing into this testbed (which must
  /// outlive any backend made from it).
  io::Env ioEnv() noexcept {
    io::Env env;
    env.sim = &sim_;
    env.seed = seed_;
    env.daos = daos_.get();
    env.dfs_mount = dfs_ ? &*dfs_ : nullptr;
    env.dfuse_daemons = &daemons_;
    return env;
  }

  /// First `n` client nodes.
  std::vector<hw::NodeId> clientSubset(int n) const {
    return {clients_.begin(), clients_.begin() + n};
  }

 private:
  sim::Simulation sim_;
  hw::Cluster cluster_;
  std::uint64_t seed_;
  std::vector<hw::NodeId> servers_;
  std::vector<hw::NodeId> clients_;
  std::unique_ptr<daos::DaosSystem> daos_;
  std::unique_ptr<daos::Client> admin_;
  std::vector<std::unique_ptr<daos::Client>> daemon_clients_;
  daos::Container cont_;
  std::optional<dfs::FileSystem> dfs_;
  std::map<hw::NodeId, std::unique_ptr<posix::DfuseDaemon>> daemons_;
};

/// Lustre deployment: OSS nodes (16 OSTs each) + one MDS node + clients.
class LustreTestbed {
 public:
  struct Options {
    int oss_nodes = 16;
    int client_nodes = 32;
    std::uint64_t seed = 1;
    lustre::LustreConfig lustre = sizeOnly<lustre::LustreConfig>();
  };

  explicit LustreTestbed(Options opt);

  sim::Simulation& sim() noexcept { return sim_; }
  hw::Cluster& cluster() noexcept { return cluster_; }
  lustre::LustreSystem& lustre() noexcept { return *lustre_; }
  const std::vector<hw::NodeId>& clients() const noexcept { return clients_; }
  std::uint64_t seed() const noexcept { return seed_; }

  /// Env for io::makeBackend.
  io::Env ioEnv() noexcept {
    io::Env env;
    env.sim = &sim_;
    env.seed = seed_;
    env.lustre = lustre_.get();
    return env;
  }
  std::vector<hw::NodeId> clientSubset(int n) const {
    return {clients_.begin(), clients_.begin() + n};
  }

 private:
  sim::Simulation sim_;
  hw::Cluster cluster_;
  std::uint64_t seed_;
  std::vector<hw::NodeId> clients_;
  std::unique_ptr<lustre::LustreSystem> lustre_;
};

/// Ceph deployment: OSD nodes (16 OSDs each) + one monitor node + clients.
class CephTestbed {
 public:
  struct Options {
    int osd_nodes = 16;
    int client_nodes = 32;
    std::uint64_t seed = 1;
    rados::CephConfig ceph = sizeOnly<rados::CephConfig>();
  };

  explicit CephTestbed(Options opt);

  sim::Simulation& sim() noexcept { return sim_; }
  hw::Cluster& cluster() noexcept { return cluster_; }
  rados::CephCluster& ceph() noexcept { return *ceph_; }
  const std::vector<hw::NodeId>& clients() const noexcept { return clients_; }
  std::uint64_t seed() const noexcept { return seed_; }

  /// Env for io::makeBackend.
  io::Env ioEnv() noexcept {
    io::Env env;
    env.sim = &sim_;
    env.seed = seed_;
    env.ceph = ceph_.get();
    return env;
  }
  std::vector<hw::NodeId> clientSubset(int n) const {
    return {clients_.begin(), clients_.begin() + n};
  }

 private:
  sim::Simulation sim_;
  hw::Cluster cluster_;
  std::uint64_t seed_;
  std::vector<hw::NodeId> clients_;
  std::unique_ptr<rados::CephCluster> ceph_;
};

}  // namespace daosim::apps
