// Pool service: the replicated (Raft) metadata service of a DAOS pool.
//
// It runs on the pool-service leader engine and serializes pool/container
// metadata operations: pool connect, container create/open/destroy, and
// container OID-range allocation. Container *data* I/O never touches it —
// which is exactly why well-behaved libdaos applications scale with server
// count while metadata-heavy patterns (container per process, server-side
// OID allocation per object) hit this single station.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>

#include "daos/config.h"
#include "hw/cluster.h"
#include "sim/queue_station.h"
#include "sim/task.h"
#include "vos/target_store.h"

namespace daosim::daos {

struct ContMeta {
  vos::ContId id = 0;
  std::string name;
  std::uint64_t next_oid_lo = 1;  // server-managed OID range allocator
  bool open = false;
};

class PoolService {
 public:
  PoolService(hw::Cluster& cluster, hw::NodeId leader_node, int replicas,
              const PoolServiceCost& cost)
      : cluster_(&cluster),
        leader_(leader_node),
        replicas_(replicas),
        cost_(cost),
        svc_(cluster.sim(), "poolsvc", 1) {
    svc_.setTracePid(leader_node);
  }

  hw::NodeId leaderNode() const noexcept { return leader_; }

  // Server-side handlers (run on the leader, inside an RPC).

  sim::Task<void> handleConnect();

  /// Container handle/epoch query (serialized read-side op on the leader).
  /// Used by middleware that verifies container state per operation — e.g.
  /// the HDF5 DAOS adaptor's per-open checks.
  sim::Task<void> handleContQuery();

  /// Creates a container; fails (returns 0) if the name exists.
  sim::Task<vos::ContId> handleContCreate(std::string name);

  /// Opens by name; returns 0 if missing.
  sim::Task<vos::ContId> handleContOpen(std::string name);

  /// Returns the destroyed container's id, or 0 if the name was unknown.
  sim::Task<vos::ContId> handleContDestroy(std::string name);

  /// Allocates `count` consecutive OID lows for the container; returns the
  /// first. Serialized commit on the leader.
  sim::Task<std::uint64_t> handleAllocOids(vos::ContId cont,
                                           std::uint64_t count);

  std::size_t containerCount() const noexcept { return by_name_.size(); }
  const sim::QueueStation& station() const noexcept { return svc_; }

 private:
  /// A committed mutation: serialized service CPU plus the replication
  /// round-trip to the Raft followers.
  sim::Task<void> commit();
  sim::Task<void> query();

  hw::Cluster* cluster_;
  hw::NodeId leader_;
  int replicas_;
  PoolServiceCost cost_;
  sim::QueueStation svc_;
  std::map<std::string, ContMeta> by_name_;
  std::map<vos::ContId, ContMeta*> by_id_;
  vos::ContId next_id_ = 1;
};

}  // namespace daosim::daos
