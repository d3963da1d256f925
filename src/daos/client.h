// libdaos-equivalent client library.
//
// One Client per application process. It talks to the pool service for
// pool/container metadata and directly to engines/targets for object I/O
// (placement is computed client-side from the OID, as in DAOS). OIDs carry
// 96 user-managed bits: clients stamp their client id into the user-hi bits
// so locally generated OIDs never collide across processes.
#pragma once

#include <cstdint>
#include <string>

#include "daos/system.h"
#include "net/rpc.h"
#include "obs/observer.h"
#include "placement/layout.h"
#include "placement/oid.h"
#include "sim/task.h"
#include "vos/payload.h"

namespace daosim::daos {

using placement::ObjClass;
using placement::ObjectId;

/// An open container handle.
struct Container {
  vos::ContId id = 0;
  std::string name;
  bool valid() const noexcept { return id != 0; }
};

class Client {
 public:
  Client(DaosSystem& system, hw::NodeId node, std::uint32_t client_id)
      : system_(&system), node_(node), client_id_(client_id) {}

  DaosSystem& system() noexcept { return *system_; }
  hw::NodeId node() const noexcept { return node_; }
  /// The simulation client-side delays (library CPU, reconstruction XOR)
  /// charge on.
  sim::Simulation& sim() noexcept { return system_->cluster().sim(); }

  /// daos_pool_connect.
  sim::Task<void> poolConnect();

  /// daos_pool_query: capacity and usage across all targets.
  struct PoolInfo {
    std::uint64_t total_bytes = 0;
    std::uint64_t used_bytes = 0;
    int targets = 0;
    int engines = 0;
  };
  sim::Task<PoolInfo> poolQuery();

  /// daos_cont_create + open; throws std::runtime_error if the name exists.
  sim::Task<Container> contCreate(std::string name);
  /// daos_cont_open; throws if missing.
  sim::Task<Container> contOpen(std::string name);
  sim::Task<void> contDestroy(std::string name);

  /// Client-managed OID generation (no RPC): the fast path libdaos
  /// applications use.
  ObjectId nextOid(ObjClass oc) noexcept {
    return placement::makeOid(oc, next_oid_lo_++, client_id_);
  }

  /// Server-managed OID allocation through the container/pool service
  /// (daos_cont_alloc_oids): one serialized leader commit per call. Returns
  /// the first OID of the range.
  sim::Task<ObjectId> allocOids(const Container& cont, std::uint64_t count,
                                ObjClass oc);

  /// daos_obj_punch across all layout targets.
  sim::Task<void> objPunch(const Container& cont, const ObjectId& oid);

  // ---- low-level building blocks shared by Array/KeyValue/dfs ----

  // COROUTINE DISCIPLINE: GCC 12 miscompiles closure types passed by value
  // as coroutine parameters (see net/rpc.h). RPCs are therefore written
  // inline as request leg -> engine work -> response leg; every coroutine
  // takes only plain data parameters.

  /// The two legs of an RPC to `engine`, under the pool's rpc_retry policy.
  /// Each returns net::request/respond's task, adding no coroutine frame.
  sim::Task<void> request(const Engine& engine, std::uint64_t bytes,
                          obs::OpId op = 0) {
    return net::request(system_->cluster(), node_, engine.node(), bytes, op,
                        system_->config().rpc_retry);
  }
  sim::Task<void> respond(const Engine& engine, std::uint64_t bytes,
                          obs::OpId op = 0) {
    return net::respond(system_->cluster(), engine.node(), node_, bytes, op,
                        system_->config().rpc_retry);
  }

  /// The two legs of an RPC to the pool service leader (connect, query,
  /// container ops, OID allocation), under the disabled retry policy.
  sim::Task<void> requestPoolService(std::uint64_t bytes) {
    return net::request(system_->cluster(), node_,
                        system_->poolService().leaderNode(), bytes);
  }
  sim::Task<void> respondPoolService(std::uint64_t bytes) {
    return net::respond(system_->cluster(),
                        system_->poolService().leaderNode(), node_, bytes);
  }

  /// Opens an observability span for a client-API op on this client's
  /// track; inert (id 0) when no observer is attached.
  obs::OpScope beginOp(const char* type) {
    obs::Observer* o = sim().observer();
    if (o == nullptr) return {};
    if (track_epoch_ != o->epoch()) {
      track_ = o->track(node_, "client" + std::to_string(client_id_));
      track_epoch_ = o->epoch();
    }
    return obs::OpScope(o, type, track_);
  }

  /// Opens a structural leg of `op` on this client's track — one node of
  /// the op's causal tree grouping the work launched with its ctx() (e.g.
  /// one per-shard RPC of a fan-out). Inert when no observer is attached.
  obs::LegScope beginLeg(obs::OpId op, const char* name) {
    obs::Observer* o = sim().observer();
    if (o == nullptr || obs::opSeq(op) == 0) return {};
    if (track_epoch_ != o->epoch()) {
      track_ = o->track(node_, "client" + std::to_string(client_id_));
      track_epoch_ = o->epoch();
    }
    return obs::LegScope(o, op, name, obs::Cat::kOther, track_);
  }

 private:
  DaosSystem* system_;
  hw::NodeId node_;
  std::uint32_t client_id_;
  std::uint64_t next_oid_lo_ = 1;
  obs::TrackId track_ = 0;
  std::uint64_t track_epoch_ = 0;
};

}  // namespace daosim::daos
