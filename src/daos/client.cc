#include "daos/client.h"

#include <stdexcept>

#include "sim/sync.h"

namespace daosim::daos {

namespace {

/// Punch one shard of an object (request -> engine -> response).
sim::Task<void> punchShardOp(Client* client, vos::ContId cont, ObjectId oid,
                             int target) {
  auto [engine, local] = client->system().locateTarget(target);
  co_await client->request(*engine, 0);
  co_await engine->punchObject(local, cont, oid);
  co_await client->respond(*engine, 0);
}

}  // namespace

sim::Task<void> Client::poolConnect() {
  PoolService& ps = system_->poolService();
  co_await requestPoolService(0);
  co_await ps.handleConnect();
  co_await respondPoolService(0);
}

sim::Task<Client::PoolInfo> Client::poolQuery() {
  PoolService& ps = system_->poolService();
  co_await requestPoolService(0);
  co_await ps.handleContQuery();  // same leader-side query cost
  co_await respondPoolService(256);
  PoolInfo info;
  info.engines = system_->engineCount();
  info.targets = system_->totalTargets();
  for (int e = 0; e < info.engines; ++e) {
    Engine& engine = system_->engine(e);
    for (int t = 0; t < engine.targetCount(); ++t) {
      info.total_bytes += engine.target(t).device().spec().capacity_bytes;
      info.used_bytes += engine.target(t).store().bytesStored();
    }
  }
  co_return info;
}

sim::Task<Container> Client::contCreate(std::string name) {
  PoolService& ps = system_->poolService();
  co_await requestPoolService(name.size());
  const vos::ContId id = co_await ps.handleContCreate(name);
  co_await respondPoolService(64);
  if (id == 0) {
    throw std::runtime_error("contCreate: container exists: " + name);
  }
  co_return Container{id, std::move(name)};
}

sim::Task<Container> Client::contOpen(std::string name) {
  PoolService& ps = system_->poolService();
  co_await requestPoolService(name.size());
  const vos::ContId id = co_await ps.handleContOpen(name);
  co_await respondPoolService(64);
  if (id == 0) {
    throw std::runtime_error("contOpen: no such container: " + name);
  }
  co_return Container{id, std::move(name)};
}

sim::Task<void> Client::contDestroy(std::string name) {
  PoolService& ps = system_->poolService();
  co_await requestPoolService(name.size());
  const vos::ContId id = co_await ps.handleContDestroy(name);
  co_await respondPoolService(16);
  if (id == 0) {
    throw std::runtime_error("contDestroy: no such container: " + name);
  }
  // Space reclamation on every target shard (aggregation runs in the
  // background in DAOS; the metadata commit above carries the cost).
  for (int e = 0; e < system_->engineCount(); ++e) {
    Engine& engine = system_->engine(e);
    for (int t = 0; t < engine.targetCount(); ++t) {
      engine.target(t).store().destroyContainer(id);
    }
  }
}

sim::Task<ObjectId> Client::allocOids(const Container& cont,
                                      std::uint64_t count, ObjClass oc) {
  PoolService& ps = system_->poolService();
  co_await requestPoolService(0);
  const std::uint64_t first = co_await ps.handleAllocOids(cont.id, count);
  co_await respondPoolService(32);
  if (first == 0) throw std::runtime_error("allocOids: bad container");
  // Server-allocated ranges live in a reserved user-hi namespace (so they
  // cannot collide with client-stamped OIDs) scoped by the container id:
  // per-container allocators all start at 1, and identical OIDs would get
  // identical placements — every container's object #k would land on the
  // same targets, a cross-container aliasing hotspot.
  co_return placement::makeOid(
      oc, first,
      0xff000000u | static_cast<std::uint32_t>(cont.id & 0xffffffu));
}

sim::Task<void> Client::objPunch(const Container& cont, const ObjectId& oid) {
  auto layout = system_->layout(oid);
  std::vector<sim::Task<void>> ops;
  ops.reserve(layout.targets.size());
  for (std::size_t j = 0; j < layout.targets.size(); ++j) {
    ops.push_back(punchShardOp(this, cont.id, oid, layout.targets[j]));
  }
  co_await sim::whenAll(sim(), std::move(ops));
}

}  // namespace daosim::daos
