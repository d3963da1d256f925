#include "daos/pool_service.h"

namespace daosim::daos {

sim::Task<void> PoolService::commit() {
  co_await svc_.exec(cost_.raft_commit);
  if (replicas_ > 1) {
    // Followers ack in parallel; the commit waits one fabric round trip.
    co_await cluster_->sim().delay(2 * cluster_->fabric().latency);
  }
}

sim::Task<void> PoolService::query() { return svc_.exec(cost_.query_cpu); }

sim::Task<void> PoolService::handleConnect() { return query(); }

sim::Task<void> PoolService::handleContQuery() { return query(); }

sim::Task<vos::ContId> PoolService::handleContCreate(std::string name) {
  co_await commit();
  auto [it, inserted] = by_name_.try_emplace(name);
  if (!inserted) co_return 0;
  it->second.id = next_id_++;
  it->second.name = name;
  by_id_[it->second.id] = &it->second;
  co_return it->second.id;
}

sim::Task<vos::ContId> PoolService::handleContOpen(std::string name) {
  co_await query();
  auto it = by_name_.find(name);
  co_return it == by_name_.end() ? 0 : it->second.id;
}

sim::Task<vos::ContId> PoolService::handleContDestroy(std::string name) {
  co_await commit();
  auto it = by_name_.find(name);
  if (it == by_name_.end()) co_return 0;
  const vos::ContId id = it->second.id;
  by_id_.erase(id);
  by_name_.erase(it);
  co_return id;
}

sim::Task<std::uint64_t> PoolService::handleAllocOids(vos::ContId cont,
                                                      std::uint64_t count) {
  co_await commit();
  auto it = by_id_.find(cont);
  if (it == by_id_.end()) co_return 0;
  const std::uint64_t first = it->second->next_oid_lo;
  it->second->next_oid_lo += count;
  co_return first;
}

}  // namespace daosim::daos
