#include "daos/kv.h"

#include <algorithm>
#include <set>

#include "hw/device.h"
#include "sim/sync.h"

namespace daosim::daos {

namespace {

constexpr const char* kValueAkey = "v";

/// Store the value on one replica target.
sim::Task<void> putReplicaOp(Client* client, vos::ContId cont, ObjectId oid,
                             int target, std::string key, vos::Payload value,
                             obs::OpId op) {
  auto [engine, local] = client->system().locateTarget(target);
  co_await client->request(*engine, key.size() + value.size(), op);
  co_await engine->valuePut(local, cont, oid, std::move(key), kValueAkey,
                            std::move(value), op);
  co_await client->respond(*engine, 0, op);
}

/// Remove the key from one replica target.
sim::Task<void> removeReplicaOp(Client* client, vos::ContId cont,
                                ObjectId oid, int target, std::string key) {
  auto [engine, local] = client->system().locateTarget(target);
  co_await client->request(*engine, key.size());
  co_await engine->valueRemove(local, cont, oid, std::move(key), kValueAkey);
  co_await client->respond(*engine, 0);
}

/// Enumerate one group's keys.
sim::Task<std::vector<std::string>> listGroupOp(Client* client,
                                                vos::ContId cont,
                                                ObjectId oid, int target) {
  auto [engine, local] = client->system().locateTarget(target);
  co_await client->request(*engine, 0);
  std::vector<std::string> keys =
      co_await engine->listDkeys(local, cont, oid);
  std::uint64_t bytes = 0;
  for (const auto& k : keys) bytes += k.size() + 16;
  co_await client->respond(*engine, bytes);
  co_return keys;
}

}  // namespace

sim::Task<void> KeyValue::put(std::string key, vos::Payload value) {
  auto span = client_->beginOp("kv.put");
  const int group = placement::dkeyGroup(layout_, key);

  std::vector<sim::Task<void>> ops;
  for (int r = 0; r < layout_.group_size; ++r) {
    ops.push_back(putReplicaOp(client_, cont_.id, oid_,
                               layout_.target(group, r), key, value,
                               span.id()));
  }
  if (ops.size() == 1) {
    co_await std::move(ops.front());
  } else {
    co_await sim::whenAll(client_->sim(), std::move(ops));
  }
}

sim::Task<std::optional<vos::Payload>> KeyValue::get(std::string key) {
  auto span = client_->beginOp("kv.get");
  const int group = placement::dkeyGroup(layout_, key);

  // Replica walk: a failed device moves on to the next replica.
  for (int r = 0; r < layout_.group_size; ++r) {
    auto [engine, local] =
        client_->system().locateTarget(layout_.target(group, r));
    co_await client_->request(*engine, key.size(), span.id());
    Engine::GetResult g;
    try {
      g = co_await engine->valueGet(local, cont_.id, oid_, key, kValueAkey,
                                    span.id());
      co_await client_->respond(*engine, g.value.size(), span.id());
    } catch (const hw::DeviceFailed&) {
      if (r + 1 == layout_.group_size) throw;
      client_->system().noteDegradedRead();
      continue;
    }
    if (!g.found) co_return std::nullopt;
    co_return std::move(g.value);
  }
  co_return std::nullopt;
}

sim::Task<bool> KeyValue::remove(std::string key) {
  const int group = placement::dkeyGroup(layout_, key);

  // Existence check is local state; the RPCs carry the timing.
  bool existed = false;
  {
    auto [engine, local] =
        client_->system().locateTarget(layout_.target(group, 0));
    existed = engine->target(local).store().valueGet(cont_.id, oid_, key,
                                                     kValueAkey) != nullptr;
  }
  std::vector<sim::Task<void>> ops;
  for (int r = 0; r < layout_.group_size; ++r) {
    ops.push_back(removeReplicaOp(client_, cont_.id, oid_,
                                  layout_.target(group, r), key));
  }
  if (ops.size() == 1) {
    co_await std::move(ops.front());
  } else {
    co_await sim::whenAll(client_->sim(), std::move(ops));
  }
  co_return existed;
}

sim::Task<std::vector<std::string>> KeyValue::list() {
  std::vector<sim::Task<std::vector<std::string>>> ops;
  for (int g = 0; g < layout_.groups; ++g) {
    ops.push_back(listGroupOp(client_, cont_.id, oid_, layout_.target(g, 0)));
  }
  auto per_group = co_await sim::whenAll(client_->sim(), std::move(ops));

  std::set<std::string> merged;
  for (auto& keys : per_group) {
    for (auto& k : keys) merged.insert(std::move(k));
  }
  co_return std::vector<std::string>(merged.begin(), merged.end());
}

}  // namespace daosim::daos
