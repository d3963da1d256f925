#include "daos/engine.h"

#include <algorithm>
#include <stdexcept>

#include "vos/extent_tree.h"

namespace daosim::daos {

Engine::Engine(hw::Cluster& cluster, hw::NodeId node, const DaosConfig& cfg)
    : node_(node), cfg_(&cfg) {
  hw::Node& n = cluster.node(node);
  if (static_cast<int>(n.driveCount()) < cfg.targets_per_engine) {
    throw std::invalid_argument(
        "Engine: node has fewer NVMe devices than targets_per_engine");
  }
  targets_.reserve(static_cast<std::size_t>(cfg.targets_per_engine));
  for (int i = 0; i < cfg.targets_per_engine; ++i) {
    targets_.push_back(std::make_unique<Target>(
        cluster.sim(),
        "engine" + std::to_string(node) + ".tgt" + std::to_string(i),
        n.drive(static_cast<std::size_t>(i)), cfg.retain_data));
    targets_.back()->xstream().setTracePid(node);
  }
}

sim::Task<void> Engine::valuePut(int tgt, ContId c, const ObjectId& o,
                                 std::string dkey, std::string akey,
                                 Payload value, obs::OpId op) {
  Target& t = target(tgt);
  co_await t.xstream().exec(cfg_->engine.rpc_cpu + cfg_->engine.kv_cpu, op);
  // Metadata lands in DRAM (VOS tree) but is made durable via a WAL record
  // on the target's NVMe (md-on-ssd mode, as deployed in the paper).
  co_await t.device().write(std::max<std::uint64_t>(
      cfg_->engine.wal_bytes, value.size()), op);
  t.store().valuePut(c, o, dkey, akey, std::move(value));
}

sim::Task<Engine::GetResult> Engine::valueGet(int tgt, ContId c,
                                              const ObjectId& o,
                                              std::string dkey,
                                              std::string akey, obs::OpId op) {
  Target& t = target(tgt);
  co_await t.xstream().exec(cfg_->engine.rpc_cpu + cfg_->engine.kv_cpu, op);
  GetResult r;
  // VOS metadata is DRAM-resident: no device I/O on the get path.
  if (const Payload* p = t.store().valueGet(c, o, dkey, akey)) {
    r.value = *p;
    r.found = true;
  }
  co_return r;
}

sim::Task<void> Engine::valueRemove(int tgt, ContId c, const ObjectId& o,
                                    std::string dkey, std::string akey,
                                    obs::OpId op) {
  Target& t = target(tgt);
  co_await t.xstream().exec(cfg_->engine.rpc_cpu + cfg_->engine.kv_cpu, op);
  co_await t.device().write(cfg_->engine.wal_bytes, op);
  t.store().valueRemove(c, o, dkey, akey);
}

sim::Task<void> Engine::extentWrite(int tgt, ContId c, const ObjectId& o,
                                    std::string dkey, std::string akey,
                                    std::uint64_t offset, Payload data,
                                    obs::OpId op) {
  Target& t = target(tgt);
  co_await t.xstream().exec(cfg_->engine.rpc_cpu, op);
  co_await t.device().write(data.size(), op);
  t.store().extentWrite(c, o, dkey, akey, offset, std::move(data));
}

sim::Task<Payload> Engine::extentRead(int tgt, ContId c, const ObjectId& o,
                                      std::string dkey, std::string akey,
                                      std::uint64_t offset,
                                      std::uint64_t length, obs::OpId op) {
  Target& t = target(tgt);
  co_await t.xstream().exec(cfg_->engine.rpc_cpu, op);
  auto r = t.store().extentRead(c, o, dkey, akey, offset, length);
  // Only bytes that exist are read from flash; holes cost nothing.
  if (r.bytes_found > 0) co_await t.device().read(r.bytes_found, op);
  co_return std::move(r.data);
}

sim::Task<std::uint64_t> Engine::arrayShardEnd(int tgt, ContId c,
                                               const ObjectId& o,
                                               std::uint64_t chunk_size,
                                               obs::OpId op) {
  Target& t = target(tgt);
  // A size probe walks the object's dkey tree in DRAM; slightly costlier
  // than a point lookup.
  co_await t.xstream().exec(cfg_->engine.rpc_cpu + 2 * cfg_->engine.kv_cpu,
                            op);
  std::uint64_t end = 0;
  for (const auto& dkey : t.store().listDkeys(c, o)) {
    if (dkey.size() != 8) continue;  // not an array chunk dkey
    const std::uint64_t chunk = vos::dkeyU64(dkey);
    const std::uint64_t in_chunk = t.store().extentEnd(c, o, dkey, "0");
    if (in_chunk > 0) end = std::max(end, chunk * chunk_size + in_chunk);
  }
  co_return end;
}

sim::Task<void> Engine::arrayShardTruncate(int tgt, ContId c,
                                           const ObjectId& o,
                                           std::uint64_t chunk_size,
                                           std::uint64_t new_size,
                                           obs::OpId op) {
  Target& t = target(tgt);
  co_await t.xstream().exec(cfg_->engine.rpc_cpu + 2 * cfg_->engine.kv_cpu,
                            op);
  co_await t.device().write(cfg_->engine.wal_bytes, op);
  // One walk punches every chunk past the new size and finds the chunk it
  // cuts, if that chunk holds a record.
  std::string cut;
  t.store().punchDkeys(c, o, [&](std::string_view dkey) {
    if (dkey.size() != 8) return false;  // not an array chunk dkey
    const std::uint64_t base = vos::dkeyU64(dkey) * chunk_size;
    if (base < new_size && base + chunk_size > new_size) cut = dkey;
    return base >= new_size;
  });
  if (!cut.empty()) {
    t.store().extentTruncate(c, o, cut, "0",
                             new_size - vos::dkeyU64(cut) * chunk_size);
  }
}

sim::Task<std::vector<std::string>> Engine::listDkeys(int tgt, ContId c,
                                                      const ObjectId& o,
                                                      obs::OpId op) {
  Target& t = target(tgt);
  co_await t.xstream().exec(cfg_->engine.rpc_cpu + 2 * cfg_->engine.kv_cpu,
                            op);
  co_return t.store().listDkeys(c, o);
}

sim::Task<void> Engine::punchObject(int tgt, ContId c, const ObjectId& o,
                                    obs::OpId op) {
  Target& t = target(tgt);
  co_await t.xstream().exec(cfg_->engine.rpc_cpu + cfg_->engine.kv_cpu, op);
  co_await t.device().write(cfg_->engine.wal_bytes, op);
  t.store().punchObject(c, o);
}

}  // namespace daosim::daos
