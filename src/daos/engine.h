// DAOS server engine: one per server node, owning `targets_per_engine`
// targets. Each target pairs a CPU xstream (FIFO queueing station) with one
// local NVMe device and a VOS store. All server-side work of an RPC runs
// here: xstream CPU, WAL/data device I/O, then the in-memory VOS update.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "daos/config.h"
#include "hw/cluster.h"
#include "sim/queue_station.h"
#include "sim/task.h"
#include "vos/target_store.h"

namespace daosim::daos {

using vos::ContId;
using vos::Payload;
using placement::ObjectId;

/// One DAOS target: xstream + NVMe + VOS shard.
class Target {
 public:
  Target(sim::Simulation& sim, std::string name, hw::NvmeDevice& dev,
         bool retain_data)
      : xstream_(sim, name + ".xs", 1), dev_(&dev), store_(retain_data) {}

  sim::QueueStation& xstream() noexcept { return xstream_; }
  hw::NvmeDevice& device() noexcept { return *dev_; }
  vos::TargetStore& store() noexcept { return store_; }
  const vos::TargetStore& store() const noexcept { return store_; }

 private:
  sim::QueueStation xstream_;
  hw::NvmeDevice* dev_;
  vos::TargetStore store_;
};

class Engine {
 public:
  Engine(hw::Cluster& cluster, hw::NodeId node, const DaosConfig& cfg);

  hw::NodeId node() const noexcept { return node_; }
  int targetCount() const noexcept { return static_cast<int>(targets_.size()); }
  Target& target(int local) noexcept { return *targets_[static_cast<std::size_t>(local)]; }
  const Target& target(int local) const noexcept {
    return *targets_[static_cast<std::size_t>(local)];
  }

  // ---- server-side operations (run inside an RPC, on this engine) ----

  /// Persists a single value (KV record / metadata akey).
  sim::Task<void> valuePut(int tgt, ContId c, const ObjectId& o,
                           std::string dkey, std::string akey, Payload value,
                           obs::OpId op = 0);

  /// Fetches a single value; found=false leaves `out` empty.
  struct GetResult {
    Payload value;
    bool found = false;
  };
  sim::Task<GetResult> valueGet(int tgt, ContId c, const ObjectId& o,
                                std::string dkey, std::string akey,
                                obs::OpId op = 0);

  sim::Task<void> valueRemove(int tgt, ContId c, const ObjectId& o,
                              std::string dkey, std::string akey,
                              obs::OpId op = 0);

  /// Writes an array extent (bulk data path).
  sim::Task<void> extentWrite(int tgt, ContId c, const ObjectId& o,
                              std::string dkey, std::string akey,
                              std::uint64_t offset, Payload data,
                              obs::OpId op = 0);

  /// Reads an array extent; reads only the bytes actually present from the
  /// device, returns a payload of the requested length (holes zeroed).
  sim::Task<Payload> extentRead(int tgt, ContId c, const ObjectId& o,
                                std::string dkey, std::string akey,
                                std::uint64_t offset, std::uint64_t length,
                                obs::OpId op = 0);

  /// Largest byte offset stored for this object on this target, given the
  /// array chunk size (dkeys encode chunk indices).
  sim::Task<std::uint64_t> arrayShardEnd(int tgt, ContId c, const ObjectId& o,
                                         std::uint64_t chunk_size,
                                         obs::OpId op = 0);

  /// Truncates this target's shard of an array to `new_size` total bytes:
  /// punches chunks entirely beyond and trims the straddling chunk.
  sim::Task<void> arrayShardTruncate(int tgt, ContId c, const ObjectId& o,
                                     std::uint64_t chunk_size,
                                     std::uint64_t new_size, obs::OpId op = 0);

  /// Enumerates dkeys (used by KV list and DFS readdir).
  sim::Task<std::vector<std::string>> listDkeys(int tgt, ContId c,
                                                const ObjectId& o,
                                                obs::OpId op = 0);

  sim::Task<void> punchObject(int tgt, ContId c, const ObjectId& o,
                              obs::OpId op = 0);

  const DaosConfig& config() const noexcept { return *cfg_; }

 private:
  hw::NodeId node_;
  const DaosConfig* cfg_;
  std::vector<std::unique_ptr<Target>> targets_;
};

}  // namespace daosim::daos
