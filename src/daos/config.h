// DAOS deployment configuration and server-side cost model.
//
// Matches the paper's deployment (§II-B): one engine per server VM, 16
// targets per engine (one per NVMe SSD), metadata held in DRAM with
// write-ahead logging to NVMe. CPU costs model the user-space, polling
// RPC stack (no kernel involvement), which is why they are in the
// single-digit microsecond range.
#pragma once

#include <cstdint>

#include "net/retry.h"
#include "sim/time.h"

namespace daosim::daos {

struct EngineCost {
  /// Per-RPC processing on the target xstream (request parse, VOS dispatch).
  sim::Time rpc_cpu = 3 * sim::kMicrosecond;
  /// Additional CPU for KV-tree operations (DRAM-resident metadata).
  sim::Time kv_cpu = 2 * sim::kMicrosecond;
  /// Size of the WAL record persisted to NVMe for each metadata update
  /// (KV put/remove, array metadata, punch). Reads do not touch the WAL.
  std::uint64_t wal_bytes = 4096;
  /// CPU to XOR-reconstruct one cell during degraded erasure-coded reads.
  sim::Time ec_reconstruct_cpu = 40 * sim::kMicrosecond;
};

struct PoolServiceCost {
  /// Serialized Raft commit on the pool-service leader (container create /
  /// destroy, OID-range allocation). This is deliberately a *single
  /// serialized station*: DAOS metadata that goes through the pool service
  /// does not scale with server count, which is the mechanism behind the
  /// HDF5-DAOS-adaptor scalability wall the paper discusses (§III-B/C).
  sim::Time raft_commit = 55 * sim::kMicrosecond;
  /// Serialized read-side query on the leader (pool connect, container
  /// open, handle/epoch queries).
  sim::Time query_cpu = 35 * sim::kMicrosecond;
};

struct DaosConfig {
  int targets_per_engine = 16;
  /// Keep real payload bytes (tests/examples) or only sizes (benchmarks).
  bool retain_data = true;
  EngineCost engine;
  PoolServiceCost pool_service;
  /// Client data-path RPC retry/timeout policy. Disabled by default
  /// (infinite patience, failures surface immediately), which keeps every
  /// RPC on the zero-retry fast path — bit-identical to the
  /// pre-fault-injection timing the conformance suite pins. daosim_run
  /// enables RetryPolicy::chaosDefault() when --faults is non-empty.
  net::RetryPolicy rpc_retry;
};

}  // namespace daosim::daos
