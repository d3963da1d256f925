#include "daos/array.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "hw/device.h"
#include "sim/sync.h"
#include "vos/target_store.h"

namespace daosim::daos {

namespace {

constexpr const char* kMetaDkey = "__array_meta__";

std::string encodeAttrs(const Array::Attrs& a) {
  std::string s(16, '\0');
  std::memcpy(s.data(), &a.cell_size, 8);
  std::memcpy(s.data() + 8, &a.chunk_size, 8);
  return s;
}

Array::Attrs decodeAttrs(const vos::Payload& p) {
  Array::Attrs a;
  if (p.hasBytes() && p.size() >= 16) {
    auto b = p.bytes();
    std::memcpy(&a.cell_size, b.data(), 8);
    std::memcpy(&a.chunk_size, b.data() + 8, 8);
  }
  return a;
}

using vos::xorPayloads;

// ---- per-shard RPC operations (inline request/work/response legs) --------

/// One extent-write RPC to a pool-global target.
sim::Task<void> extentWriteOp(Client* client, vos::ContId cont, ObjectId oid,
                              int target, std::string dkey, std::string akey,
                              std::uint64_t offset, vos::Payload data,
                              obs::OpId op) {
  auto [engine, local] = client->system().locateTarget(target);
  // Structural leg grouping this shard's request/work/response legs in the
  // op's causal tree.
  auto rpc = client->beginLeg(op, "rpc.extent_write");
  const obs::OpId rop = rpc.ctx();
  co_await client->request(*engine, data.size(), rop);
  co_await engine->extentWrite(local, cont, oid, dkey, akey, offset,
                               std::move(data), rop);
  co_await client->respond(*engine, 0, rop);
}

/// One extent-read RPC to a pool-global target.
sim::Task<vos::Payload> fetchOp(Client* client, vos::ContId cont,
                                ObjectId oid, int target, std::string dkey,
                                std::string akey, std::uint64_t offset,
                                std::uint64_t length, obs::OpId op) {
  auto [engine, local] = client->system().locateTarget(target);
  auto rpc = client->beginLeg(op, "rpc.fetch");
  const obs::OpId rop = rpc.ctx();
  co_await client->request(*engine, 0, rop);
  vos::Payload p = co_await engine->extentRead(local, cont, oid, dkey, akey,
                                               offset, length, rop);
  co_await client->respond(*engine, p.size(), rop);
  co_return p;
}

/// Trim one shard of the array (used by setSize).
sim::Task<void> truncateShardOp(Client* client, vos::ContId cont,
                                ObjectId oid, int target,
                                std::uint64_t chunk_size,
                                std::uint64_t new_size, obs::OpId op) {
  auto [engine, local] = client->system().locateTarget(target);
  auto rpc = client->beginLeg(op, "rpc.truncate");
  const obs::OpId rop = rpc.ctx();
  co_await client->request(*engine, 0, rop);
  co_await engine->arrayShardTruncate(local, cont, oid, chunk_size, new_size,
                                      rop);
  co_await client->respond(*engine, 0, rop);
}

}  // namespace

Array::Array(Client& client, Container cont, ObjectId oid, Attrs attrs,
             placement::Layout layout)
    : client_(&client),
      cont_(std::move(cont)),
      oid_(oid),
      attrs_(attrs),
      layout_(std::move(layout)) {
  if (attrs_.chunk_size == 0) {
    throw std::invalid_argument("Array: chunk_size must be positive");
  }
  if (layout_.spec.erasureCoded() &&
      attrs_.chunk_size % static_cast<std::uint64_t>(layout_.spec.ec_data) !=
          0) {
    throw std::invalid_argument(
        "Array: chunk_size must be divisible by the EC data-cell count");
  }
}

namespace {

/// Writes the array-attribute record to one group-0 member.
sim::Task<void> metaPutOp(Client* client, vos::ContId cont, ObjectId oid,
                          int target, vos::Payload meta) {
  auto [engine, local] = client->system().locateTarget(target);
  co_await client->request(*engine, meta.size());
  co_await engine->valuePut(local, cont, oid, kMetaDkey, "0", std::move(meta));
  co_await client->respond(*engine, 0);
}

}  // namespace

sim::Task<Array> Array::create(Client& client, Container cont, ObjectId oid,
                               Attrs attrs) {
  Array a(client, cont, oid, attrs, client.system().layout(oid));
  // Register attrs in object metadata. Single-value records of protected
  // objects are replicated across the whole redundancy group (as in DAOS,
  // where akey singles are never erasure-coded), so metadata survives any
  // failure the data survives.
  vos::Payload meta = vos::Payload::fromString(encodeAttrs(attrs));
  std::vector<sim::Task<void>> ops;
  for (int m = 0; m < a.layout_.group_size; ++m) {
    ops.push_back(metaPutOp(&client, cont.id, oid, a.layout_.target(0, m),
                            meta));
  }
  if (ops.size() == 1) {
    co_await std::move(ops.front());
  } else {
    co_await sim::whenAll(client.sim(), std::move(ops));
  }
  co_return a;
}

sim::Task<Array> Array::open(Client& client, Container cont, ObjectId oid) {
  placement::Layout layout = client.system().layout(oid);
  // Try the group-0 members in order (metadata is replicated across them).
  for (int m = 0; m < layout.group_size; ++m) {
    auto [engine, local] =
        client.system().locateTarget(layout.target(0, m));
    co_await client.request(*engine, 0);
    Engine::GetResult r;
    try {
      r = co_await engine->valueGet(local, cont.id, oid, kMetaDkey, "0");
      co_await client.respond(*engine, r.value.size());
    } catch (const hw::DeviceFailed&) {
      if (m + 1 == layout.group_size) throw;
      client.system().noteDegradedRead();
      continue;
    }
    if (r.found) {
      co_return Array(client, std::move(cont), oid, decodeAttrs(r.value),
                      std::move(layout));
    }
  }
  throw std::runtime_error("Array::open: no such array");
}

Array Array::openWithAttrs(Client& client, Container cont, ObjectId oid,
                           Attrs attrs) {
  return Array(client, std::move(cont), oid, attrs,
               client.system().layout(oid));
}

// --- write path -----------------------------------------------------------

sim::Task<void> Array::writePiece(std::uint64_t chunk, std::uint64_t in_chunk,
                                  vos::Payload piece, obs::OpId op) {
  const std::string dkey = vos::u64Dkey(chunk);
  const int group = placement::dkeyGroup(layout_, dkey);
  const auto& spec = layout_.spec;
  std::vector<sim::Task<void>> ops;

  if (spec.erasureCoded()) {
    const std::uint64_t cell = ecCellLen();
    const int k = spec.ec_data;
    const bool full_stripe =
        in_chunk == 0 && piece.size() == attrs_.chunk_size;
    std::vector<vos::Payload> stripe_cells;
    for (int j = 0; j < k; ++j) {
      const std::uint64_t cs = static_cast<std::uint64_t>(j) * cell;
      const std::uint64_t ce = cs + cell;
      const std::uint64_t lo = std::max(in_chunk, cs);
      const std::uint64_t hi = std::min(in_chunk + piece.size(), ce);
      if (lo >= hi) continue;
      vos::Payload sub = piece.slice(lo - in_chunk, hi - lo);
      if (full_stripe) stripe_cells.push_back(sub);
      ops.push_back(extentWriteOp(client_, cont_.id, oid_,
                                  layout_.target(group, j), dkey, "0", lo,
                                  std::move(sub), op));
    }
    for (int pj = 0; pj < spec.ec_parity; ++pj) {
      vos::Payload parity;
      if (full_stripe) {
        // First parity cell is a true XOR so single-failure degraded reads
        // reconstruct real data; further parity cells model the I/O volume.
        parity = pj == 0 ? xorPayloads(stripe_cells, cell)
                         : vos::Payload::synthetic(cell);
      } else {
        // Partial-stripe update: parity is read-modified server side; we
        // model the written volume and mark the parity non-reconstructible.
        parity = vos::Payload::synthetic(
            std::min<std::uint64_t>(piece.size(), cell));
      }
      ops.push_back(extentWriteOp(client_, cont_.id, oid_,
                                  layout_.target(group, k + pj), dkey, "p",
                                  0, std::move(parity), op));
    }
  } else {
    for (int r = 0; r < spec.replicas; ++r) {
      ops.push_back(extentWriteOp(client_, cont_.id, oid_,
                                  layout_.target(group, r), dkey, "0",
                                  in_chunk, piece, op));
    }
  }

  if (ops.size() == 1) {
    co_await std::move(ops.front());
  } else {
    co_await sim::whenAll(client_->sim(), std::move(ops));
  }
}

sim::Task<void> Array::write(std::uint64_t offset, vos::Payload data) {
  auto span = client_->beginOp("array.write");
  std::vector<sim::Task<void>> pieces;
  std::uint64_t pos = 0;
  while (pos < data.size()) {
    const std::uint64_t abs = offset + pos;
    const std::uint64_t chunk = abs / attrs_.chunk_size;
    const std::uint64_t in_chunk = abs % attrs_.chunk_size;
    const std::uint64_t len =
        std::min(data.size() - pos, attrs_.chunk_size - in_chunk);
    pieces.push_back(
        writePiece(chunk, in_chunk, data.slice(pos, len), span.id()));
    pos += len;
  }
  if (pieces.empty()) co_return;
  if (pieces.size() == 1) {
    co_await std::move(pieces.front());
  } else {
    co_await sim::whenAll(client_->sim(), std::move(pieces));
  }
}

// --- read path ------------------------------------------------------------

sim::Task<vos::Payload> Array::readCellDegraded(std::uint64_t chunk,
                                                int group, int failed_cell,
                                                obs::OpId op) {
  const auto& spec = layout_.spec;
  if (spec.ec_parity < 1) {
    throw hw::DeviceFailed("array shard lost and no parity available");
  }
  const std::uint64_t cell = ecCellLen();
  const int k = spec.ec_data;
  const std::string dkey = vos::u64Dkey(chunk);

  // Gather every surviving data cell plus the XOR parity, in parallel.
  std::vector<sim::Task<vos::Payload>> ops;
  for (int j = 0; j < k; ++j) {
    if (j == failed_cell) continue;
    ops.push_back(fetchOp(client_, cont_.id, oid_, layout_.target(group, j),
                          dkey, "0", static_cast<std::uint64_t>(j) * cell,
                          cell, op));
  }
  ops.push_back(fetchOp(client_, cont_.id, oid_, layout_.target(group, k),
                        dkey, "p", 0, cell, op));
  auto survivors = co_await sim::whenAll(client_->sim(), std::move(ops));

  // Client-side XOR reconstruction.
  co_await client_->sim().delay(
      client_->system().config().engine.ec_reconstruct_cpu);
  co_return xorPayloads(survivors, cell);
}

sim::Task<vos::Payload> Array::readSeg(std::uint64_t chunk, int group,
                                       int cell_idx, std::uint64_t lo,
                                       std::uint64_t hi, obs::OpId op) {
  try {
    co_return co_await fetchOp(client_, cont_.id, oid_,
                               layout_.target(group, cell_idx),
                               vos::u64Dkey(chunk), "0", lo, hi - lo, op);
  } catch (const hw::DeviceFailed&) {
    // co_await is not allowed inside a handler: reconstruct below.
  }
  client_->system().noteDegradedRead();
  vos::Payload full = co_await readCellDegraded(chunk, group, cell_idx, op);
  const std::uint64_t cell = ecCellLen();
  co_return full.slice(lo - static_cast<std::uint64_t>(cell_idx) * cell,
                       hi - lo);
}

sim::Task<vos::Payload> Array::readPiece(std::uint64_t chunk,
                                         std::uint64_t in_chunk,
                                         std::uint64_t length, obs::OpId op) {
  const std::string dkey = vos::u64Dkey(chunk);
  const int group = placement::dkeyGroup(layout_, dkey);
  const auto& spec = layout_.spec;

  if (!spec.erasureCoded()) {
    // Plain or replicated: read from the first healthy replica.
    for (int r = 0; r < spec.replicas; ++r) {
      try {
        co_return co_await fetchOp(client_, cont_.id, oid_,
                                   layout_.target(group, r), dkey, "0",
                                   in_chunk, length, op);
      } catch (const hw::DeviceFailed&) {
        if (r + 1 == spec.replicas) throw;
        client_->system().noteDegradedRead();
      }
    }
  }

  // Erasure coded: read the overlapped data cells in parallel; a failed
  // cell is reconstructed from the survivors + parity.
  const std::uint64_t cell = ecCellLen();
  std::vector<sim::Task<vos::Payload>> segs;
  for (int j = 0; j < spec.ec_data; ++j) {
    const std::uint64_t cs = static_cast<std::uint64_t>(j) * cell;
    const std::uint64_t lo = std::max(in_chunk, cs);
    const std::uint64_t hi = std::min(in_chunk + length, cs + cell);
    if (lo < hi) segs.push_back(readSeg(chunk, group, j, lo, hi, op));
  }
  auto pieces = co_await sim::whenAll(client_->sim(), std::move(segs));
  co_return vos::concat(std::move(pieces));
}

sim::Task<vos::Payload> Array::read(std::uint64_t offset,
                                    std::uint64_t length) {
  auto span = client_->beginOp("array.read");
  std::vector<sim::Task<vos::Payload>> pieces;
  std::uint64_t pos = 0;
  while (pos < length) {
    const std::uint64_t abs = offset + pos;
    const std::uint64_t chunk = abs / attrs_.chunk_size;
    const std::uint64_t in_chunk = abs % attrs_.chunk_size;
    const std::uint64_t len =
        std::min(length - pos, attrs_.chunk_size - in_chunk);
    pieces.push_back(readPiece(chunk, in_chunk, len, span.id()));
    pos += len;
  }
  if (pieces.empty()) co_return vos::Payload{};
  if (pieces.size() == 1) co_return co_await std::move(pieces.front());
  auto parts = co_await sim::whenAll(client_->sim(), std::move(pieces));
  co_return vos::concat(std::move(parts));
}

// --- size -------------------------------------------------------------

sim::Task<std::uint64_t> Array::probeShardEnd(int target, obs::OpId op) {
  auto [engine, local] = client_->system().locateTarget(target);
  auto rpc = client_->beginLeg(op, "rpc.probe");
  const obs::OpId rop = rpc.ctx();
  co_await client_->request(*engine, 0, rop);
  const std::uint64_t end = co_await engine->arrayShardEnd(
      local, cont_.id, oid_, attrs_.chunk_size, rop);
  co_await client_->respond(*engine, 16, rop);
  co_return end;
}

sim::Task<std::uint64_t> Array::probeShardEndReplicated(
    std::vector<int> replicas, obs::OpId op) {
  for (std::size_t r = 0; r < replicas.size(); ++r) {
    try {
      co_return co_await probeShardEnd(replicas[r], op);
    } catch (const hw::DeviceFailed&) {
      if (r + 1 == replicas.size()) throw;
      client_->system().noteDegradedRead();
    }
  }
  co_return 0;
}

sim::Task<std::uint64_t> Array::getSize() {
  auto span = client_->beginOp("array.get_size");
  const auto& spec = layout_.spec;
  std::vector<sim::Task<std::uint64_t>> ops;
  for (int g = 0; g < layout_.groups; ++g) {
    if (spec.replicated()) {
      ops.push_back(
          probeShardEndReplicated(layout_.groupTargets(g), span.id()));
    } else if (spec.erasureCoded()) {
      for (int j = 0; j < spec.ec_data; ++j) {
        ops.push_back(probeShardEnd(layout_.target(g, j), span.id()));
      }
    } else {
      ops.push_back(probeShardEnd(layout_.target(g, 0), span.id()));
    }
  }
  auto ends = co_await sim::whenAll(client_->sim(), std::move(ops));
  std::uint64_t size = 0;
  for (std::uint64_t e : ends) size = std::max(size, e);
  co_return size;
}

sim::Task<void> Array::setSize(std::uint64_t size) {
  auto span = client_->beginOp("array.set_size");
  const vos::ContId cont = cont_.id;
  const ObjectId oid = oid_;
  const std::uint64_t chunk_size = attrs_.chunk_size;

  // Trim every shard, in parallel.
  std::vector<sim::Task<void>> ops;
  for (std::size_t j = 0; j < layout_.targets.size(); ++j) {
    ops.push_back(truncateShardOp(client_, cont, oid, layout_.targets[j],
                                  chunk_size, size, span.id()));
  }
  co_await sim::whenAll(client_->sim(), std::move(ops));
  if (size == 0) co_return;

  // Record the explicit end on the final chunk's owning target so getSize
  // sees extensions past the last written extent.
  const std::uint64_t final_chunk = (size - 1) / chunk_size;
  const std::uint64_t in_chunk_end = size - final_chunk * chunk_size;
  const std::string dkey = vos::u64Dkey(final_chunk);
  const int group = placement::dkeyGroup(layout_, dkey);
  int member = 0;
  if (layout_.spec.erasureCoded()) {
    member = static_cast<int>((in_chunk_end - 1) / ecCellLen());
  }
  const int target = layout_.target(group, member);
  auto [engine, local] = client_->system().locateTarget(target);
  co_await client_->request(*engine, 0);
  Target& t = engine->target(local);
  co_await t.xstream().exec(engine->config().engine.rpc_cpu);
  co_await t.device().write(engine->config().engine.wal_bytes);
  t.store().extentTruncate(cont, oid, dkey, "0", in_chunk_end);
  co_await client_->respond(*engine, 0);
}

}  // namespace daosim::daos
