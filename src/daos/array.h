// DAOS Array object: a sparse 1-D byte array striped over targets.
//
// Data is split into fixed-size chunks; each chunk maps to one redundancy
// group of the object's layout via its dkey (the chunk index), exactly as
// libdaos arrays do. Within a group:
//   * plain classes store the chunk on the single group target;
//   * RP_k classes store full replicas on every group target;
//   * EC k+p classes split the chunk into k cells of chunk_size/k bytes,
//     one per data target, plus parity cells. The first parity cell is a
//     real XOR of the data cells (when payloads carry bytes), so degraded
//     reads after a single device failure return correct data.
#pragma once

#include <cstdint>

#include "daos/client.h"
#include "placement/layout.h"

namespace daosim::daos {

class Array {
 public:
  struct Attrs {
    std::uint64_t cell_size = 1;            // record size (bytes)
    std::uint64_t chunk_size = 1 << 20;     // dkey granularity
  };

  /// daos_array_create: registers attrs in object metadata (one KV put).
  static sim::Task<Array> create(Client& client, Container cont, ObjectId oid,
                                 Attrs attrs);

  /// daos_array_open: fetches attrs from object metadata (one RPC).
  static sim::Task<Array> open(Client& client, Container cont, ObjectId oid);

  /// daos_array_open_with_attr: no RPC — the optimization fdb-hammer uses.
  static Array openWithAttrs(Client& client, Container cont, ObjectId oid,
                             Attrs attrs);

  sim::Task<void> write(std::uint64_t offset, vos::Payload data);
  sim::Task<vos::Payload> read(std::uint64_t offset, std::uint64_t length);

  /// daos_array_get_size: fan-out probe over the object's groups.
  sim::Task<std::uint64_t> getSize();

  /// daos_array_set_size (truncate/extend).
  sim::Task<void> setSize(std::uint64_t size);

  sim::Task<void> punch() { return client_->objPunch(cont_, oid_); }

  const Attrs& attrs() const noexcept { return attrs_; }
  const ObjectId& oid() const noexcept { return oid_; }
  const placement::Layout& layout() const noexcept { return layout_; }

 private:
  Array(Client& client, Container cont, ObjectId oid, Attrs attrs,
        placement::Layout layout);

  // One chunk-local piece of a larger op.
  sim::Task<void> writePiece(std::uint64_t chunk, std::uint64_t in_chunk,
                             vos::Payload piece, obs::OpId op);
  sim::Task<vos::Payload> readPiece(std::uint64_t chunk,
                                    std::uint64_t in_chunk,
                                    std::uint64_t length, obs::OpId op);
  sim::Task<vos::Payload> readCellDegraded(std::uint64_t chunk, int group,
                                           int failed_cell, obs::OpId op);
  /// Bytes [lo, hi) of EC data cell `cell_idx` (in-chunk offsets),
  /// reconstructed from the survivors if its target's device failed.
  sim::Task<vos::Payload> readSeg(std::uint64_t chunk, int group,
                                  int cell_idx, std::uint64_t lo,
                                  std::uint64_t hi, obs::OpId op);
  sim::Task<std::uint64_t> probeShardEnd(int target, obs::OpId op);
  sim::Task<std::uint64_t> probeShardEndReplicated(std::vector<int> replicas,
                                                   obs::OpId op);

  std::uint64_t ecCellLen() const noexcept {
    return attrs_.chunk_size /
           static_cast<std::uint64_t>(layout_.spec.ec_data);
  }

  Client* client_;
  Container cont_;
  ObjectId oid_;
  Attrs attrs_;
  placement::Layout layout_;
};

}  // namespace daosim::daos
