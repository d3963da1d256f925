// Byte-granular extent index for array values (the VOS "evtree" analogue).
//
// Stores non-overlapping extents keyed by start offset. Writes split and
// trim older extents they overlap (last-writer-wins, as in VOS where newer
// epochs shadow older ones). Reads assemble bytes across extents; gaps read
// as zeros, matching DAOS array hole semantics.
//
// TargetStore keeps a record's single size-only extent inline and builds a
// tree only for records with several extents, real bytes or an explicit
// size (truncate).
#pragma once

#include <cstdint>
#include <map>

#include "vos/payload.h"

namespace daosim::vos {

class ExtentTree {
 public:
  struct ReadResult {
    Payload data;                ///< assembled payload of the requested length
    std::uint64_t bytes_found = 0;  ///< bytes actually backed by extents
  };

  void write(std::uint64_t offset, Payload payload);

  /// Reads [offset, offset+length). If every byte in range is backed by
  /// real-bytes extents (or is a hole), `data` is a real payload with holes
  /// zero-filled; otherwise it is synthetic of the requested length.
  ReadResult read(std::uint64_t offset, std::uint64_t length) const;

  /// One past the last stored byte (the array "size" VOS reports).
  std::uint64_t end() const noexcept { return end_; }

  /// Sets the logical size to exactly `size` (ftruncate / set_size
  /// semantics): extents beyond are removed, shrinking or extending end().
  void truncate(std::uint64_t size);

  std::uint64_t extentCount() const noexcept { return extents_.size(); }
  /// Raw extent map (offset -> payload), for migration/rebuild.
  const std::map<std::uint64_t, Payload>& extents() const noexcept {
    return extents_;
  }
  std::uint64_t bytesStored() const noexcept { return stored_; }
  bool empty() const noexcept { return extents_.empty(); }

 private:
  // Removes/trims extents overlapping [off, off+len); keeps accounting.
  void carve(std::uint64_t off, std::uint64_t len);

  std::map<std::uint64_t, Payload> extents_;
  std::uint64_t end_ = 0;
  std::uint64_t stored_ = 0;
};

}  // namespace daosim::vos
