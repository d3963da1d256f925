// Per-target versioned object store (the VOS analogue).
//
// One TargetStore exists per DAOS target (and is reused for Lustre OSTs and
// Ceph OSDs, which store their objects through the same structures). The
// data model mirrors VOS: container -> object -> dkey -> akey -> value,
// where a value is either a single atomic payload (KV records) or an extent
// tree (array records).
//
// The store holds one ordered index per target with one node per record,
// keyed by (container, object, dkey, akey). Keys of up to 15 bytes sit in
// the node (see Key), and an extent record whose only extent is size-only
// keeps (offset, size, tag) there too; it spills to an ExtentTree once it
// holds several extents, real bytes or an explicit size. Keys order as
// std::string, so dkey and akey listings and record enumeration come out
// in the same order as a map of maps would give.
#pragma once

#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "placement/oid.h"
#include "vos/extent_tree.h"
#include "vos/payload.h"

namespace daosim::vos {

using ContId = std::uint64_t;
using placement::ObjectId;

/// Serializes a 64-bit chunk/record index as a dkey (fixed 8-byte key).
std::string u64Dkey(std::uint64_t v);
std::uint64_t dkeyU64(std::string_view dkey);

class TargetStore {
 public:
  /// `retain_data=false` strips real bytes from *extent* (bulk data)
  /// payloads on ingest — benchmark mode: paper-scale runs would otherwise
  /// materialize terabytes. Single-value (KV) records always keep their
  /// bytes: they are metadata (directory entries, array attributes, dataset
  /// catalogs) that the layers above must be able to read back.
  explicit TargetStore(bool retain_data = true)
      : retain_data_(retain_data) {}

  // --- single-value (KV) records -------------------------------------
  void valuePut(ContId c, const ObjectId& o, std::string_view dkey,
                std::string_view akey, Payload value);
  /// Null if absent.
  const Payload* valueGet(ContId c, const ObjectId& o, std::string_view dkey,
                          std::string_view akey) const;
  bool valueRemove(ContId c, const ObjectId& o, std::string_view dkey,
                   std::string_view akey);

  // --- extent (array) records -----------------------------------------
  void extentWrite(ContId c, const ObjectId& o, std::string_view dkey,
                   std::string_view akey, std::uint64_t offset,
                   Payload payload);
  ExtentTree::ReadResult extentRead(ContId c, const ObjectId& o,
                                    std::string_view dkey,
                                    std::string_view akey,
                                    std::uint64_t offset,
                                    std::uint64_t length) const;
  /// End offset of the extent tree (0 if absent).
  std::uint64_t extentEnd(ContId c, const ObjectId& o, std::string_view dkey,
                          std::string_view akey) const;
  void extentTruncate(ContId c, const ObjectId& o, std::string_view dkey,
                      std::string_view akey, std::uint64_t size);
  /// An extent record's extents in offset order, as (offset, payload);
  /// empty if the record is absent or holds a single value. Counts no read.
  std::vector<std::pair<std::uint64_t, Payload>> extents(
      ContId c, const ObjectId& o, std::string_view dkey,
      std::string_view akey) const;

  // --- enumeration and life-cycle --------------------------------------
  std::vector<std::string> listDkeys(ContId c, const ObjectId& o) const;
  std::vector<std::string> listAkeys(ContId c, const ObjectId& o,
                                     std::string_view dkey) const;
  /// An object exists from its first record until it is punched or its
  /// container destroyed, even once its last dkey is removed.
  bool objectExists(ContId c, const ObjectId& o) const;
  /// Removes the object and all records beneath it (DAOS punch).
  bool punchObject(ContId c, const ObjectId& o);
  bool punchDkey(ContId c, const ObjectId& o, std::string_view dkey);
  void destroyContainer(ContId c);

  // --- enumeration for migration/rebuild --------------------------------
  /// Every (container, object) pair held by this target.
  std::vector<std::pair<ContId, ObjectId>> listObjects() const;

  /// One record, as forEachRecord presents it for copy-out.
  struct RecordView {
    std::string_view dkey;
    std::string_view akey;
    const Payload* value;  ///< non-null for single-value records
    /// An extent record's extents (see extents()); empty for a value.
    std::vector<std::pair<std::uint64_t, Payload>> extents;
  };
  /// Invokes `fn(RecordView)` for every record of the object, in (dkey,
  /// akey) order.
  template <typename Fn>
  void forEachRecord(ContId c, const ObjectId& o, Fn&& fn) const {
    for (auto it = first(c, o); it != records_.end() && in(it, c, o); ++it) {
      fn(RecordView{it->first.dkey.view(), it->first.akey.view(),
                    std::get_if<Payload>(&it->second),
                    extentsOf(it->second)});
    }
  }

  // --- accounting -------------------------------------------------------
  std::uint64_t bytesStored() const noexcept { return bytes_stored_; }
  std::uint64_t objectCount() const noexcept { return objects_; }

  // Cumulative record-op counts (telemetry rate probes: per-target VOS
  // op/s). Reads count even when they miss — the lookup work happens either
  // way.
  std::uint64_t valuePuts() const noexcept { return value_puts_; }
  std::uint64_t valueGets() const noexcept { return value_gets_; }
  std::uint64_t extentWrites() const noexcept { return extent_writes_; }
  std::uint64_t extentReads() const noexcept { return extent_reads_; }
  std::uint64_t recordOps() const noexcept {
    return value_puts_ + value_gets_ + extent_writes_ + extent_reads_;
  }

 private:
  /// A dkey or akey as the store keeps it, in 16 bytes: keys of up to 15
  /// bytes (chunk dkeys, "0", "p", "v", "__array_meta__") are held inline,
  /// longer ones in one heap block.
  class Key {
   public:
    explicit Key(std::string_view s);
    ~Key();
    Key(const Key&) = delete;
    Key& operator=(const Key&) = delete;

    std::string_view view() const noexcept {
      if (raw_[kInline] != kHeap) {
        return {reinterpret_cast<const char*>(raw_), raw_[kInline]};
      }
      std::uint32_t n = 0;
      std::memcpy(&n, raw_ + sizeof(const char*), sizeof n);
      return {heapBytes(), n};
    }

   private:
    static constexpr std::size_t kInline = 15;
    static constexpr unsigned char kHeap = 0xff;
    const char* heapBytes() const noexcept {
      const char* block = nullptr;
      std::memcpy(&block, raw_, sizeof block);
      return block;
    }

    // Inline: the bytes, then their count in raw_[15]. Heap: the block's
    // pointer, then its u32 length in raw_[8..12), and kHeap in raw_[15].
    unsigned char raw_[16] = {};
  };

  /// The one extent of a size-only extent record (none while size is 0,
  /// and then offset is 0 too).
  struct Extent {
    std::uint64_t offset = 0;
    std::uint64_t size = 0;
    std::uint64_t tag = 0;
  };
  /// A record's value; a new record is an extent record with no extent.
  using Value = std::variant<Extent, Payload, std::unique_ptr<ExtentTree>>;

  struct RecordKey {
    RecordKey(ContId c, const ObjectId& o, std::string_view d,
              std::string_view a)
        : cont(c), oid(o), dkey(d), akey(a) {}
    ContId cont;
    ObjectId oid;
    Key dkey;
    Key akey;
  };
  static_assert(sizeof(RecordKey) == 56);
  /// A lookup key: the same fields as RecordKey, with the keys as views.
  struct Probe {
    ContId cont;
    ObjectId oid;
    std::string_view dkey;
    std::string_view akey;
  };
  /// (container, object, dkey, akey), keys ordered as std::string.
  struct Order {
    using is_transparent = void;
    static std::string_view view(const Key& k) noexcept { return k.view(); }
    static std::string_view view(std::string_view s) noexcept { return s; }
    template <typename A, typename B>
    bool operator()(const A& a, const B& b) const noexcept {
      if (a.cont != b.cont) return a.cont < b.cont;
      if (a.oid != b.oid) return a.oid < b.oid;
      const int d = view(a.dkey).compare(view(b.dkey));
      return d != 0 ? d < 0 : view(a.akey) < view(b.akey);
    }
  };
  using Index = std::map<RecordKey, Value, Order>;

  Payload ingest(Payload p) const {
    return (!retain_data_ && p.hasBytes()) ? p.stripBytes() : std::move(p);
  }

  /// The object's first record (or whatever follows where it would be).
  Index::const_iterator first(ContId c, const ObjectId& o) const {
    return records_.lower_bound(Probe{c, o, {}, {}});
  }
  static bool in(Index::const_iterator it, ContId c, const ObjectId& o) {
    return it->first.cont == c && it->first.oid == o;
  }
  bool holdsRecords(ContId c, const ObjectId& o) const {
    const auto it = first(c, o);
    return it != records_.end() && in(it, c, o);
  }
  const Value* find(ContId c, const ObjectId& o, std::string_view dkey,
                    std::string_view akey) const;
  /// The record's value, inserting an empty extent record if absent. Its
  /// bytes leave bytes_stored_; the caller adds them back once it is done.
  Value& slot(ContId c, const ObjectId& o, std::string_view dkey,
              std::string_view akey);
  /// Erases the run of records from `from` on that `match` accepts and
  /// returns how many objects they belonged to.
  template <typename Match>
  std::size_t eraseRun(Index::const_iterator from, Match match);

  /// The record's extent tree, spilling an inline extent into a new one
  /// (a single value is dropped: extent ops replace it).
  static ExtentTree& spill(Value& v);
  static ExtentTree::ReadResult readExtent(const Extent& e,
                                           std::uint64_t offset,
                                           std::uint64_t length);
  static std::uint64_t valueBytes(const Value& v) noexcept;
  static std::vector<std::pair<std::uint64_t, Payload>> extentsOf(
      const Value& v);

  bool retain_data_;
  Index records_;
  /// Objects that exist without a record (their last dkey was removed).
  std::set<std::pair<ContId, ObjectId>> empty_objects_;
  std::uint64_t objects_ = 0;  // with records or in empty_objects_
  std::uint64_t bytes_stored_ = 0;
  std::uint64_t value_puts_ = 0;
  mutable std::uint64_t value_gets_ = 0;  // bumped in const getters
  std::uint64_t extent_writes_ = 0;
  mutable std::uint64_t extent_reads_ = 0;
};

}  // namespace daosim::vos
