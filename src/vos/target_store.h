// Per-target versioned object store (the VOS analogue).
//
// One TargetStore exists per DAOS target (and is reused for Lustre OSTs and
// Ceph OSDs, which store their objects through the same structures). The
// data model mirrors VOS: container -> object -> dkey -> akey -> value,
// where a value is either a single atomic payload (KV records) or an extent
// tree (array records).
//
// A record is one heap block holding its key (container, object, dkey,
// akey), its value and the links of its object's record chain. Keys of up
// to 15 bytes sit in the block (see Key), and an extent record whose only
// extent is size-only keeps (offset, size, tag) there too; it spills to an
// ExtentTree once it holds several extents, real bytes or an explicit size.
//
// One hashed index per target finds a record: an open-addressing table of
// record pointers, each with a 16-bit hash fingerprint in its unused top
// bits. Every record takes exactly one slot. An object's head record (the
// first of its chain) is filed under hash(container, object), every other
// record under hash(container, object, dkey, akey), so a point lookup
// probes the record's hash and then the object's, and reads a couple of
// cache lines. Enumeration walks the object's chain and sorts it: keys
// order as std::string, so dkey and akey listings and record enumeration
// come out in the same order as a map of maps would give, whatever the
// table layout or which record is the head.
#pragma once

#include <cstdint>
#include <cstring>
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
  ~TargetStore();
  TargetStore(const TargetStore&) = delete;
  TargetStore& operator=(const TargetStore&) = delete;

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
  /// Removes, in one walk of the object's records, every record whose dkey
  /// `doomed` accepts (it is asked once per record); returns how many went.
  /// The object still exists once its last record is gone.
  template <typename Pred>
  std::size_t punchDkeys(ContId c, const ObjectId& o, Pred&& doomed) {
    std::vector<Record*> out;
    for (Record* r = head(c, o); r != nullptr; r = r->next) {
      if (doomed(r->key.dkey.view())) out.push_back(r);
    }
    punch(c, o, out);
    return out.size();
  }
  void destroyContainer(ContId c);

  // --- enumeration for migration/rebuild --------------------------------
  /// Every (container, object) pair held by this target: the objects with
  /// records in (container, object) order, then the record-less ones.
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
    for (const Record* r : sorted(c, o)) {
      fn(RecordView{r->key.dkey.view(), r->key.akey.view(),
                    std::get_if<Payload>(&r->value), extentsOf(r->value)});
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
  /// and then offset is 0 too). Value-initialized to zeros: default member
  /// initializers would keep GCC 12 from default-constructing a Value
  /// inside this class body.
  struct Extent {
    std::uint64_t offset;
    std::uint64_t size;
    std::uint64_t tag;
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

  /// One record: a 120-byte block, one 128-byte malloc chunk.
  struct Record {
    Record(ContId c, const ObjectId& o, std::string_view dkey,
           std::string_view akey)
        : key(c, o, dkey, akey) {}
    RecordKey key;
    Value value;
    Record* prev = nullptr;  ///< null for the object's head record
    Record* next = nullptr;
  };
  static_assert(sizeof(Record) == 120);

  Payload ingest(Payload p) const {
    return (!retain_data_ && p.hasBytes()) ? p.stripBytes() : std::move(p);
  }

  // A slot is 0 (empty) or a record pointer with the fingerprint of the
  // hash it is filed under, the hash's low 16 bits, in its top 16 bits.
  static constexpr unsigned kPointerBits = 48;
  static constexpr std::uint64_t kPointerMask = (1ULL << kPointerBits) - 1;
  static constexpr std::uint64_t kFingerprint = 0xffff;
  static constexpr std::size_t kMinSlots = 32;
  static constexpr std::size_t kNone = ~std::size_t{0};

  static Record* recordOf(std::uint64_t slot) noexcept {
    return reinterpret_cast<Record*>(slot & kPointerMask);
  }
  static std::uint64_t objectHash(ContId c, const ObjectId& o) noexcept;
  static std::uint64_t recordHash(std::uint64_t object_hash,
                                  std::string_view dkey,
                                  std::string_view akey) noexcept;
  std::size_t capacity() const noexcept { return slots_ ? mask_ + 1 : 0; }
  /// The slot a filed entry would take in an empty table. Up to 2^16
  /// slots its fingerprint holds every bit needed, so no record is read.
  std::size_t home(std::uint64_t slot) const noexcept;

  /// The slot of the record filed under `h` that `match` accepts, or kNone.
  template <typename Match>
  std::size_t probe(std::uint64_t h, Match match) const {
    if (slots_ == nullptr) return kNone;
    for (std::size_t i = h & mask_;; i = (i + 1) & mask_) {
      const std::uint64_t s = slots_[i];
      if (s == 0) return kNone;
      if ((s >> kPointerBits) == (h & kFingerprint) && match(*recordOf(s))) {
        return i;
      }
    }
  }
  /// The slot holding `r`, which is filed under `h`.
  std::size_t locate(const Record* r, std::uint64_t h) const;
  void file(Record* r, std::uint64_t h);
  /// Empties slot `i`, shifting later entries of its probe run back.
  void unfile(std::size_t i);
  void grow();

  /// The object's head record, or null.
  Record* head(ContId c, const ObjectId& o) const;
  /// The record, or null; on a miss `*first` gets the object's head.
  Record* find(ContId c, const ObjectId& o, std::string_view dkey,
               std::string_view akey, Record** first = nullptr) const;
  /// The record's value, inserting an empty extent record if absent. Its
  /// bytes leave bytes_stored_; the caller adds them back once it is done.
  Value& slot(ContId c, const ObjectId& o, std::string_view dkey,
              std::string_view akey);
  /// Unlinks, unfiles and frees one record, promoting the next record of
  /// its chain when it is the head.
  void erase(Record* r);
  /// Erases records of one object, given in chain order.
  void erase(const std::vector<Record*>& doomed);
  /// Erases `doomed`, records of (c, o) in chain order, and keeps the
  /// object as a record-less one if they were the last of its records.
  void punch(ContId c, const ObjectId& o, const std::vector<Record*>& doomed);
  /// The object's records, head first, and in (dkey, akey) order.
  std::vector<Record*> chain(ContId c, const ObjectId& o) const;
  std::vector<Record*> sorted(ContId c, const ObjectId& o) const;

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
  std::unique_ptr<std::uint64_t[]> slots_;
  std::size_t mask_ = 0;   // capacity() - 1 once slots_ exists
  std::size_t filed_ = 0;  // records, one slot each
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
