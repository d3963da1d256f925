// Tests for the VOS-like target store: payload semantics, extent-tree
// overlap handling, KV records, enumeration, punch, and space accounting,
// plus a model test against the former map-of-maps store (narrow key
// spaces, and wide ones that grow the hashed index past a thousand
// records), checks that listings do not depend on the index's layout or
// head records and that tables past 2^16 slots keep every record, and a
// guard on the bytes one size-only extent record costs.
#include <gtest/gtest.h>
#include <malloc.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <variant>
#include <vector>

#include "placement/oid.h"
#include "sim/rng.h"
#include "vos/extent_tree.h"
#include "vos/payload.h"
#include "vos/target_store.h"

namespace daosim::vos {
namespace {

using placement::makeOid;
using placement::ObjClass;
using placement::ObjectId;

TEST(Payload, RealBytesRoundTrip) {
  auto p = Payload::fromString("hello world");
  EXPECT_EQ(p.size(), 11u);
  EXPECT_TRUE(p.hasBytes());
  EXPECT_EQ(p.toString(), "hello world");
}

TEST(Payload, SliceIsZeroCopyView) {
  auto p = Payload::fromString("hello world");
  auto s = p.slice(6, 5);
  EXPECT_EQ(s.toString(), "world");
  auto clamped = p.slice(8, 100);
  EXPECT_EQ(clamped.toString(), "rld");
  auto beyond = p.slice(100, 5);
  EXPECT_EQ(beyond.size(), 0u);
}

TEST(Payload, SyntheticKeepsSizeAndTag) {
  auto p = Payload::synthetic(1 << 20, 42);
  EXPECT_EQ(p.size(), 1u << 20);
  EXPECT_FALSE(p.hasBytes());
  EXPECT_EQ(p.tag(), 42u);
  auto s = p.slice(100, 200);
  EXPECT_EQ(s.size(), 200u);
  EXPECT_FALSE(s.hasBytes());
}

TEST(Payload, EqualityBytesAndTags) {
  EXPECT_EQ(Payload::fromString("abc"), Payload::fromString("abc"));
  EXPECT_NE(Payload::fromString("abc"), Payload::fromString("abd"));
  EXPECT_EQ(Payload::synthetic(10, 1), Payload::synthetic(10, 1));
  EXPECT_NE(Payload::synthetic(10, 1), Payload::synthetic(10, 2));
  EXPECT_NE(Payload::synthetic(10, 1), Payload::synthetic(11, 1));
}

TEST(Payload, PatternIsDeterministic) {
  auto a = patternPayload(1000, 7);
  auto b = patternPayload(1000, 7);
  auto c = patternPayload(1000, 8);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(Payload, StripBytes) {
  auto p = Payload::fromString("data");
  auto s = p.stripBytes();
  EXPECT_EQ(s.size(), 4u);
  EXPECT_FALSE(s.hasBytes());
}

TEST(ExtentTree, WriteReadBack) {
  ExtentTree t;
  t.write(0, Payload::fromString("abcdef"));
  auto r = t.read(0, 6);
  EXPECT_EQ(r.data.toString(), "abcdef");
  EXPECT_EQ(r.bytes_found, 6u);
  EXPECT_EQ(t.end(), 6u);
}

TEST(ExtentTree, HolesReadAsZeros) {
  ExtentTree t;
  t.write(4, Payload::fromString("xy"));
  auto r = t.read(0, 8);
  EXPECT_EQ(r.bytes_found, 2u);
  ASSERT_EQ(r.data.size(), 8u);
  auto b = r.data.bytes();
  EXPECT_EQ(static_cast<char>(b[0]), '\0');
  EXPECT_EQ(static_cast<char>(b[4]), 'x');
  EXPECT_EQ(static_cast<char>(b[5]), 'y');
  EXPECT_EQ(static_cast<char>(b[6]), '\0');
}

TEST(ExtentTree, OverwriteMiddleSplitsExtent) {
  ExtentTree t;
  t.write(0, Payload::fromString("aaaaaaaaaa"));  // [0,10)
  t.write(3, Payload::fromString("BBB"));         // [3,6)
  auto r = t.read(0, 10);
  EXPECT_EQ(r.data.toString(), "aaaBBBaaaa");
  EXPECT_EQ(r.bytes_found, 10u);
  EXPECT_EQ(t.extentCount(), 3u);
  EXPECT_EQ(t.bytesStored(), 10u);
}

TEST(ExtentTree, OverwriteHeadAndTail) {
  ExtentTree t;
  t.write(2, Payload::fromString("mmmm"));  // [2,6)
  t.write(0, Payload::fromString("HHH"));   // [0,3) overlaps head
  t.write(5, Payload::fromString("TT"));    // [5,7) overlaps tail
  auto r = t.read(0, 7);
  EXPECT_EQ(r.data.toString(), "HHHmmTT");
  EXPECT_EQ(t.end(), 7u);
  EXPECT_EQ(t.bytesStored(), 7u);
}

TEST(ExtentTree, OverwriteSwallowsContainedExtents) {
  ExtentTree t;
  t.write(0, Payload::fromString("aa"));
  t.write(4, Payload::fromString("bb"));
  t.write(8, Payload::fromString("cc"));
  t.write(0, Payload::fromString("XXXXXXXXXX"));  // [0,10) covers all
  auto r = t.read(0, 10);
  EXPECT_EQ(r.data.toString(), "XXXXXXXXXX");
  EXPECT_EQ(t.extentCount(), 1u);
  EXPECT_EQ(t.bytesStored(), 10u);
}

TEST(ExtentTree, TruncateShrinksAndExtends) {
  ExtentTree t;
  t.write(0, Payload::fromString("abcdefgh"));
  t.truncate(4);
  EXPECT_EQ(t.end(), 4u);
  EXPECT_EQ(t.read(0, 4).data.toString(), "abcd");
  EXPECT_EQ(t.read(4, 4).bytes_found, 0u);
  t.truncate(16);
  EXPECT_EQ(t.end(), 16u);
  EXPECT_EQ(t.read(0, 4).data.toString(), "abcd");
}

TEST(ExtentTree, SyntheticPayloadPropagates) {
  ExtentTree t;
  t.write(0, Payload::synthetic(100, 5));
  auto r = t.read(0, 100);
  EXPECT_EQ(r.bytes_found, 100u);
  EXPECT_FALSE(r.data.hasBytes());
  EXPECT_EQ(r.data.size(), 100u);
}

TEST(ExtentTree, ZeroLengthOps) {
  ExtentTree t;
  t.write(5, Payload{});
  EXPECT_TRUE(t.empty());
  auto r = t.read(0, 0);
  EXPECT_EQ(r.data.size(), 0u);
}

TEST(U64Dkey, RoundTripAndOrdering) {
  EXPECT_EQ(dkeyU64(u64Dkey(0)), 0u);
  EXPECT_EQ(dkeyU64(u64Dkey(123456789)), 123456789u);
  EXPECT_EQ(dkeyU64(u64Dkey(~0ULL)), ~0ULL);
  EXPECT_LT(u64Dkey(1), u64Dkey(2));
  EXPECT_LT(u64Dkey(255), u64Dkey(256));  // big-endian keeps numeric order
}

class TargetStoreTest : public ::testing::Test {
 protected:
  TargetStore store_;
  ContId cont_ = 1;
  placement::ObjectId oid_ = makeOid(ObjClass::S1, 100);
};

TEST_F(TargetStoreTest, KvPutGetRemove) {
  store_.valuePut(cont_, oid_, "key1", "v", Payload::fromString("value1"));
  const Payload* p = store_.valueGet(cont_, oid_, "key1", "v");
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->toString(), "value1");

  store_.valuePut(cont_, oid_, "key1", "v", Payload::fromString("value2"));
  EXPECT_EQ(store_.valueGet(cont_, oid_, "key1", "v")->toString(), "value2");
  EXPECT_EQ(store_.bytesStored(), 6u);

  EXPECT_TRUE(store_.valueRemove(cont_, oid_, "key1", "v"));
  EXPECT_EQ(store_.valueGet(cont_, oid_, "key1", "v"), nullptr);
  EXPECT_FALSE(store_.valueRemove(cont_, oid_, "key1", "v"));
  EXPECT_EQ(store_.bytesStored(), 0u);
}

TEST_F(TargetStoreTest, MissingLookupsReturnNull) {
  EXPECT_EQ(store_.valueGet(cont_, oid_, "nope", "v"), nullptr);
  EXPECT_EQ(store_.valueGet(99, oid_, "nope", "v"), nullptr);
  EXPECT_FALSE(store_.objectExists(cont_, oid_));
}

TEST_F(TargetStoreTest, ExtentWriteReadAcrossDkeys) {
  store_.extentWrite(cont_, oid_, u64Dkey(0), "a", 0,
                     Payload::fromString("chunk0"));
  store_.extentWrite(cont_, oid_, u64Dkey(1), "a", 0,
                     Payload::fromString("chunk1"));
  EXPECT_EQ(store_.extentRead(cont_, oid_, u64Dkey(0), "a", 0, 6)
                .data.toString(),
            "chunk0");
  EXPECT_EQ(store_.extentRead(cont_, oid_, u64Dkey(1), "a", 0, 6)
                .data.toString(),
            "chunk1");
  EXPECT_EQ(store_.extentEnd(cont_, oid_, u64Dkey(0), "a"), 6u);
  EXPECT_EQ(store_.extentEnd(cont_, oid_, u64Dkey(2), "a"), 0u);
}

TEST_F(TargetStoreTest, ListKeys) {
  store_.valuePut(cont_, oid_, "b", "v", Payload::fromString("1"));
  store_.valuePut(cont_, oid_, "a", "v", Payload::fromString("2"));
  store_.valuePut(cont_, oid_, "c", "v", Payload::fromString("3"));
  auto keys = store_.listDkeys(cont_, oid_);
  EXPECT_EQ(keys, (std::vector<std::string>{"a", "b", "c"}));  // sorted
  auto akeys = store_.listAkeys(cont_, oid_, "a");
  EXPECT_EQ(akeys, (std::vector<std::string>{"v"}));
}

TEST_F(TargetStoreTest, PunchObjectReclaimsSpace) {
  store_.valuePut(cont_, oid_, "k", "v", Payload::fromString("xxxx"));
  store_.extentWrite(cont_, oid_, u64Dkey(0), "a", 0,
                     Payload::fromString("yyyy"));
  EXPECT_EQ(store_.bytesStored(), 8u);
  EXPECT_TRUE(store_.punchObject(cont_, oid_));
  EXPECT_EQ(store_.bytesStored(), 0u);
  EXPECT_FALSE(store_.objectExists(cont_, oid_));
  EXPECT_FALSE(store_.punchObject(cont_, oid_));
}

TEST_F(TargetStoreTest, PunchDkey) {
  store_.valuePut(cont_, oid_, "k1", "v", Payload::fromString("aa"));
  store_.valuePut(cont_, oid_, "k2", "v", Payload::fromString("bb"));
  EXPECT_TRUE(store_.punchDkey(cont_, oid_, "k1"));
  EXPECT_EQ(store_.valueGet(cont_, oid_, "k1", "v"), nullptr);
  ASSERT_NE(store_.valueGet(cont_, oid_, "k2", "v"), nullptr);
  EXPECT_EQ(store_.bytesStored(), 2u);
}

TEST_F(TargetStoreTest, DestroyContainer) {
  store_.valuePut(1, oid_, "k", "v", Payload::fromString("aa"));
  store_.valuePut(2, oid_, "k", "v", Payload::fromString("bb"));
  store_.destroyContainer(1);
  EXPECT_EQ(store_.valueGet(1, oid_, "k", "v"), nullptr);
  ASSERT_NE(store_.valueGet(2, oid_, "k", "v"), nullptr);
  EXPECT_EQ(store_.bytesStored(), 2u);
  EXPECT_EQ(store_.listObjects(),
            (std::vector<std::pair<ContId, placement::ObjectId>>{{2, oid_}}));
}

TEST_F(TargetStoreTest, NoRetainModeStripsExtentBytesButKeepsKvRecords) {
  TargetStore lean(/*retain_data=*/false);
  // KV records are metadata: bytes are always retained.
  lean.valuePut(cont_, oid_, "k", "v", Payload::fromString("abcdef"));
  const Payload* p = lean.valueGet(cont_, oid_, "k", "v");
  ASSERT_NE(p, nullptr);
  EXPECT_TRUE(p->hasBytes());
  EXPECT_EQ(p->toString(), "abcdef");
  // Extent (bulk) payloads are stripped to size-only.
  lean.extentWrite(cont_, oid_, u64Dkey(0), "a", 0, patternPayload(1024, 1));
  EXPECT_EQ(lean.extentEnd(cont_, oid_, u64Dkey(0), "a"), 1024u);
  EXPECT_EQ(lean.bytesStored(), 1030u);
  auto r = lean.extentRead(cont_, oid_, u64Dkey(0), "a", 0, 1024);
  EXPECT_FALSE(r.data.hasBytes());
  EXPECT_EQ(r.bytes_found, 1024u);
}

TEST_F(TargetStoreTest, AccountingSurvivesOverwrites) {
  store_.extentWrite(cont_, oid_, u64Dkey(0), "a", 0, patternPayload(1000, 1));
  store_.extentWrite(cont_, oid_, u64Dkey(0), "a", 500,
                     patternPayload(1000, 2));
  EXPECT_EQ(store_.bytesStored(), 1500u);
  store_.extentTruncate(cont_, oid_, u64Dkey(0), "a", 200);
  EXPECT_EQ(store_.bytesStored(), 200u);
  EXPECT_EQ(store_.extentEnd(cont_, oid_, u64Dkey(0), "a"), 200u);
}

TEST_F(TargetStoreTest, ObjectCountAcrossContainers) {
  store_.valuePut(1, makeOid(ObjClass::S1, 1), "k", "v", Payload::fromString("x"));
  store_.valuePut(1, makeOid(ObjClass::S1, 2), "k", "v", Payload::fromString("x"));
  store_.valuePut(2, makeOid(ObjClass::S1, 3), "k", "v", Payload::fromString("x"));
  EXPECT_EQ(store_.objectCount(), 3u);
}

// --- model test against the former store ------------------------------
//
// ReferenceExtentTree and ReferenceStore are the map-of-maps TargetStore
// and the ExtentTree it used, bodies unchanged apart from the names.

class ReferenceExtentTree {
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

void ReferenceExtentTree::carve(std::uint64_t off, std::uint64_t len) {
  if (len == 0) return;
  const std::uint64_t hi = off + len;

  // Predecessor extent overlapping the range start: split it.
  auto it = extents_.upper_bound(off);
  if (it != extents_.begin()) {
    auto prev = std::prev(it);
    const std::uint64_t p_start = prev->first;
    const std::uint64_t p_end = p_start + prev->second.size();
    if (p_end > off) {
      Payload whole = prev->second;
      stored_ -= whole.size();
      extents_.erase(prev);
      if (p_start < off) {
        Payload left = whole.slice(0, off - p_start);
        stored_ += left.size();
        extents_.emplace(p_start, std::move(left));
      }
      if (p_end > hi) {
        Payload right = whole.slice(hi - p_start, p_end - hi);
        stored_ += right.size();
        extents_.emplace(hi, std::move(right));
      }
    }
  }

  // Extents starting inside the range: erase; trim the one crossing `hi`.
  it = extents_.lower_bound(off);
  while (it != extents_.end() && it->first < hi) {
    const std::uint64_t e_start = it->first;
    const std::uint64_t e_end = e_start + it->second.size();
    Payload whole = it->second;
    stored_ -= whole.size();
    it = extents_.erase(it);
    if (e_end > hi) {
      Payload right = whole.slice(hi - e_start, e_end - hi);
      stored_ += right.size();
      extents_.emplace(hi, std::move(right));
      break;
    }
  }
}

void ReferenceExtentTree::write(std::uint64_t offset, Payload payload) {
  if (payload.empty()) return;
  carve(offset, payload.size());
  end_ = std::max(end_, offset + payload.size());
  stored_ += payload.size();
  extents_.emplace(offset, std::move(payload));
}

ReferenceExtentTree::ReadResult ReferenceExtentTree::read(
    std::uint64_t offset, std::uint64_t length) const {
  ReadResult r;
  if (length == 0) return r;

  // First pass: find overlapping extents and whether all carry real bytes.
  bool all_real = true;
  std::uint64_t found = 0;
  const std::uint64_t hi = offset + length;

  auto first = extents_.upper_bound(offset);
  if (first != extents_.begin()) {
    auto prev = std::prev(first);
    if (prev->first + prev->second.size() > offset) first = prev;
  }
  for (auto it = first; it != extents_.end() && it->first < hi; ++it) {
    const std::uint64_t lo = std::max(offset, it->first);
    const std::uint64_t e_hi = std::min(hi, it->first + it->second.size());
    found += e_hi - lo;
    if (!it->second.hasBytes()) all_real = false;
  }
  r.bytes_found = found;

  if (!all_real) {
    r.data = Payload::synthetic(length);
    return r;
  }

  // Assemble real bytes, zero-filling holes.
  std::vector<std::byte> out(length);  // zero-initialized
  for (auto it = first; it != extents_.end() && it->first < hi; ++it) {
    const std::uint64_t lo = std::max(offset, it->first);
    const std::uint64_t e_hi = std::min(hi, it->first + it->second.size());
    auto piece = it->second.slice(lo - it->first, e_hi - lo).bytes();
    std::memcpy(out.data() + (lo - offset), piece.data(), piece.size());
  }
  r.data = Payload::fromBytes(std::move(out));
  return r;
}

void ReferenceExtentTree::truncate(std::uint64_t size) {
  if (size < end_) carve(size, end_ - size);
  // Explicit-size semantics (POSIX ftruncate / daos_array_set_size): the
  // logical size becomes exactly `size`, shrinking or extending with a hole.
  end_ = size;
}

class ReferenceStore {
 public:
  explicit ReferenceStore(bool retain_data = true)
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
  ReferenceExtentTree::ReadResult extentRead(ContId c, const ObjectId& o,
                                             std::string_view dkey,
                                             std::string_view akey,
                                             std::uint64_t offset,
                                             std::uint64_t length) const;
  /// End offset of the extent tree (0 if absent).
  std::uint64_t extentEnd(ContId c, const ObjectId& o, std::string_view dkey,
                          std::string_view akey) const;
  void extentTruncate(ContId c, const ObjectId& o, std::string_view dkey,
                      std::string_view akey, std::uint64_t size);

  // --- enumeration and life-cycle --------------------------------------
  std::vector<std::string> listDkeys(ContId c, const ObjectId& o) const;
  std::vector<std::string> listAkeys(ContId c, const ObjectId& o,
                                     std::string_view dkey) const;
  bool objectExists(ContId c, const ObjectId& o) const;
  /// Removes the object and all records beneath it (DAOS punch).
  bool punchObject(ContId c, const ObjectId& o);
  bool punchDkey(ContId c, const ObjectId& o, std::string_view dkey);
  void destroyContainer(ContId c);

  // --- enumeration for migration/rebuild --------------------------------
  /// Every (container, object) pair held by this target.
  std::vector<std::pair<ContId, ObjectId>> listObjects() const;

  /// A view of one record for copy-out.
  struct RecordView {
    const std::string* dkey;
    const std::string* akey;
    const Payload* value;     // non-null for single-value records
    const ReferenceExtentTree* tree;   // non-null for extent records
  };
  /// Invokes `fn(RecordView)` for every record of the object.
  template <typename Fn>
  void forEachRecord(ContId c, const ObjectId& o, Fn&& fn) const {
    const ObjectShard* obj = findObject(c, o);
    if (obj == nullptr) return;
    for (const auto& [dkey, entry] : obj->dkeys) {
      for (const auto& [akey, value] : entry.akeys) {
        RecordView view{&dkey, &akey, std::get_if<Payload>(&value),
                        std::get_if<ReferenceExtentTree>(&value)};
        fn(view);
      }
    }
  }

  // --- accounting -------------------------------------------------------
  std::uint64_t bytesStored() const noexcept { return bytes_stored_; }
  std::uint64_t objectCount() const noexcept;
  std::uint64_t containerCount() const noexcept { return containers_.size(); }

  std::uint64_t valuePuts() const noexcept { return value_puts_; }
  std::uint64_t valueGets() const noexcept { return value_gets_; }
  std::uint64_t extentWrites() const noexcept { return extent_writes_; }
  std::uint64_t extentReads() const noexcept { return extent_reads_; }

 private:
  using Value = std::variant<Payload, ReferenceExtentTree>;
  struct DkeyEntry {
    std::map<std::string, Value, std::less<>> akeys;
  };
  struct ObjectShard {
    std::map<std::string, DkeyEntry, std::less<>> dkeys;
  };
  struct ContainerShard {
    std::unordered_map<ObjectId, ObjectShard> objects;
  };

  Payload ingest(Payload p) const {
    return (!retain_data_ && p.hasBytes()) ? p.stripBytes() : std::move(p);
  }

  ObjectShard& objectShard(ContId c, const ObjectId& o);
  const ObjectShard* findObject(ContId c, const ObjectId& o) const;

  std::uint64_t valueBytes(const Value& v) const;

  bool retain_data_;
  std::unordered_map<ContId, ContainerShard> containers_;
  std::uint64_t bytes_stored_ = 0;
  std::uint64_t value_puts_ = 0;
  mutable std::uint64_t value_gets_ = 0;  // bumped in const getters
  std::uint64_t extent_writes_ = 0;
  mutable std::uint64_t extent_reads_ = 0;
};

ReferenceStore::ObjectShard& ReferenceStore::objectShard(ContId c,
                                                         const ObjectId& o) {
  return containers_[c].objects[o];
}

const ReferenceStore::ObjectShard* ReferenceStore::findObject(
    ContId c, const ObjectId& o) const {
  auto cit = containers_.find(c);
  if (cit == containers_.end()) return nullptr;
  auto oit = cit->second.objects.find(o);
  if (oit == cit->second.objects.end()) return nullptr;
  return &oit->second;
}

std::uint64_t ReferenceStore::valueBytes(const Value& v) const {
  if (const auto* p = std::get_if<Payload>(&v)) return p->size();
  return std::get<ReferenceExtentTree>(v).bytesStored();
}

void ReferenceStore::valuePut(ContId c, const ObjectId& o,
                              std::string_view dkey, std::string_view akey,
                              Payload value) {
  ++value_puts_;
  auto& entry = objectShard(c, o).dkeys[std::string(dkey)];
  auto [it, inserted] = entry.akeys.try_emplace(std::string(akey));
  if (!inserted) bytes_stored_ -= valueBytes(it->second);
  it->second = std::move(value);  // KV records always retain bytes
  bytes_stored_ += valueBytes(it->second);
}

const Payload* ReferenceStore::valueGet(ContId c, const ObjectId& o,
                                        std::string_view dkey,
                                        std::string_view akey) const {
  ++value_gets_;
  const auto* obj = findObject(c, o);
  if (!obj) return nullptr;
  auto dit = obj->dkeys.find(dkey);
  if (dit == obj->dkeys.end()) return nullptr;
  auto ait = dit->second.akeys.find(akey);
  if (ait == dit->second.akeys.end()) return nullptr;
  return std::get_if<Payload>(&ait->second);
}

bool ReferenceStore::valueRemove(ContId c, const ObjectId& o,
                                 std::string_view dkey,
                                 std::string_view akey) {
  auto cit = containers_.find(c);
  if (cit == containers_.end()) return false;
  auto oit = cit->second.objects.find(o);
  if (oit == cit->second.objects.end()) return false;
  auto dit = oit->second.dkeys.find(dkey);
  if (dit == oit->second.dkeys.end()) return false;
  auto ait = dit->second.akeys.find(akey);
  if (ait == dit->second.akeys.end()) return false;
  bytes_stored_ -= valueBytes(ait->second);
  dit->second.akeys.erase(ait);
  if (dit->second.akeys.empty()) oit->second.dkeys.erase(dit);
  return true;
}

void ReferenceStore::extentWrite(ContId c, const ObjectId& o,
                                 std::string_view dkey, std::string_view akey,
                                 std::uint64_t offset, Payload payload) {
  ++extent_writes_;
  auto& entry = objectShard(c, o).dkeys[std::string(dkey)];
  auto [it, inserted] = entry.akeys.try_emplace(std::string(akey));
  if (inserted || !std::holds_alternative<ReferenceExtentTree>(it->second)) {
    if (!inserted) bytes_stored_ -= valueBytes(it->second);
    it->second = ReferenceExtentTree{};
  }
  auto& tree = std::get<ReferenceExtentTree>(it->second);
  bytes_stored_ -= tree.bytesStored();
  tree.write(offset, ingest(std::move(payload)));
  bytes_stored_ += tree.bytesStored();
}

ReferenceExtentTree::ReadResult ReferenceStore::extentRead(
    ContId c, const ObjectId& o, std::string_view dkey, std::string_view akey,
    std::uint64_t offset, std::uint64_t length) const {
  ++extent_reads_;
  const auto* obj = findObject(c, o);
  if (obj) {
    auto dit = obj->dkeys.find(dkey);
    if (dit != obj->dkeys.end()) {
      auto ait = dit->second.akeys.find(akey);
      if (ait != dit->second.akeys.end()) {
        if (const auto* tree =
                std::get_if<ReferenceExtentTree>(&ait->second)) {
          return tree->read(offset, length);
        }
      }
    }
  }
  ReferenceExtentTree::ReadResult hole;
  hole.data = Payload::synthetic(length);
  hole.bytes_found = 0;
  return hole;
}

std::uint64_t ReferenceStore::extentEnd(ContId c, const ObjectId& o,
                                        std::string_view dkey,
                                        std::string_view akey) const {
  const auto* obj = findObject(c, o);
  if (!obj) return 0;
  auto dit = obj->dkeys.find(dkey);
  if (dit == obj->dkeys.end()) return 0;
  auto ait = dit->second.akeys.find(akey);
  if (ait == dit->second.akeys.end()) return 0;
  if (const auto* tree = std::get_if<ReferenceExtentTree>(&ait->second)) {
    return tree->end();
  }
  return 0;
}

void ReferenceStore::extentTruncate(ContId c, const ObjectId& o,
                                    std::string_view dkey,
                                    std::string_view akey,
                                    std::uint64_t size) {
  auto& entry = objectShard(c, o).dkeys[std::string(dkey)];
  auto [it, inserted] = entry.akeys.try_emplace(std::string(akey));
  if (inserted || !std::holds_alternative<ReferenceExtentTree>(it->second)) {
    if (!inserted) bytes_stored_ -= valueBytes(it->second);
    it->second = ReferenceExtentTree{};
  }
  auto& tree = std::get<ReferenceExtentTree>(it->second);
  bytes_stored_ -= tree.bytesStored();
  tree.truncate(size);
  bytes_stored_ += tree.bytesStored();
}

std::vector<std::string> ReferenceStore::listDkeys(ContId c,
                                                   const ObjectId& o) const {
  std::vector<std::string> out;
  if (const auto* obj = findObject(c, o)) {
    out.reserve(obj->dkeys.size());
    for (const auto& [k, _] : obj->dkeys) out.push_back(k);
  }
  return out;
}

std::vector<std::string> ReferenceStore::listAkeys(
    ContId c, const ObjectId& o, std::string_view dkey) const {
  std::vector<std::string> out;
  if (const auto* obj = findObject(c, o)) {
    auto dit = obj->dkeys.find(dkey);
    if (dit != obj->dkeys.end()) {
      out.reserve(dit->second.akeys.size());
      for (const auto& [k, _] : dit->second.akeys) out.push_back(k);
    }
  }
  return out;
}

bool ReferenceStore::objectExists(ContId c, const ObjectId& o) const {
  return findObject(c, o) != nullptr;
}

bool ReferenceStore::punchObject(ContId c, const ObjectId& o) {
  auto cit = containers_.find(c);
  if (cit == containers_.end()) return false;
  auto oit = cit->second.objects.find(o);
  if (oit == cit->second.objects.end()) return false;
  for (const auto& [_, d] : oit->second.dkeys) {
    for (const auto& [_a, v] : d.akeys) bytes_stored_ -= valueBytes(v);
  }
  cit->second.objects.erase(oit);
  return true;
}

bool ReferenceStore::punchDkey(ContId c, const ObjectId& o,
                               std::string_view dkey) {
  auto cit = containers_.find(c);
  if (cit == containers_.end()) return false;
  auto oit = cit->second.objects.find(o);
  if (oit == cit->second.objects.end()) return false;
  auto dit = oit->second.dkeys.find(dkey);
  if (dit == oit->second.dkeys.end()) return false;
  for (const auto& [_a, v] : dit->second.akeys) bytes_stored_ -= valueBytes(v);
  oit->second.dkeys.erase(dit);
  return true;
}

void ReferenceStore::destroyContainer(ContId c) {
  auto cit = containers_.find(c);
  if (cit == containers_.end()) return;
  for (const auto& [_, obj] : cit->second.objects) {
    for (const auto& [_d, d] : obj.dkeys) {
      for (const auto& [_a, v] : d.akeys) bytes_stored_ -= valueBytes(v);
    }
  }
  containers_.erase(cit);
}

std::vector<std::pair<ContId, ObjectId>> ReferenceStore::listObjects() const {
  std::vector<std::pair<ContId, ObjectId>> out;
  for (const auto& [cid, cont] : containers_) {
    for (const auto& [oid, _] : cont.objects) out.emplace_back(cid, oid);
  }
  return out;
}

std::uint64_t ReferenceStore::objectCount() const noexcept {
  std::uint64_t n = 0;
  for (const auto& [_, c] : containers_) n += c.objects.size();
  return n;
}

// --- the model test ----------------------------------------------------

/// Everything observable about a payload, as a comparable string.
std::string facts(const Payload& p) {
  return "size=" + std::to_string(p.size()) +
         " tag=" + std::to_string(p.tag()) +
         (p.hasBytes() ? " bytes=" + p.toString() : " size-only");
}

struct RecordFacts {
  std::string dkey;
  std::string akey;
  std::optional<std::string> value;
  std::vector<std::pair<std::uint64_t, std::string>> extents;
  bool operator==(const RecordFacts&) const = default;
};

std::vector<RecordFacts> records(const TargetStore& s, ContId c,
                                 const ObjectId& o) {
  std::vector<RecordFacts> out;
  s.forEachRecord(c, o, [&](const TargetStore::RecordView& v) {
    RecordFacts r{std::string(v.dkey), std::string(v.akey), std::nullopt, {}};
    if (v.value != nullptr) r.value = facts(*v.value);
    for (const auto& [off, p] : v.extents) {
      r.extents.emplace_back(off, facts(p));
    }
    out.push_back(std::move(r));
  });
  return out;
}

std::vector<RecordFacts> records(const ReferenceStore& s, ContId c,
                                 const ObjectId& o) {
  std::vector<RecordFacts> out;
  s.forEachRecord(c, o, [&](const ReferenceStore::RecordView& v) {
    RecordFacts r{*v.dkey, *v.akey, std::nullopt, {}};
    if (v.value != nullptr) r.value = facts(*v.value);
    if (v.tree != nullptr) {
      for (const auto& [off, p] : v.tree->extents()) {
        r.extents.emplace_back(off, facts(p));
      }
    }
    out.push_back(std::move(r));
  });
  return out;
}

template <typename Store>
std::vector<std::pair<ContId, ObjectId>> objectSet(const Store& s) {
  auto out = s.listObjects();
  std::sort(out.begin(), out.end());
  return out;
}

/// The key space a model sequence draws from, and how often it checks the
/// whole visible state.
struct ModelShape {
  std::uint64_t objects;   // per container (two containers)
  int dkeys;               // dkeys drawn for the sequence
  int check_every;         // calls between whole-state checks
  std::uint64_t punches;   // a drawn punchObject runs 1 time in this
  std::uint64_t destroys;  // a drawn destroyContainer runs 1 time in this
};
// A few keys, so calls collide; the state is checked after every call.
constexpr ModelShape kNarrow{3, 4, 1, 4, 8};
// Tables of over a thousand records across 128 objects: growth, long probe
// runs, and removals from objects that keep many other records.
constexpr ModelShape kWide{64, 16, 100, 16, 1000};

/// Drives a TargetStore and a ReferenceStore with the same seeded call
/// sequence and checks every result, then the whole visible state.
class StoreModel {
 public:
  StoreModel(std::uint64_t seed, bool retain, ModelShape shape = kNarrow)
      : shape_(shape), rng_(seed), store_(retain), ref_(retain) {
    // Wide sequences also draw chunk dkeys, so their objects hold many
    // distinct records; narrow ones keep the pool, and so their draws.
    std::vector<std::string> pool = allDkeys();
    if (shape.dkeys > kNarrow.dkeys) {
      for (std::uint64_t i = 2; i < 18; ++i) pool.push_back(u64Dkey(i << 20));
    }
    for (int i = 0; i < shape.dkeys; ++i) dkeys_.push_back(pick(pool));
    for (int i = 0; i < 3; ++i) akeys_.push_back(pick(allAkeys()));
  }

  // How often the sequences reached the cases that matter.
  int overlaps = 0;  // a write over bytes an extent record already holds
  int missing_truncates = 0;
  int emptied_objects = 0;  // an object whose last dkey went away
  // Whole-state checks that found more than 1,000 records in the store.
  int big_tables = 0;
  // Removals (a value or a dkey) from an object that keeps other records.
  int partial_removals = 0;
  int big_punches = 0;  // punches of an object holding 8 or more records
  std::size_t peak_records = 0;

  void step() {
    const ContId c = rng_.uniform(1, 2);
    const ObjectId o = makeOid(ObjClass::S1, rng_.uniform(1, shape_.objects));
    const std::string dkey = pick(dkeys_);
    const std::string akey = pick(akeys_);
    switch (rng_.uniform(0, 12)) {
      case 0:
      case 1:
      case 2: {
        const std::uint64_t off = offset();
        const Payload p = payload();
        const std::uint64_t end = ref_.extentEnd(c, o, dkey, akey);
        if (end > off && p.size() > 0) ++overlaps;
        store_.extentWrite(c, o, dkey, akey, off, p);
        ref_.extentWrite(c, o, dkey, akey, off, p);
        break;
      }
      case 3: {
        const std::uint64_t off = offset();
        const std::uint64_t len = pick(std::vector<std::uint64_t>{
            0, 1, 50, 100, 5000});
        const auto got = store_.extentRead(c, o, dkey, akey, off, len);
        const auto want = ref_.extentRead(c, o, dkey, akey, off, len);
        EXPECT_EQ(facts(got.data), facts(want.data));
        EXPECT_EQ(got.bytes_found, want.bytes_found);
        break;
      }
      case 4: {
        EXPECT_EQ(store_.extentEnd(c, o, dkey, akey),
                  ref_.extentEnd(c, o, dkey, akey));
        std::vector<std::pair<std::uint64_t, std::string>> got, want;
        for (const auto& [off, p] : store_.extents(c, o, dkey, akey)) {
          got.emplace_back(off, facts(p));
        }
        for (const RecordFacts& r : records(ref_, c, o)) {
          if (r.dkey == dkey && r.akey == akey) want = r.extents;
        }
        EXPECT_EQ(got, want);
        break;
      }
      case 5: {
        const std::uint64_t size = offset();
        if (ref_.listAkeys(c, o, dkey).empty()) ++missing_truncates;
        store_.extentTruncate(c, o, dkey, akey, size);
        ref_.extentTruncate(c, o, dkey, akey, size);
        break;
      }
      case 6:
      case 7: {
        const Payload p =
            rng_.uniform(0, 1)
                ? patternPayload(rng_.uniform(0, 40), rng_())
                : Payload::synthetic(rng_.uniform(0, 300), rng_.uniform(0, 3));
        store_.valuePut(c, o, dkey, akey, p);
        ref_.valuePut(c, o, dkey, akey, p);
        break;
      }
      case 8: {
        const Payload* got = store_.valueGet(c, o, dkey, akey);
        const Payload* want = ref_.valueGet(c, o, dkey, akey);
        ASSERT_EQ(got == nullptr, want == nullptr);
        if (got != nullptr) {
          EXPECT_EQ(facts(*got), facts(*want));
        }
        break;
      }
      case 9: {
        const bool removed = ref_.valueRemove(c, o, dkey, akey);
        EXPECT_EQ(store_.valueRemove(c, o, dkey, akey), removed);
        countRemoval(c, o, removed);
        break;
      }
      case 10: {
        const bool removed = ref_.punchDkey(c, o, dkey);
        EXPECT_EQ(store_.punchDkey(c, o, dkey), removed);
        countRemoval(c, o, removed);
        break;
      }
      case 11:
        if (rng_.uniform(0, shape_.punches - 1) == 0) {
          if (records(ref_, c, o).size() >= 8) ++big_punches;
          EXPECT_EQ(store_.punchObject(c, o), ref_.punchObject(c, o));
        }
        break;
      default:
        if (rng_.uniform(0, shape_.destroys - 1) == 0) {
          store_.destroyContainer(c);
          ref_.destroyContainer(c);
        }
        break;
    }
    if (++calls_ % shape_.check_every == 0) checkState();
  }

  void checkState() {
    EXPECT_EQ(store_.bytesStored(), ref_.bytesStored());
    EXPECT_EQ(store_.objectCount(), ref_.objectCount());
    EXPECT_EQ(store_.valuePuts(), ref_.valuePuts());
    EXPECT_EQ(store_.valueGets(), ref_.valueGets());
    EXPECT_EQ(store_.extentWrites(), ref_.extentWrites());
    EXPECT_EQ(store_.extentReads(), ref_.extentReads());
    EXPECT_EQ(objectSet(store_), objectSet(ref_));
    std::size_t held = 0;
    for (ContId c = 1; c <= 2; ++c) {
      for (std::uint64_t lo = 1; lo <= shape_.objects; ++lo) {
        const ObjectId o = makeOid(ObjClass::S1, lo);
        EXPECT_EQ(store_.objectExists(c, o), ref_.objectExists(c, o));
        const auto dkeys = ref_.listDkeys(c, o);
        EXPECT_EQ(store_.listDkeys(c, o), dkeys);
        for (const std::string& d : dkeys) {
          EXPECT_EQ(store_.listAkeys(c, o, d), ref_.listAkeys(c, o, d));
        }
        const auto want = records(ref_, c, o);
        EXPECT_EQ(records(store_, c, o), want);
        held += want.size();
      }
    }
    if (held > 1000) ++big_tables;
    peak_records = std::max(peak_records, held);
  }

 private:
  static const std::vector<std::string>& allDkeys() {
    static const std::vector<std::string> keys = {
        "", "a", "0", "p", u64Dkey(0), u64Dkey(1), u64Dkey(0x80),
        u64Dkey(0x8000000000000001ULL), u64Dkey(~0ULL),
        "__array_meta__",                          // 14 bytes
        std::string(15, 'k'), std::string(16, 'k'), std::string(17, 'k'),
        std::string(14, 'k') + "\xff",             // 15, high last byte
        std::string(15, 'k') + "\x80",             // 16, high last byte
        "class=od,expver=1,r12,f3,k4",              // fdb index keys
        "class=od,expver=1,r200,f17,k6"};
    return keys;
  }
  static const std::vector<std::string>& allAkeys() {
    static const std::vector<std::string> keys = {
        "", "0", "p", "v", "__array_meta__", std::string(15, 'a'),
        std::string(16, 'a'), "stream=oper,type=fc,levtype=sfc"};
    return keys;
  }
  template <typename T>
  const T& pick(const std::vector<T>& v) {
    return v[rng_.uniform(0, v.size() - 1)];
  }
  std::uint64_t offset() {
    return pick(std::vector<std::uint64_t>{0, 1, 50, 99, 100, 200, 4096});
  }
  Payload payload() {
    switch (rng_.uniform(0, 3)) {
      case 0:
        return patternPayload(rng_.uniform(0, 120), rng_());
      case 1:
        return Payload::fromString("");
      default:
        return Payload::synthetic(
            pick(std::vector<std::uint64_t>{0, 1, 7, 50, 100, 4096}),
            rng_.uniform(0, 5));
    }
  }
  void countRemoval(ContId c, const ObjectId& o, bool removed) {
    if (!ref_.objectExists(c, o)) return;
    if (ref_.listDkeys(c, o).empty()) {
      ++emptied_objects;
    } else if (removed) {
      ++partial_removals;
    }
  }

  ModelShape shape_;
  int calls_ = 0;
  sim::Rng rng_;
  std::vector<std::string> dkeys_;
  std::vector<std::string> akeys_;
  TargetStore store_;
  ReferenceStore ref_;
};

class StoreModelTest : public ::testing::TestWithParam<bool> {};

TEST_P(StoreModelTest, MatchesTheMapOfMapsStore) {
  int overlaps = 0, missing_truncates = 0, emptied = 0;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    StoreModel model(seed, /*retain=*/GetParam());
    for (int i = 0; i < 300; ++i) {
      model.step();
      if (::testing::Test::HasFailure()) {
        FAIL() << "seed " << seed << ", call " << i;
      }
    }
    overlaps += model.overlaps;
    missing_truncates += model.missing_truncates;
    emptied += model.emptied_objects;
  }
  // The sequences reach the cases the inline layout treats specially.
  EXPECT_GT(overlaps, 100);
  EXPECT_GT(missing_truncates, 100);
  EXPECT_GT(emptied, 20);
}

TEST_P(StoreModelTest, MatchesTheMapOfMapsStoreOnWideTables) {
  int big_tables = 0, partial_removals = 0, big_punches = 0;
  std::size_t peak = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    StoreModel model(seed, /*retain=*/GetParam(), kWide);
    for (int i = 0; i < 6000; ++i) {
      model.step();
      if (::testing::Test::HasFailure()) {
        FAIL() << "seed " << seed << ", call " << i;
      }
    }
    model.checkState();
    if (::testing::Test::HasFailure()) FAIL() << "seed " << seed << ", end";
    big_tables += model.big_tables;
    partial_removals += model.partial_removals;
    big_punches += model.big_punches;
    peak = std::max(peak, model.peak_records);
  }
  // The sequences reach the cases the hashed index treats specially:
  // grown tables, head promotion and backward shifts inside long chains,
  // and punches that unfile many records.
  EXPECT_GT(big_tables, 300);
  EXPECT_GT(partial_removals, 4000);
  EXPECT_GT(big_punches, 100);
  EXPECT_GT(peak, 1500u);
}

INSTANTIATE_TEST_SUITE_P(RetainData, StoreModelTest, ::testing::Bool());

TEST(StoreModelTest, ObjectOutlivesItsLastDkeyUntilPunched) {
  TargetStore store;
  const ObjectId o = makeOid(ObjClass::S1, 7);
  store.valuePut(1, o, "d", "v", Payload::fromString("x"));
  EXPECT_TRUE(store.valueRemove(1, o, "d", "v"));
  EXPECT_TRUE(store.objectExists(1, o));
  EXPECT_TRUE(store.listDkeys(1, o).empty());
  EXPECT_EQ(store.objectCount(), 1u);
  EXPECT_FALSE(store.punchDkey(1, o, "d"));
  EXPECT_TRUE(store.punchObject(1, o));
  EXPECT_FALSE(store.objectExists(1, o));

  store.extentWrite(2, o, u64Dkey(0), "0", 0, Payload::synthetic(10));
  EXPECT_TRUE(store.punchDkey(2, o, u64Dkey(0)));
  EXPECT_EQ(store.listObjects(),
            (std::vector<std::pair<ContId, ObjectId>>{{2, o}}));
  store.destroyContainer(2);
  EXPECT_EQ(store.objectCount(), 0u);
}

// --- the hashed index: layout independence and large tables ------------

/// A record of a fixed final state: a single value, one size-only extent
/// kept inline, or two extents that spill to a tree.
struct Planned {
  ContId c;
  ObjectId o;
  std::string dkey;
  std::string akey;
  std::uint64_t seed;
};

std::vector<Planned> plannedRecords() {
  const std::vector<std::string> dkeys = {
      u64Dkey(0), u64Dkey(1), u64Dkey(7), "__array_meta__",
      "class=od,expver=1,r12,f3,k4", std::string(15, 'k')};
  const std::vector<std::string> akeys = {"0", "v", std::string(16, 'a')};
  std::vector<Planned> out;
  for (ContId c = 1; c <= 2; ++c) {
    for (std::uint64_t lo = 1; lo <= 12; ++lo) {
      // Objects of one to twelve records, over several dkeys and akeys.
      for (std::uint64_t r = 0; r < lo; ++r) {
        out.push_back({c, makeOid(ObjClass::S1, lo),
                       dkeys[(r + lo) % dkeys.size()],
                       akeys[(r / dkeys.size() + c) % akeys.size()],
                       c * 1000 + lo * 20 + r});
      }
    }
  }
  return out;
}

void put(TargetStore& s, const Planned& r) {
  switch (r.seed % 3) {
    case 0:
      s.valuePut(r.c, r.o, r.dkey, r.akey, patternPayload(r.seed % 40, r.seed));
      break;
    case 1:
      s.extentWrite(r.c, r.o, r.dkey, r.akey, r.seed % 7,
                    Payload::synthetic(4096, r.seed));
      break;
    default:
      s.extentWrite(r.c, r.o, r.dkey, r.akey, 0, patternPayload(64, r.seed));
      s.extentWrite(r.c, r.o, r.dkey, r.akey, 200,
                    Payload::synthetic(100, r.seed));
      break;
  }
}

/// Gives `s` two objects that exist without records.
void addRecordlessObjects(TargetStore& s) {
  for (ContId c = 1; c <= 2; ++c) {
    const ObjectId o = makeOid(ObjClass::S1, 100 + c);
    s.valuePut(c, o, "d", "v", Payload::fromString("x"));
    ASSERT_TRUE(s.valueRemove(c, o, "d", "v"));
  }
}

TEST(VosIndex, OutputsDoNotDependOnTableLayoutOrHeadRecords) {
  const std::vector<Planned> plan = plannedRecords();
  // Three stores reach the same records: in plan order, in reverse order
  // (every object gets another head record, and every record another
  // slot), and in plan order with heads, dkeys and whole objects removed
  // and put back in a shuffled order, next to a container that is then
  // destroyed.
  TargetStore forward, backward, churned;
  addRecordlessObjects(forward);
  for (const Planned& r : plan) put(forward, r);
  for (auto it = plan.rbegin(); it != plan.rend(); ++it) put(backward, *it);
  addRecordlessObjects(backward);

  for (const Planned& r : plan) {
    put(churned, r);
    put(churned, {3, r.o, r.dkey, r.akey, r.seed});
  }
  std::vector<Planned> removed;
  std::vector<std::pair<ContId, ObjectId>> seen;
  for (const Planned& r : plan) {
    const std::pair<ContId, ObjectId> object{r.c, r.o};
    const bool first = std::find(seen.begin(), seen.end(), object) == seen.end();
    if (first) seen.push_back(object);
    const std::uint64_t lo = r.o.lo;
    if (lo % 4 == 0) continue;  // punched whole below
    if (first) {
      // The object's head record.
      ASSERT_TRUE(churned.valueRemove(r.c, r.o, r.dkey, r.akey));
      removed.push_back(r);
    } else if (r.dkey == u64Dkey(7) && lo % 2 == 1) {
      churned.punchDkey(r.c, r.o, r.dkey);  // may already be gone
      removed.push_back(r);
    }
  }
  for (const auto& [c, o] : seen) {
    if (o.lo % 4 != 0) continue;
    ASSERT_TRUE(churned.punchObject(c, o));
    for (const Planned& r : plan) {
      if (r.c == c && r.o == o) removed.push_back(r);
    }
  }
  addRecordlessObjects(churned);
  sim::Rng rng(5);
  std::shuffle(removed.begin(), removed.end(), rng);
  for (const Planned& r : removed) put(churned, r);
  churned.destroyContainer(3);

  const auto objects = forward.listObjects();
  ASSERT_EQ(objects.size(), 26u);
  EXPECT_TRUE(std::is_sorted(objects.begin(), objects.end() - 2));
  for (const TargetStore* s : {&backward, &churned}) {
    EXPECT_EQ(s->listObjects(), objects);  // in order, not as a set
    EXPECT_EQ(s->objectCount(), forward.objectCount());
    EXPECT_EQ(s->bytesStored(), forward.bytesStored());
    for (ContId c = 1; c <= 3; ++c) {
      for (std::uint64_t lo = 1; lo <= 103; ++lo) {
        const ObjectId o = makeOid(ObjClass::S1, lo);
        EXPECT_EQ(s->objectExists(c, o), forward.objectExists(c, o));
        const auto dkeys = forward.listDkeys(c, o);
        EXPECT_EQ(s->listDkeys(c, o), dkeys);
        for (const std::string& d : dkeys) {
          EXPECT_EQ(s->listAkeys(c, o, d), forward.listAkeys(c, o, d));
        }
        EXPECT_EQ(records(*s, c, o), records(forward, c, o));
      }
    }
    for (const Planned& r : plan) {
      std::vector<std::pair<std::uint64_t, std::string>> got, want;
      for (const auto& [off, p] : s->extents(r.c, r.o, r.dkey, r.akey)) {
        got.emplace_back(off, facts(p));
      }
      for (const auto& [off, p] : forward.extents(r.c, r.o, r.dkey, r.akey)) {
        want.emplace_back(off, facts(p));
      }
      EXPECT_EQ(got, want);
    }
  }
}

TEST(VosIndex, TablesPastTwoToTheSixteenSlotsKeepEveryRecord) {
  // 60,000 records take 131,072 slots. Past 2^16 slots a fingerprint no
  // longer holds an entry's home slot, so growth and backward shifts
  // rehash the record's key instead.
  constexpr std::uint64_t kRecords = 60'000;
  constexpr std::uint64_t kObjects = 7'000;  // the first 7,000 are heads
  TargetStore store(/*retain_data=*/false);
  const auto oid = [](std::uint64_t i) {
    return makeOid(ObjClass::SX, i % kObjects + 1);
  };
  const auto dkey = [](std::uint64_t i) { return u64Dkey(i / kObjects); };
  for (std::uint64_t i = 0; i < kRecords; ++i) {
    store.extentWrite(1, oid(i), dkey(i), "0", 0,
                      Payload::synthetic(100 + i % 3, i));
  }
  // Every third record goes, heads among them.
  std::uint64_t kept_bytes = 0;
  for (std::uint64_t i = 0; i < kRecords; ++i) {
    if (i % 3 == 0) {
      ASSERT_TRUE(store.valueRemove(1, oid(i), dkey(i), "0"));
    } else {
      kept_bytes += 100 + i % 3;
    }
  }
  std::uint64_t wrong = 0;
  for (std::uint64_t i = 0; i < kRecords; ++i) {
    const std::uint64_t want = i % 3 == 0 ? 0 : 100 + i % 3;
    if (store.extentEnd(1, oid(i), dkey(i), "0") != want) ++wrong;
  }
  EXPECT_EQ(wrong, 0u);
  EXPECT_EQ(store.bytesStored(), kept_bytes);
  EXPECT_EQ(store.objectCount(), kObjects);
  // Object 1 held records 0, 7000, ..., 56000; those of i % 3 != 0 stay.
  std::vector<std::string> want_dkeys;
  for (std::uint64_t i = 0; i < kRecords; i += kObjects) {
    if (i % 3 != 0) want_dkeys.push_back(dkey(i));
  }
  EXPECT_EQ(store.listDkeys(1, oid(0)), want_dkeys);
  // Punching every other object leaves the rest reachable.
  for (std::uint64_t o = 0; o < kObjects; o += 2) {
    ASSERT_TRUE(store.punchObject(1, oid(o)));
  }
  wrong = 0;
  for (std::uint64_t i = 0; i < kRecords; ++i) {
    const bool kept = i % 3 != 0 && (i % kObjects) % 2 == 1;
    if (store.extentEnd(1, oid(i), dkey(i), "0") != (kept ? 100 + i % 3 : 0)) {
      ++wrong;
    }
  }
  EXPECT_EQ(wrong, 0u);
  EXPECT_EQ(store.objectCount(), kObjects / 2);
  EXPECT_EQ(store.listObjects().size(), kObjects / 2);
}

// --- memory -------------------------------------------------------------

TEST(VosMemory, SizeOnlyExtentRecordsStayCompact) {
  // ior_bulk's shape on one target: 300 size-only 1 MiB extents over 180
  // objects, chunk dkeys and akey "0".
  constexpr std::uint64_t kRecords = 300;
  constexpr std::uint64_t kObjects = 180;
  TargetStore store(/*retain_data=*/false);
  const long long heap0 = static_cast<long long>(mallinfo2().uordblks);
  for (std::uint64_t i = 0; i < kRecords; ++i) {
    store.extentWrite(1, makeOid(ObjClass::SX, i % kObjects + 1),
                      u64Dkey(i / kObjects), "0", 0,
                      Payload::synthetic(1 << 20, i));
  }
  const long long grown =
      static_cast<long long>(mallinfo2().uordblks) - heap0;
  EXPECT_LE(grown, static_cast<long long>(kRecords) * 160);
  EXPECT_EQ(store.objectCount(), kObjects);
}

}  // namespace
}  // namespace daosim::vos
