#include "vos/target_store.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "sim/rng.h"

namespace daosim::vos {

std::string u64Dkey(std::uint64_t v) {
  std::string s(8, '\0');
  for (int i = 7; i >= 0; --i) {  // big-endian so keys sort numerically
    s[static_cast<std::size_t>(i)] = static_cast<char>(v & 0xff);
    v >>= 8;
  }
  return s;
}

std::uint64_t dkeyU64(std::string_view dkey) {
  std::uint64_t v = 0;
  for (char c : dkey.substr(0, 8)) {
    v = (v << 8) | static_cast<unsigned char>(c);
  }
  return v;
}

TargetStore::Key::Key(std::string_view s) {
  if (s.size() <= kInline) {
    if (!s.empty()) std::memcpy(raw_, s.data(), s.size());
    raw_[kInline] = static_cast<unsigned char>(s.size());
    return;
  }
  if (s.size() > std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error("vos: key longer than 4 GiB");
  }
  char* block = new char[s.size()];
  std::memcpy(block, s.data(), s.size());
  const auto n = static_cast<std::uint32_t>(s.size());
  std::memcpy(raw_, &block, sizeof block);
  std::memcpy(raw_ + sizeof block, &n, sizeof n);
  raw_[kInline] = kHeap;
}

TargetStore::Key::~Key() {
  if (raw_[kInline] == kHeap) delete[] heapBytes();
}

TargetStore::~TargetStore() {
  for (std::size_t i = 0; i < capacity(); ++i) delete recordOf(slots_[i]);
}

std::uint64_t TargetStore::objectHash(ContId c, const ObjectId& o) noexcept {
  return sim::hashCombine(sim::hashCombine(c, o.hi), o.lo);
}

std::uint64_t TargetStore::recordHash(std::uint64_t object_hash,
                                      std::string_view dkey,
                                      std::string_view akey) noexcept {
  const std::hash<std::string_view> bytes;
  return sim::hashCombine(sim::hashCombine(object_hash, bytes(dkey)),
                          bytes(akey));
}

std::size_t TargetStore::home(std::uint64_t slot) const noexcept {
  if (mask_ <= kFingerprint) return (slot >> kPointerBits) & mask_;
  // Past 2^16 slots, rehash the key the record is filed under.
  const Record& r = *recordOf(slot);
  const std::uint64_t h = objectHash(r.key.cont, r.key.oid);
  if (r.prev == nullptr) return h & mask_;
  return recordHash(h, r.key.dkey.view(), r.key.akey.view()) & mask_;
}

std::size_t TargetStore::locate(const Record* r, std::uint64_t h) const {
  return probe(h, [r](const Record& x) { return &x == r; });
}

void TargetStore::file(Record* r, std::uint64_t h) {
  if ((filed_ + 1) * 8 > capacity() * 7) grow();
  std::size_t i = h & mask_;
  while (slots_[i] != 0) i = (i + 1) & mask_;
  slots_[i] = ((h & kFingerprint) << kPointerBits) |
              reinterpret_cast<std::uintptr_t>(r);
  ++filed_;
}

void TargetStore::unfile(std::size_t i) {
  // Backward shift: an entry later in the run moves into the hole unless
  // its home lies cyclically in (hole, entry].
  for (std::size_t j = (i + 1) & mask_; slots_[j] != 0; j = (j + 1) & mask_) {
    if (((j - home(slots_[j])) & mask_) >= ((j - i) & mask_)) {
      slots_[i] = slots_[j];
      i = j;
    }
  }
  slots_[i] = 0;
  --filed_;
}

void TargetStore::grow() {
  const std::size_t old_capacity = capacity();
  auto old = std::move(slots_);
  const std::size_t n = old_capacity == 0 ? kMinSlots : 2 * old_capacity;
  slots_ = std::make_unique<std::uint64_t[]>(n);
  mask_ = n - 1;
  for (std::size_t k = 0; k < old_capacity; ++k) {
    if (old[k] == 0) continue;
    std::size_t i = home(old[k]);
    while (slots_[i] != 0) i = (i + 1) & mask_;
    slots_[i] = old[k];
  }
}

TargetStore::Record* TargetStore::head(ContId c, const ObjectId& o) const {
  const std::size_t i = probe(objectHash(c, o), [&](const Record& r) {
    return r.prev == nullptr && r.key.cont == c && r.key.oid == o;
  });
  return i == kNone ? nullptr : recordOf(slots_[i]);
}

TargetStore::Record* TargetStore::find(ContId c, const ObjectId& o,
                                       std::string_view dkey,
                                       std::string_view akey,
                                       Record** first) const {
  const std::uint64_t h = objectHash(c, o);
  const std::size_t i =
      probe(recordHash(h, dkey, akey), [&](const Record& r) {
        return r.key.cont == c && r.key.oid == o && r.key.dkey.view() == dkey &&
               r.key.akey.view() == akey;
      });
  if (i != kNone) return recordOf(slots_[i]);
  Record* hd = head(c, o);
  if (first != nullptr) *first = hd;
  return hd != nullptr && hd->key.dkey.view() == dkey &&
                 hd->key.akey.view() == akey
             ? hd
             : nullptr;
}

TargetStore::Value& TargetStore::slot(ContId c, const ObjectId& o,
                                      std::string_view dkey,
                                      std::string_view akey) {
  Record* first = nullptr;
  if (Record* r = find(c, o, dkey, akey, &first)) {
    bytes_stored_ -= valueBytes(r->value);
    return r->value;
  }
  auto* r = new Record(c, o, dkey, akey);
  if (reinterpret_cast<std::uintptr_t>(r) >> kPointerBits != 0) {
    delete r;
    throw std::runtime_error("vos: a record address uses its top 16 bits");
  }
  const std::uint64_t h = objectHash(c, o);
  if (first != nullptr) {
    r->prev = first;
    r->next = first->next;
    if (r->next != nullptr) r->next->prev = r;
    first->next = r;
    file(r, recordHash(h, dkey, akey));
  } else {
    file(r, h);
    if (empty_objects_.empty() || empty_objects_.erase({c, o}) == 0) {
      ++objects_;
    }
  }
  return r->value;
}

void TargetStore::erase(Record* r) {
  bytes_stored_ -= valueBytes(r->value);
  const std::uint64_t h = objectHash(r->key.cont, r->key.oid);
  if (r->prev != nullptr) {
    unfile(locate(r, recordHash(h, r->key.dkey.view(), r->key.akey.view())));
    r->prev->next = r->next;
    if (r->next != nullptr) r->next->prev = r->prev;
  } else if (Record* next = r->next) {
    // The next record becomes the head: it takes over r's slot, whose
    // fingerprint is the object's, and gives up its own.
    unfile(locate(next, recordHash(h, next->key.dkey.view(),
                                   next->key.akey.view())));
    std::uint64_t& s = slots_[locate(r, h)];
    s = (s & ~kPointerMask) | reinterpret_cast<std::uintptr_t>(next);
    next->prev = nullptr;
  } else {
    unfile(locate(r, h));
  }
  delete r;
}

void TargetStore::erase(const std::vector<Record*>& doomed) {
  // Last first: a doomed head goes after the rest of its chain, so it
  // promotes a survivor at most once.
  for (auto it = doomed.rbegin(); it != doomed.rend(); ++it) erase(*it);
}

void TargetStore::punch(ContId c, const ObjectId& o,
                        const std::vector<Record*>& doomed) {
  if (doomed.empty()) return;
  erase(doomed);
  if (head(c, o) == nullptr) empty_objects_.emplace(c, o);
}

std::vector<TargetStore::Record*> TargetStore::chain(ContId c,
                                                     const ObjectId& o) const {
  std::vector<Record*> out;
  for (Record* r = head(c, o); r != nullptr; r = r->next) out.push_back(r);
  return out;
}

std::vector<TargetStore::Record*> TargetStore::sorted(
    ContId c, const ObjectId& o) const {
  std::vector<Record*> out = chain(c, o);
  std::sort(out.begin(), out.end(), [](const Record* a, const Record* b) {
    const int d = a->key.dkey.view().compare(b->key.dkey.view());
    return d != 0 ? d < 0 : a->key.akey.view() < b->key.akey.view();
  });
  return out;
}

ExtentTree& TargetStore::spill(Value& v) {
  if (auto* tree = std::get_if<std::unique_ptr<ExtentTree>>(&v)) {
    return **tree;
  }
  auto tree = std::make_unique<ExtentTree>();
  if (const auto* e = std::get_if<Extent>(&v); e != nullptr && e->size > 0) {
    tree->write(e->offset, Payload::synthetic(e->size, e->tag));
  }
  ExtentTree& out = *tree;
  v = std::move(tree);
  return out;
}

ExtentTree::ReadResult TargetStore::readExtent(const Extent& e,
                                               std::uint64_t offset,
                                               std::uint64_t length) {
  // ExtentTree::read over a tree holding just `e`.
  ExtentTree::ReadResult r;
  if (length == 0) return r;
  const std::uint64_t lo = std::max(offset, e.offset);
  const std::uint64_t hi = std::min(offset + length, e.offset + e.size);
  if (lo < hi) {
    r.bytes_found = hi - lo;
    r.data = Payload::synthetic(length);
  } else {
    r.data = Payload::fromBytes(std::vector<std::byte>(length));  // a hole
  }
  return r;
}

std::uint64_t TargetStore::valueBytes(const Value& v) noexcept {
  if (const auto* e = std::get_if<Extent>(&v)) return e->size;
  if (const auto* p = std::get_if<Payload>(&v)) return p->size();
  return (*std::get_if<std::unique_ptr<ExtentTree>>(&v))->bytesStored();
}

std::vector<std::pair<std::uint64_t, Payload>> TargetStore::extentsOf(
    const Value& v) {
  std::vector<std::pair<std::uint64_t, Payload>> out;
  if (const auto* e = std::get_if<Extent>(&v); e != nullptr && e->size > 0) {
    out.emplace_back(e->offset, Payload::synthetic(e->size, e->tag));
  } else if (const auto* tree = std::get_if<std::unique_ptr<ExtentTree>>(&v)) {
    out.assign((*tree)->extents().begin(), (*tree)->extents().end());
  }
  return out;
}

void TargetStore::valuePut(ContId c, const ObjectId& o, std::string_view dkey,
                           std::string_view akey, Payload value) {
  ++value_puts_;
  Value& v = slot(c, o, dkey, akey);
  v = std::move(value);  // KV records always retain bytes
  bytes_stored_ += valueBytes(v);
}

const Payload* TargetStore::valueGet(ContId c, const ObjectId& o,
                                     std::string_view dkey,
                                     std::string_view akey) const {
  ++value_gets_;
  const Record* r = find(c, o, dkey, akey);
  return r == nullptr ? nullptr : std::get_if<Payload>(&r->value);
}

bool TargetStore::valueRemove(ContId c, const ObjectId& o,
                              std::string_view dkey, std::string_view akey) {
  Record* r = find(c, o, dkey, akey);
  if (r == nullptr) return false;
  punch(c, o, {r});
  return true;
}

void TargetStore::extentWrite(ContId c, const ObjectId& o,
                              std::string_view dkey, std::string_view akey,
                              std::uint64_t offset, Payload payload) {
  ++extent_writes_;
  payload = ingest(std::move(payload));
  Value& v = slot(c, o, dkey, akey);
  if (std::holds_alternative<Payload>(v)) v = Extent{};  // replaces a value
  auto* e = std::get_if<Extent>(&v);
  const std::uint64_t end = offset + payload.size();
  if (payload.empty()) {
    // An empty write stores nothing but leaves the record in place.
  } else if (e != nullptr && !payload.hasBytes() &&
             (e->size == 0 ||
              (offset <= e->offset && end >= e->offset + e->size))) {
    // A size-only extent that fills an empty record or covers the one
    // inline extent replaces it: the tree would hold just this one too.
    *e = Extent{offset, payload.size(), payload.tag()};
  } else {
    spill(v).write(offset, std::move(payload));
  }
  bytes_stored_ += valueBytes(v);
}

ExtentTree::ReadResult TargetStore::extentRead(ContId c, const ObjectId& o,
                                               std::string_view dkey,
                                               std::string_view akey,
                                               std::uint64_t offset,
                                               std::uint64_t length) const {
  ++extent_reads_;
  if (const Record* r = find(c, o, dkey, akey)) {
    if (const auto* e = std::get_if<Extent>(&r->value)) {
      return readExtent(*e, offset, length);
    }
    if (const auto* tree =
            std::get_if<std::unique_ptr<ExtentTree>>(&r->value)) {
      return (*tree)->read(offset, length);
    }
  }
  ExtentTree::ReadResult hole;
  hole.data = Payload::synthetic(length);
  hole.bytes_found = 0;
  return hole;
}

std::uint64_t TargetStore::extentEnd(ContId c, const ObjectId& o,
                                     std::string_view dkey,
                                     std::string_view akey) const {
  const Record* r = find(c, o, dkey, akey);
  if (r == nullptr) return 0;
  if (const auto* e = std::get_if<Extent>(&r->value)) {
    return e->offset + e->size;
  }
  if (const auto* tree =
          std::get_if<std::unique_ptr<ExtentTree>>(&r->value)) {
    return (*tree)->end();
  }
  return 0;
}

void TargetStore::extentTruncate(ContId c, const ObjectId& o,
                                 std::string_view dkey, std::string_view akey,
                                 std::uint64_t size) {
  Value& v = slot(c, o, dkey, akey);
  spill(v).truncate(size);
  bytes_stored_ += valueBytes(v);
}

std::vector<std::pair<std::uint64_t, Payload>> TargetStore::extents(
    ContId c, const ObjectId& o, std::string_view dkey,
    std::string_view akey) const {
  const Record* r = find(c, o, dkey, akey);
  if (r == nullptr) return {};
  return extentsOf(r->value);
}

std::vector<std::string> TargetStore::listDkeys(ContId c,
                                                const ObjectId& o) const {
  std::vector<std::string_view> keys;
  for (const Record* r = head(c, o); r != nullptr; r = r->next) {
    keys.push_back(r->key.dkey.view());
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  return std::vector<std::string>(keys.begin(), keys.end());
}

std::vector<std::string> TargetStore::listAkeys(ContId c, const ObjectId& o,
                                                std::string_view dkey) const {
  std::vector<std::string_view> keys;
  for (const Record* r = head(c, o); r != nullptr; r = r->next) {
    if (r->key.dkey.view() == dkey) keys.push_back(r->key.akey.view());
  }
  std::sort(keys.begin(), keys.end());
  return std::vector<std::string>(keys.begin(), keys.end());
}

bool TargetStore::objectExists(ContId c, const ObjectId& o) const {
  return head(c, o) != nullptr || empty_objects_.contains({c, o});
}

bool TargetStore::punchObject(ContId c, const ObjectId& o) {
  const std::vector<Record*> records = chain(c, o);
  erase(records);
  if (records.empty() && empty_objects_.erase({c, o}) == 0) return false;
  --objects_;
  return true;
}

bool TargetStore::punchDkey(ContId c, const ObjectId& o,
                            std::string_view dkey) {
  return punchDkeys(c, o, [dkey](std::string_view d) { return d == dkey; }) >
         0;
}

void TargetStore::destroyContainer(ContId c) {
  std::vector<Record*> heads;
  for (std::size_t i = 0; i < capacity(); ++i) {
    Record* r = recordOf(slots_[i]);
    if (r != nullptr && r->prev == nullptr && r->key.cont == c) {
      heads.push_back(r);
    }
  }
  for (Record* h : heads) erase(chain(c, h->key.oid));
  objects_ -= heads.size();
  objects_ -= std::erase_if(
      empty_objects_, [&](const auto& object) { return object.first == c; });
}

std::vector<std::pair<ContId, ObjectId>> TargetStore::listObjects() const {
  std::vector<std::pair<ContId, ObjectId>> out;
  for (std::size_t i = 0; i < capacity(); ++i) {
    const Record* r = recordOf(slots_[i]);
    if (r != nullptr && r->prev == nullptr) {
      out.emplace_back(r->key.cont, r->key.oid);
    }
  }
  std::sort(out.begin(), out.end());
  out.insert(out.end(), empty_objects_.begin(), empty_objects_.end());
  return out;
}

}  // namespace daosim::vos
