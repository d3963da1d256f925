#include "vos/target_store.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <tuple>

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

const TargetStore::Value* TargetStore::find(ContId c, const ObjectId& o,
                                            std::string_view dkey,
                                            std::string_view akey) const {
  const auto it = records_.find(Probe{c, o, dkey, akey});
  return it == records_.end() ? nullptr : &it->second;
}

TargetStore::Value& TargetStore::slot(ContId c, const ObjectId& o,
                                      std::string_view dkey,
                                      std::string_view akey) {
  const Probe key{c, o, dkey, akey};
  auto it = records_.lower_bound(key);
  if (it != records_.end() && !records_.key_comp()(key, it->first)) {
    bytes_stored_ -= valueBytes(it->second);
    return it->second;
  }
  // Records of (c, o), if any, sit right before or from `it`.
  const bool known =
      (it != records_.end() && in(it, c, o)) ||
      (it != records_.begin() && in(std::prev(it), c, o)) ||
      (!empty_objects_.empty() && empty_objects_.erase({c, o}) > 0);
  if (!known) ++objects_;
  return records_
      .emplace_hint(it, std::piecewise_construct,
                    std::forward_as_tuple(c, o, dkey, akey),
                    std::forward_as_tuple())
      ->second;
}

template <typename Match>
std::size_t TargetStore::eraseRun(Index::const_iterator from, Match match) {
  std::size_t objects = 0;
  auto to = from;
  for (; to != records_.end() && match(to->first); ++to) {
    if (to == from || !in(std::prev(to), to->first.cont, to->first.oid)) {
      ++objects;
    }
    bytes_stored_ -= valueBytes(to->second);
  }
  records_.erase(from, to);
  return objects;
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
  const Value* v = find(c, o, dkey, akey);
  return v == nullptr ? nullptr : std::get_if<Payload>(v);
}

bool TargetStore::valueRemove(ContId c, const ObjectId& o,
                              std::string_view dkey, std::string_view akey) {
  const auto it = records_.find(Probe{c, o, dkey, akey});
  if (it == records_.end()) return false;
  bytes_stored_ -= valueBytes(it->second);
  records_.erase(it);
  if (!holdsRecords(c, o)) empty_objects_.emplace(c, o);
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
  if (const Value* v = find(c, o, dkey, akey)) {
    if (const auto* e = std::get_if<Extent>(v)) {
      return readExtent(*e, offset, length);
    }
    if (const auto* tree = std::get_if<std::unique_ptr<ExtentTree>>(v)) {
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
  const Value* v = find(c, o, dkey, akey);
  if (v == nullptr) return 0;
  if (const auto* e = std::get_if<Extent>(v)) return e->offset + e->size;
  if (const auto* tree = std::get_if<std::unique_ptr<ExtentTree>>(v)) {
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
  const Value* v = find(c, o, dkey, akey);
  if (v == nullptr) return {};
  return extentsOf(*v);
}

std::vector<std::string> TargetStore::listDkeys(ContId c,
                                                const ObjectId& o) const {
  std::vector<std::string> out;
  for (auto it = first(c, o); it != records_.end() && in(it, c, o); ++it) {
    const std::string_view dkey = it->first.dkey.view();
    if (out.empty() || out.back() != dkey) out.emplace_back(dkey);
  }
  return out;
}

std::vector<std::string> TargetStore::listAkeys(ContId c, const ObjectId& o,
                                                std::string_view dkey) const {
  std::vector<std::string> out;
  for (auto it = records_.lower_bound(Probe{c, o, dkey, {}});
       it != records_.end() && in(it, c, o) && it->first.dkey.view() == dkey;
       ++it) {
    out.emplace_back(it->first.akey.view());
  }
  return out;
}

bool TargetStore::objectExists(ContId c, const ObjectId& o) const {
  return holdsRecords(c, o) || empty_objects_.contains({c, o});
}

bool TargetStore::punchObject(ContId c, const ObjectId& o) {
  const std::size_t punched =
      eraseRun(first(c, o),
               [&](const RecordKey& k) { return k.cont == c && k.oid == o; }) +
      empty_objects_.erase({c, o});
  objects_ -= punched;
  return punched > 0;
}

bool TargetStore::punchDkey(ContId c, const ObjectId& o,
                            std::string_view dkey) {
  const auto in_dkey = [&](const RecordKey& k) {
    return k.cont == c && k.oid == o && k.dkey.view() == dkey;
  };
  if (eraseRun(records_.lower_bound(Probe{c, o, dkey, {}}), in_dkey) == 0) {
    return false;
  }
  if (!holdsRecords(c, o)) empty_objects_.emplace(c, o);
  return true;
}

void TargetStore::destroyContainer(ContId c) {
  objects_ -= eraseRun(records_.lower_bound(Probe{c, ObjectId{}, {}, {}}),
                       [&](const RecordKey& k) { return k.cont == c; });
  objects_ -= std::erase_if(
      empty_objects_, [&](const auto& object) { return object.first == c; });
}

std::vector<std::pair<ContId, ObjectId>> TargetStore::listObjects() const {
  std::vector<std::pair<ContId, ObjectId>> out;
  for (const auto& [k, _] : records_) {
    if (out.empty() || out.back() != std::pair(k.cont, k.oid)) {
      out.emplace_back(k.cont, k.oid);
    }
  }
  out.insert(out.end(), empty_objects_.begin(), empty_objects_.end());
  return out;
}

}  // namespace daosim::vos
