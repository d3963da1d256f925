// Value payloads stored by the simulated object stores.
//
// A Payload is either *real* (owns bytes, shared + sliced without copying)
// or *synthetic* (size + tag only). Real payloads make every store fully
// functional — tests write data and read it back. Synthetic payloads let the
// benchmark harness run paper-scale workloads (terabytes of simulated I/O)
// without materializing the bytes; all timing-relevant metadata (sizes,
// extents, keys) is kept either way.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace daosim::vos {

class Payload {
 public:
  /// Empty payload of size zero.
  Payload() = default;

  static Payload fromBytes(std::vector<std::byte> bytes) {
    Payload p;
    p.size_ = bytes.size();
    p.data_ = std::make_shared<const std::vector<std::byte>>(std::move(bytes));
    return p;
  }

  static Payload fromString(std::string_view s) {
    std::vector<std::byte> b(s.size());
    if (!s.empty()) std::memcpy(b.data(), s.data(), s.size());
    return fromBytes(std::move(b));
  }

  /// Size-only payload; `tag` identifies the logical content for cheap
  /// equality checks in benchmarks.
  static Payload synthetic(std::uint64_t size, std::uint64_t tag = 0) {
    Payload p;
    p.size_ = size;
    p.tag_ = tag;
    return p;
  }

  std::uint64_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  bool hasBytes() const noexcept { return data_ != nullptr; }
  std::uint64_t tag() const noexcept { return tag_; }

  std::span<const std::byte> bytes() const noexcept {
    if (!data_) return {};
    return std::span<const std::byte>(data_->data() + off_, size_);
  }

  std::string toString() const {
    auto b = bytes();
    return std::string(reinterpret_cast<const char*>(b.data()), b.size());
  }

  /// Zero-copy sub-range view. Synthetic payloads stay synthetic (the tag is
  /// preserved, which is fine: slices of synthetic data are never verified).
  Payload slice(std::uint64_t off, std::uint64_t len) const {
    Payload p;
    if (off > size_) off = size_;
    if (len > size_ - off) len = size_ - off;
    p.size_ = len;
    p.tag_ = tag_;
    if (data_) {
      p.data_ = data_;
      p.off_ = off_ + off;
    }
    return p;
  }

  /// Drops the bytes, keeping size and tag (used when a pool is configured
  /// not to retain data).
  Payload stripBytes() const {
    Payload p = synthetic(size_, tag_);
    return p;
  }

  friend bool operator==(const Payload& a, const Payload& b) {
    if (a.size_ != b.size_) return false;
    if (a.hasBytes() && b.hasBytes()) {
      auto sa = a.bytes();
      auto sb = b.bytes();
      return std::equal(sa.begin(), sa.end(), sb.begin());
    }
    return a.tag_ == b.tag_;
  }

 private:
  std::uint64_t size_ = 0;
  std::uint64_t tag_ = 0;
  // Real payloads view bytes [off_, off_ + size_) of data_.
  std::shared_ptr<const std::vector<std::byte>> data_;
  std::size_t off_ = 0;
};

// Payloads sit in every VOS record, RPC frame and rebuild copy.
static_assert(sizeof(Payload) == 40);

/// Helper: a payload filled with a deterministic byte pattern derived from
/// `seed` (used by tests and examples to generate verifiable data).
Payload patternPayload(std::uint64_t size, std::uint64_t seed);

/// The parts joined in order (the pieces of a fan-out read). Real iff every
/// part carries bytes; a single part is returned as is.
Payload concat(std::vector<Payload> parts);

/// XOR of payloads, zero-padded to `length`. Real iff every input carries
/// bytes (used for erasure-code parity and reconstruction).
Payload xorPayloads(const std::vector<Payload>& parts, std::uint64_t length);

}  // namespace daosim::vos
