#include "vos/payload.h"

#include "sim/rng.h"

namespace daosim::vos {

Payload patternPayload(std::uint64_t size, std::uint64_t seed) {
  std::vector<std::byte> data(size);
  std::uint64_t x = seed;
  std::size_t i = 0;
  while (i + 8 <= data.size()) {
    x = sim::mix64(x);
    std::memcpy(data.data() + i, &x, 8);
    i += 8;
  }
  if (i < data.size()) {
    x = sim::mix64(x);
    std::memcpy(data.data() + i, &x, data.size() - i);
  }
  return Payload::fromBytes(std::move(data));
}

Payload concat(std::vector<Payload> parts) {
  if (parts.size() == 1) return std::move(parts.front());
  std::uint64_t total = 0;
  bool all_real = true;
  for (const auto& p : parts) {
    total += p.size();
    if (!p.hasBytes()) all_real = false;
  }
  if (!all_real) return Payload::synthetic(total);
  std::vector<std::byte> out;
  out.reserve(total);
  for (const auto& p : parts) {
    auto b = p.bytes();
    out.insert(out.end(), b.begin(), b.end());
  }
  return Payload::fromBytes(std::move(out));
}

Payload xorPayloads(const std::vector<Payload>& parts,
                    std::uint64_t length) {
  bool all_real = !parts.empty();
  for (const auto& p : parts) {
    if (!p.hasBytes()) all_real = false;
  }
  if (!all_real) return Payload::synthetic(length);
  std::vector<std::byte> out(length);  // zeroed
  for (const auto& p : parts) {
    auto b = p.bytes();
    for (std::size_t i = 0; i < b.size() && i < out.size(); ++i) {
      out[i] ^= b[i];
    }
  }
  return Payload::fromBytes(std::move(out));
}

}  // namespace daosim::vos
