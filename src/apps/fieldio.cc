#include "apps/fieldio.h"

#include <memory>
#include <stdexcept>
#include <string>

namespace daosim::apps {

namespace {

// Index puts per field on the write side (split exclusive/shared) and gets
// per field on the read side; 7 + 3 reproduces the paper's "average of 10
// KV operations per object".
constexpr int kPutsExclusive = 5;
constexpr int kPutsShared = 2;
constexpr int kGetsExclusive = 2;
constexpr int kGetsShared = 1;

std::string indexValue() { return "step=12;param=t;level=500;grid=o1280"; }

}  // namespace

sim::Task<void> FieldIo::process(ProcContext ctx) {
  std::unique_ptr<io::Backend> backend =
      io::makeBackend(api_, env_, ctx.node,
                      spmdClientId(env_.seed, kFieldIoIdDomain, ctx.rank));
  co_await backend->connect();
  if (!backend->caps().native_index) {
    throw std::invalid_argument("fieldio: backend '" + api_ +
                                "' has no native key-value index");
  }

  io::IndexSpec own_spec;
  own_spec.name = "fieldio.own";
  own_spec.oclass = cfg_.kv_oclass;
  std::unique_ptr<io::Index> own_index =
      co_await backend->openIndex(own_spec);
  io::IndexSpec shared_spec;
  shared_spec.name = "fieldio.shared";
  shared_spec.shared = true;
  shared_spec.oclass = cfg_.kv_oclass;
  std::unique_ptr<io::Index> shared_index =
      co_await backend->openIndex(shared_spec);

  co_await ctx.barrier->arriveAndWait();

  // --- write phase ------------------------------------------------------
  for (std::uint64_t f = 0; f < cfg_.fields; ++f) {
    const sim::Time t0 = ctx.sim->now();
    // Field I/O creates the object (registering attributes) per field.
    io::OpenSpec spec;
    spec.name = "f" + std::to_string(f);
    spec.chunk_size = cfg_.field_size;
    spec.oclass = cfg_.array_oclass;
    std::unique_ptr<io::Object> obj = co_await backend->open(spec);
    co_await obj->write(
        0, vos::Payload::synthetic(
               cfg_.field_size,
               sim::hashCombine(static_cast<std::uint64_t>(ctx.rank), f)));
    // Index entries: process-exclusive and shared.
    const std::string key =
        "r" + std::to_string(ctx.rank) + ".f" + std::to_string(f);
    for (int k = 0; k < kPutsExclusive; ++k) {
      co_await own_index->put(key + ".k" + std::to_string(k),
                              vos::Payload::fromString(indexValue()));
    }
    for (int k = 0; k < kPutsShared; ++k) {
      co_await shared_index->put(key + ".s" + std::to_string(k),
                                 vos::Payload::fromString(indexValue()));
    }
    ctx.record(kWrite, cfg_.field_size, t0);
  }

  co_await ctx.barrier->arriveAndWait();

  // --- read phase ---------------------------------------------------------
  for (std::uint64_t f = 0; f < cfg_.fields; ++f) {
    const sim::Time t0 = ctx.sim->now();
    const std::string key =
        "r" + std::to_string(ctx.rank) + ".f" + std::to_string(f);
    for (int k = 0; k < kGetsExclusive; ++k) {
      (void)co_await own_index->get(key + ".k" + std::to_string(k));
    }
    for (int k = 0; k < kGetsShared; ++k) {
      (void)co_await shared_index->get(key + ".s" + std::to_string(k));
    }
    // Reopen the field with a metadata fetch, then probe the size before
    // every read: Field I/O does not implement the size-check-avoidance
    // optimization fdb-hammer has.
    io::OpenSpec spec;
    spec.name = "f" + std::to_string(f);
    spec.create = false;
    std::unique_ptr<io::Object> obj = co_await backend->open(spec);
    const std::uint64_t size = co_await obj->size();
    (void)co_await obj->read(0, size);
    ctx.record(kRead, size, t0);
  }
}

}  // namespace daosim::apps
