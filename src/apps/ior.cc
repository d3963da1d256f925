#include "apps/ior.h"

#include <memory>
#include <string>

#include "io/submit_queue.h"

namespace daosim::apps {

namespace {

vos::Payload block(std::uint64_t size, int rank, std::uint64_t op) {
  return vos::Payload::synthetic(
      size, sim::hashCombine(static_cast<std::uint64_t>(rank), op));
}

/// One timed transfer, spawnable as its own process for queue_depth > 1.
sim::Task<void> timedOp(io::Object* obj, ProcContext ctx, Phase phase,
                        std::uint64_t offset, std::uint64_t len,
                        std::uint64_t opno) {
  const sim::Time t0 = ctx.sim->now();
  if (phase == kWrite) {
    co_await obj->write(offset, block(len, ctx.rank, opno));
  } else {
    (void)co_await obj->read(offset, len);
  }
  ctx.record(phase, len, t0);
}

}  // namespace

sim::Task<void> Ior::process(ProcContext ctx) {
  std::unique_ptr<io::Backend> backend = io::makeBackend(
      api_, env_, ctx.node, spmdClientId(env_.seed, kIorIdDomain, ctx.rank));
  co_await backend->connect();

  // Single-shared-file needs a well-known shared identity; backends
  // without one (the POSIX/HDF5/RADOS paths) run file-per-process, as the
  // paper's runs on those interfaces do.
  const bool shared = cfg_.shared_file && backend->caps().shared_object;

  std::unique_ptr<io::Object> obj;
  std::uint64_t base = 0;  // this rank's first byte within the object
  io::OpenSpec spec;
  spec.oclass = cfg_.oclass;
  if (shared) {
    spec.name = "ior.shared";
    spec.shared = true;
    if (ctx.rank == 0) {
      spec.create = true;
      obj = co_await backend->open(spec);
    }
    co_await ctx.barrier->arriveAndWait();  // create-before-open, as in IOR
    if (ctx.rank != 0) {
      // The creating rank broadcast the attributes: open without a
      // metadata fetch.
      spec.create = false;
      spec.registered = false;
      obj = co_await backend->open(spec);
    }
    base = static_cast<std::uint64_t>(ctx.rank) * cfg_.ops * cfg_.transfer;
  } else {
    spec.name = "ior." + std::to_string(ctx.rank);
    spec.create = true;
    obj = co_await backend->open(spec);
  }

  co_await ctx.barrier->arriveAndWait();
  if (cfg_.write_phase) {
    co_await runPhase(obj.get(), ctx, kWrite, base);
  }
  co_await ctx.barrier->arriveAndWait();
  if (cfg_.read_phase) {
    co_await runPhase(obj.get(), ctx, kRead, base);
  }
  co_await obj->close();
}

sim::Task<void> Ior::runPhase(io::Object* obj, ProcContext ctx, Phase phase,
                              std::uint64_t base) {
  if (cfg_.queue_depth <= 1) {
    // Sequential issue: no spawning, identical to the pre-io:: benchmarks.
    for (std::uint64_t i = 0; i < cfg_.ops; ++i) {
      const sim::Time t0 = ctx.sim->now();
      if (phase == kWrite) {
        co_await obj->write(base + i * cfg_.transfer,
                            block(cfg_.transfer, ctx.rank, i));
      } else {
        (void)co_await obj->read(base + i * cfg_.transfer, cfg_.transfer);
      }
      ctx.record(phase, cfg_.transfer, t0);
    }
    co_return;
  }
  io::SubmitQueue q(*ctx.sim, static_cast<std::size_t>(cfg_.queue_depth));
  for (std::uint64_t i = 0; i < cfg_.ops; ++i) {
    co_await q.submit(
        timedOp(obj, ctx, phase, base + i * cfg_.transfer, cfg_.transfer, i));
  }
  co_await q.waitAll();
}

}  // namespace daosim::apps
