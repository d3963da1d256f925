#include "apps/fdb.h"

#include <memory>
#include <string>

#include "io/submit_queue.h"

namespace daosim::apps {

namespace {

// Index puts and gets per field: the paper's ~10 KV operations per object.
constexpr int kIndexPuts = 7;
constexpr int kIndexGets = 3;
constexpr std::uint64_t kIndexEntryBytes = 256;
// append_log backends: client-side buffer flushed in blocks of this size.
constexpr std::uint64_t kFlushBlock = 32 << 20;

vos::Payload fieldData(std::uint64_t size, int rank, std::uint64_t f) {
  return vos::Payload::synthetic(
      size, sim::hashCombine(static_cast<std::uint64_t>(rank), f));
}

std::string fdbKey(int rank, std::uint64_t f, int k) {
  return "class=od,expver=1,r" + std::to_string(rank) + ",f" +
         std::to_string(f) + ",k" + std::to_string(k);
}

std::string fieldName(int rank, std::uint64_t f) {
  return "fdb.r" + std::to_string(rank) + ".f" + std::to_string(f);
}

}  // namespace

sim::Task<void> Fdb::process(ProcContext ctx) {
  std::unique_ptr<io::Backend> backend = io::makeBackend(
      api_, env_, ctx.node, spmdClientId(env_.seed, kFdbIdDomain, ctx.rank));
  co_await backend->connect();
  const io::Caps& caps = backend->caps();
  if (caps.native_index) {
    co_await runNativeIndex(backend.get(), ctx);
  } else if (caps.append_log) {
    co_await runAppendLog(backend.get(), ctx);
  } else {
    co_await runObjectPerField(backend.get(), ctx);
  }
}

sim::Task<void> Fdb::runNativeIndex(io::Backend* backend, ProcContext ctx) {
  io::IndexSpec index_spec;
  index_spec.name = "fdb.index";
  index_spec.oclass = cfg_.kv_oclass;
  std::unique_ptr<io::Index> index = co_await backend->openIndex(index_spec);

  co_await ctx.barrier->arriveAndWait();

  // --- archive ----------------------------------------------------------
  for (std::uint64_t f = 0; f < cfg_.fields; ++f) {
    const sim::Time t0 = ctx.sim->now();
    // FDB opens arrays with known attributes: no create/metadata RPC.
    io::OpenSpec spec;
    spec.name = fieldName(ctx.rank, f);
    spec.registered = false;
    spec.chunk_size = cfg_.field_size;
    spec.oclass = cfg_.array_oclass;
    std::unique_ptr<io::Object> obj = co_await backend->open(spec);
    if (cfg_.async_index) {
      // Launch the index puts on a submit queue so they overlap the bulk
      // field write, then drain the queue.
      io::SubmitQueue q(*ctx.sim);
      for (int k = 0; k < kIndexPuts; ++k) {
        q.launch(index->put(fdbKey(ctx.rank, f, k),
                            vos::Payload::synthetic(kIndexEntryBytes)));
      }
      co_await obj->write(0, fieldData(cfg_.field_size, ctx.rank, f));
      co_await q.waitAll();
    } else {
      co_await obj->write(0, fieldData(cfg_.field_size, ctx.rank, f));
      for (int k = 0; k < kIndexPuts; ++k) {
        co_await index->put(fdbKey(ctx.rank, f, k),
                            vos::Payload::synthetic(kIndexEntryBytes));
      }
    }
    ctx.record(kWrite, cfg_.field_size, t0);
  }

  co_await ctx.barrier->arriveAndWait();

  // --- retrieve ---------------------------------------------------------
  for (std::uint64_t f = 0; f < cfg_.fields; ++f) {
    const sim::Time t0 = ctx.sim->now();
    for (int k = 0; k < kIndexGets; ++k) {
      (void)co_await index->get(fdbKey(ctx.rank, f, k));
    }
    // The index records field lengths: open with attrs, read, no size probe.
    io::OpenSpec spec;
    spec.name = fieldName(ctx.rank, f);
    spec.create = false;
    spec.registered = false;
    spec.chunk_size = cfg_.field_size;
    spec.oclass = cfg_.array_oclass;
    std::unique_ptr<io::Object> obj = co_await backend->open(spec);
    (void)co_await obj->read(0, cfg_.field_size);
    ctx.record(kRead, cfg_.field_size, t0);
  }
}

sim::Task<void> Fdb::runAppendLog(io::Backend* backend, ProcContext ctx) {
  const std::string data_name = "fdb.data." + std::to_string(ctx.rank);
  const std::string index_name = "fdb.index." + std::to_string(ctx.rank);

  io::OpenSpec create;
  create.append = true;
  create.name = data_name;
  std::unique_ptr<io::Object> data = co_await backend->open(create);
  create.name = index_name;
  std::unique_ptr<io::Object> index = co_await backend->open(create);

  co_await ctx.barrier->arriveAndWait();

  // --- archive: buffer fields client-side, flush in large blocks --------
  std::uint64_t data_off = 0;
  std::uint64_t index_off = 0;
  std::uint64_t buffered = 0;
  std::uint64_t index_buffered = 0;
  for (std::uint64_t f = 0; f < cfg_.fields; ++f) {
    const sim::Time t0 = ctx.sim->now();
    buffered += cfg_.field_size;
    index_buffered += kIndexEntryBytes;
    if (buffered >= kFlushBlock) {
      co_await data->write(data_off, vos::Payload::synthetic(buffered));
      co_await index->write(index_off,
                            vos::Payload::synthetic(index_buffered));
      data_off += buffered;
      index_off += index_buffered;
      buffered = 0;
      index_buffered = 0;
    }
    ctx.record(kWrite, cfg_.field_size, t0);
  }
  if (buffered > 0) {
    co_await data->write(data_off, vos::Payload::synthetic(buffered));
    co_await index->write(index_off, vos::Payload::synthetic(index_buffered));
  }
  co_await data->sync();
  co_await data->close();
  co_await index->close();

  co_await ctx.barrier->arriveAndWait();

  // --- retrieve: open/read/close the index and data files per field ------
  for (std::uint64_t f = 0; f < cfg_.fields; ++f) {
    const sim::Time t0 = ctx.sim->now();
    io::OpenSpec open_spec;
    open_spec.create = false;
    open_spec.name = index_name;
    std::unique_ptr<io::Object> ifile = co_await backend->open(open_spec);
    (void)co_await ifile->read(f * kIndexEntryBytes, kIndexEntryBytes);
    co_await ifile->close();
    open_spec.name = data_name;
    std::unique_ptr<io::Object> dfile = co_await backend->open(open_spec);
    (void)co_await dfile->read(f * cfg_.field_size, cfg_.field_size);
    co_await dfile->close();
    ctx.record(kRead, cfg_.field_size, t0);
  }
}

sim::Task<void> Fdb::runObjectPerField(io::Backend* backend,
                                       ProcContext ctx) {
  // Per-writer index object, updated with one small write per field. On
  // size-capped stores (librados) the index write offset wraps within one
  // object.
  const std::uint64_t cap = backend->caps().max_object_bytes;
  const std::uint64_t index_span =
      cap > kIndexEntryBytes ? cap - kIndexEntryBytes : 0;
  io::OpenSpec index_spec;
  index_spec.name = "fdb.r" + std::to_string(ctx.rank) + ".index";
  std::unique_ptr<io::Object> index = co_await backend->open(index_spec);

  co_await ctx.barrier->arriveAndWait();

  // --- archive: one object per field + small index-object update ---------
  for (std::uint64_t f = 0; f < cfg_.fields; ++f) {
    const sim::Time t0 = ctx.sim->now();
    io::OpenSpec spec;
    spec.name = fieldName(ctx.rank, f);
    std::unique_ptr<io::Object> obj = co_await backend->open(spec);
    co_await obj->write(0, fieldData(cfg_.field_size, ctx.rank, f));
    const std::uint64_t index_off =
        index_span ? (f * kIndexEntryBytes) % index_span : f * kIndexEntryBytes;
    co_await index->write(index_off, vos::Payload::synthetic(kIndexEntryBytes));
    co_await obj->close();
    ctx.record(kWrite, cfg_.field_size, t0);
  }

  co_await ctx.barrier->arriveAndWait();

  // --- retrieve: index lookup + object read per field ---------------------
  for (std::uint64_t f = 0; f < cfg_.fields; ++f) {
    const sim::Time t0 = ctx.sim->now();
    const std::uint64_t index_off =
        index_span ? (f * kIndexEntryBytes) % index_span : f * kIndexEntryBytes;
    (void)co_await index->read(index_off, kIndexEntryBytes);
    io::OpenSpec spec;
    spec.name = fieldName(ctx.rank, f);
    spec.create = false;
    std::unique_ptr<io::Object> obj = co_await backend->open(spec);
    (void)co_await obj->read(0, cfg_.field_size);
    co_await obj->close();
    ctx.record(kRead, cfg_.field_size, t0);
  }
}

}  // namespace daosim::apps
