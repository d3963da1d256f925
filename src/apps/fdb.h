// fdb-hammer: the benchmark for ECMWF's FDB domain-specific object store
// (§II-A4). One benchmark, three storage strategies picked from the
// backend's io::Caps:
//
//  * native_index (libdaos): one Array + KV index entries per field — like
//    Field I/O, but with the optimizations FDB carries: arrays are opened
//    with known attributes (no per-open metadata fetch) and reads skip the
//    size probe (lengths come from the index). `async_index` issues the
//    index puts through an io::SubmitQueue, overlapping them with the bulk
//    array write (FDB uses the asynchronous libdaos API this way).
//  * append_log (Lustre POSIX): each writer appends to a pair of files
//    (index + data), buffering small field writes client-side and flushing
//    in large blocks — the write-optimized pattern. Readers open and read
//    the index and data files for *every* field, the metadata-heavy pattern
//    that saturates Lustre's MDS (Fig. 7).
//  * otherwise (librados, dfs, dfuse): one object per field plus a
//    per-writer index object updated with small writes (Fig. 8).
#pragma once

#include <cstdint>
#include <string>

#include "apps/runner.h"
#include "io/backend.h"
#include "placement/objclass.h"

namespace daosim::apps {

struct FdbConfig {
  std::uint64_t field_size = 1 << 20;
  std::uint64_t fields = 1000;  // per process
  placement::ObjClass array_oclass = placement::ObjClass::S1;
  placement::ObjClass kv_oclass = placement::ObjClass::S1;
  /// native_index backends: issue the index puts asynchronously,
  /// overlapping them with the field's bulk write.
  bool async_index = false;
};

class Fdb final : public SpmdBenchmark {
 public:
  Fdb(io::Env env, std::string api, FdbConfig cfg)
      : env_(env), api_(std::move(api)), cfg_(cfg) {}

  sim::Task<void> process(ProcContext ctx) override;

 private:
  sim::Task<void> runNativeIndex(io::Backend* backend, ProcContext ctx);
  sim::Task<void> runAppendLog(io::Backend* backend, ProcContext ctx);
  sim::Task<void> runObjectPerField(io::Backend* backend, ProcContext ctx);

  io::Env env_;
  std::string api_;
  FdbConfig cfg_;
};

}  // namespace daosim::apps
