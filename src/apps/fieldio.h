// Field I/O: ECMWF's standalone weather-field benchmark (§II-A3).
//
// Each process writes a sequence of fields; every field is stored in its
// own object (a DAOS Array, S1 in the paper's tuning) and indexed with
// Key-Value puts, some into an index object exclusive to the process and
// some into an index shared by all processes (SX). In read mode the same
// sequence is retrieved by querying the Key-Values, checking the object
// size, and reading it — the size check ahead of every read is the
// behaviour the paper singles out as the reason Field I/O's read scaling
// trails fdb-hammer's.
//
// Field I/O is written against libdaos KV indexes, so it requires a
// backend with caps().native_index (daos-array today).
#pragma once

#include <cstdint>
#include <string>

#include "apps/runner.h"
#include "io/backend.h"
#include "placement/objclass.h"

namespace daosim::apps {

struct FieldIoConfig {
  std::uint64_t field_size = 1 << 20;
  std::uint64_t fields = 1000;  // per process
  placement::ObjClass array_oclass = placement::ObjClass::S1;
  placement::ObjClass kv_oclass = placement::ObjClass::SX;
};

class FieldIo final : public SpmdBenchmark {
 public:
  /// Throws std::invalid_argument from process() if the named backend has
  /// no native key-value index.
  FieldIo(io::Env env, std::string api, FieldIoConfig cfg)
      : env_(env), api_(std::move(api)), cfg_(cfg) {}

  sim::Task<void> process(ProcContext ctx) override;

 private:
  io::Env env_;
  std::string api_;
  FieldIoConfig cfg_;
};

}  // namespace daosim::apps
