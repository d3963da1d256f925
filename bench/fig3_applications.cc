// E3 — Fig. 3: the DAOS applications against a 16-server system:
// (a,b) IOR/HDF5 on DFUSE+IL, (c,d) IOR/HDF5 on libdaos,
// (e,f) Field I/O (SX KVs, S1 arrays), (g,h) fdb-hammer (S1 KVs and arrays).
// All perform the equivalent workload of 1 MiB per I/O, with ~10 KV
// operations per object for the two weather benchmarks.
//
// Expected shape (paper): Field I/O and fdb-hammer come close to plain IOR;
// Field I/O's read scaling is linear but trails fdb-hammer (size checks);
// both HDF5 variants trail everything, HDF5-on-libdaos worst (container per
// process + serialized OID/epoch metadata on the pool-service leader).
#include "bench_util.h"

using namespace daosim;
using apps::SweepPoint;

namespace {

/// Per-process op count: about 20000 ops per run.
std::uint64_t opsFor(SweepPoint pt) {
  return apps::scaledOps(pt.totalProcs(), apps::envOps(1000),
                         /*total_target=*/20000);
}

}  // namespace

int main(int argc, char** argv) {
  const auto ior_grid = bench::fullGrid(argv[0])
                            ? apps::crossGrid({1, 4, 16}, {1, 4, 16, 32})
                            : apps::crossGrid({1, 4, 16}, {4, 16});
  const auto app_grid = bench::fullGrid(argv[0])
                            ? apps::crossGrid({1, 4, 16, 32}, {1, 4, 16, 32})
                            : apps::crossGrid({1, 4, 16, 32}, {4, 16});

  for (const char* api : {"hdf5", "hdf5-daos"}) {
    bench::registerSweep(std::string("ior-") + api, ior_grid,
                         [api](SweepPoint pt) {
                           apps::IorConfig cfg;
                           cfg.ops = opsFor(pt);
                           return bench::pointSpec(pt, api, cfg);
                         });
  }
  bench::registerSweep("fieldio", app_grid, [](SweepPoint pt) {
    apps::FieldIoConfig cfg;
    cfg.fields = opsFor(pt);
    return bench::pointSpec(pt, "daos-array", cfg);
  });
  bench::registerSweep("fdb-hammer-daos", app_grid, [](SweepPoint pt) {
    apps::FdbConfig cfg;
    cfg.fields = opsFor(pt);
    return bench::pointSpec(pt, "daos-array", cfg);
  });
  return bench::benchMain(
      argc, argv, "E3 / Fig. 3: applications against a 16-server DAOS");
}
