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
#include "apps/fdb.h"
#include "apps/fieldio.h"
#include "apps/ior.h"
#include "apps/testbed.h"
#include "bench_util.h"

namespace {

using namespace daosim;
using apps::DaosTestbed;
using apps::SweepPoint;

DaosTestbed::Options options16(SweepPoint pt, std::uint64_t seed,
                               bool with_dfuse) {
  DaosTestbed::Options opt;
  opt.server_nodes = 16;
  opt.client_nodes = pt.client_nodes;
  opt.seed = seed;
  opt.with_dfuse = with_dfuse;
  return opt;
}

apps::RunResult runHdf5(std::string api, SweepPoint pt,
                        std::uint64_t seed, const apps::RunSlot& slot) {
  DaosTestbed tb(options16(pt, seed, api == "hdf5"));
  apps::ObservedRun observed(slot, tb);
  apps::IorConfig cfg;
  cfg.ops = apps::scaledOps(pt.totalProcs(), apps::envOps(1000),
                            /*total_target=*/20000);
  apps::Ior bench(tb.ioEnv(), api, cfg);
  return apps::runSpmd(tb.sim(), tb.clientSubset(pt.client_nodes),
                       pt.procs_per_node, bench);
}

apps::RunResult runFieldIo(SweepPoint pt, std::uint64_t seed,
                           const apps::RunSlot& slot) {
  DaosTestbed tb(options16(pt, seed, false));
  apps::ObservedRun observed(slot, tb);
  apps::FieldIoConfig cfg;
  cfg.fields = apps::scaledOps(pt.totalProcs(), apps::envOps(1000),
                               /*total_target=*/20000);
  apps::FieldIo bench(tb.ioEnv(), "daos-array", cfg);
  return apps::runSpmd(tb.sim(), tb.clientSubset(pt.client_nodes),
                       pt.procs_per_node, bench);
}

apps::RunResult runFdb(SweepPoint pt, std::uint64_t seed,
                       const apps::RunSlot& slot) {
  DaosTestbed tb(options16(pt, seed, false));
  apps::ObservedRun observed(slot, tb);
  apps::FdbConfig cfg;
  cfg.fields = apps::scaledOps(pt.totalProcs(), apps::envOps(1000),
                               /*total_target=*/20000);
  apps::Fdb bench(tb.ioEnv(), "daos-array", cfg);
  return apps::runSpmd(tb.sim(), tb.clientSubset(pt.client_nodes),
                       pt.procs_per_node, bench);
}

}  // namespace

int main(int argc, char** argv) {
  const auto ior_grid = bench::fullGrid(argv[0])
                            ? apps::crossGrid({1, 4, 16}, {1, 4, 16, 32})
                            : apps::crossGrid({1, 4, 16}, {4, 16});
  const auto app_grid = bench::fullGrid(argv[0])
                            ? apps::crossGrid({1, 4, 16, 32}, {1, 4, 16, 32})
                            : apps::crossGrid({1, 4, 16, 32}, {4, 16});

  bench::registerSweep("ior-hdf5", ior_grid,
                       [](SweepPoint pt, std::uint64_t seed,
                          const apps::RunSlot& slot) {
                         return runHdf5("hdf5", pt, seed, slot);
                       });
  bench::registerSweep("ior-hdf5-daos", ior_grid,
                       [](SweepPoint pt, std::uint64_t seed,
                          const apps::RunSlot& slot) {
                         return runHdf5("hdf5-daos", pt, seed, slot);
                       });
  bench::registerSweep("fieldio", app_grid, runFieldIo);
  bench::registerSweep("fdb-hammer-daos", app_grid, runFdb);
  return bench::benchMain(
      argc, argv, "E3 / Fig. 3: applications against a 16-server DAOS");
}
