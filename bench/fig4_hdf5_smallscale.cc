// E4 — Fig. 4: IOR on libdaos vs IOR/HDF5 on libdaos against a *4-server*
// DAOS system.
//
// Expected shape (paper): at this small scale the HDF5 DAOS adaptor can
// approach optimal hardware performance like plain IOR — the serialized
// pool-leader metadata path only becomes the bottleneck beyond ~4 servers
// (compare fig3/fig5).
#include "apps/ior.h"
#include "apps/testbed.h"
#include "bench_util.h"

namespace {

using namespace daosim;
using apps::DaosTestbed;
using apps::IorConfig;
using apps::SweepPoint;

apps::RunResult runPoint(std::string api, SweepPoint pt,
                         std::uint64_t seed, const apps::RunSlot& slot) {
  DaosTestbed::Options opt;
  opt.server_nodes = 4;
  opt.client_nodes = pt.client_nodes;
  opt.seed = seed;
  opt.with_dfuse = false;
  DaosTestbed tb(opt);
  apps::ObservedRun observed(slot, tb);

  IorConfig cfg;
  cfg.ops = apps::scaledOps(pt.totalProcs(), apps::envOps(1000),
                            /*total_target=*/20000);
  apps::Ior bench(tb.ioEnv(), api, cfg);
  return apps::runSpmd(tb.sim(), tb.clientSubset(pt.client_nodes),
                       pt.procs_per_node, bench);
}

}  // namespace

int main(int argc, char** argv) {
  const auto grid = bench::fullGrid(argv[0])
                        ? apps::crossGrid({1, 2, 4, 8, 16}, {1, 4, 16, 32})
                        : apps::crossGrid({1, 4, 16}, {4, 16, 32});
  bench::registerSweep("ior-daos-array-4srv", grid,
                       [](SweepPoint pt, std::uint64_t seed,
                          const apps::RunSlot& slot) {
                         return runPoint("daos-array", pt, seed, slot);
                       });
  bench::registerSweep("ior-hdf5-daos-4srv", grid,
                       [](SweepPoint pt, std::uint64_t seed,
                          const apps::RunSlot& slot) {
                         return runPoint("hdf5-daos", pt, seed, slot);
                       });
  return bench::benchMain(
      argc, argv,
      "E4 / Fig. 4: IOR vs IOR/HDF5 on libdaos, 4-server DAOS");
}
