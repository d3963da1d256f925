// E1 — Fig. 1: IOR through the four DAOS APIs (libdaos, libdfs, DFUSE,
// DFUSE+IL) against a 16-server DAOS system; client node and process count
// optimisation grid; 1 MiB transfers, object class SX.
//
// Expected shape (paper): all APIs reach ~60 GiB/s write / ~90 GiB/s read
// at saturation (ideals 61.76 and 100); libdaos is ahead at low process
// counts; 16 client nodes suffice.
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
  opt.server_nodes = 16;
  opt.client_nodes = pt.client_nodes;
  opt.seed = seed;
  opt.with_dfuse = api != "daos-array";
  DaosTestbed tb(opt);
  apps::ObservedRun observed(slot, tb);

  IorConfig cfg;
  cfg.ops = apps::scaledOps(pt.totalProcs(), apps::envOps(1000));
  apps::Ior bench(tb.ioEnv(), api, cfg);
  return apps::runSpmd(tb.sim(), tb.clientSubset(pt.client_nodes),
                       pt.procs_per_node, bench);
}

}  // namespace

int main(int argc, char** argv) {
  const auto grid =
      bench::fullGrid(argv[0])
          ? apps::crossGrid({1, 2, 4, 8, 16}, {1, 2, 4, 8, 16, 32})
          : apps::crossGrid({1, 4, 16}, {1, 4, 16, 32});

  // One sweep series per io::Backend registry name.
  for (const char* api : {"daos-array", "dfs", "dfuse", "dfuse-il"}) {
    bench::registerSweep(std::string("ior-") + api, grid,
                         [api = std::string(api)](SweepPoint pt,
                                                  std::uint64_t seed,
                                                  const apps::RunSlot& slot) {
                           return runPoint(api, pt, seed, slot);
                         });
  }
  return bench::benchMain(
      argc, argv,
      "E1 / Fig. 1: IOR API comparison, 16-server DAOS, 1 MiB transfers");
}
