// E1 — Fig. 1: IOR through the four DAOS APIs (libdaos, libdfs, DFUSE,
// DFUSE+IL) against a 16-server DAOS system; client node and process count
// optimisation grid; 1 MiB transfers, object class SX.
//
// Expected shape (paper): all APIs reach ~60 GiB/s write / ~90 GiB/s read
// at saturation (ideals 61.76 and 100); libdaos is ahead at low process
// counts; 16 client nodes suffice.
#include "bench_util.h"

using namespace daosim;
using apps::SweepPoint;

int main(int argc, char** argv) {
  const auto grid =
      bench::fullGrid(argv[0])
          ? apps::crossGrid({1, 2, 4, 8, 16}, {1, 2, 4, 8, 16, 32})
          : apps::crossGrid({1, 4, 16}, {1, 4, 16, 32});

  // One sweep series per io::Backend name.
  for (const char* api : {"daos-array", "dfs", "dfuse", "dfuse-il"}) {
    bench::registerSweep(std::string("ior-") + api, grid, [api](SweepPoint pt) {
      apps::IorConfig cfg;
      cfg.ops = apps::scaledOps(pt.totalProcs(), apps::envOps(1000));
      return bench::pointSpec(pt, api, cfg);
    });
  }
  return bench::benchMain(
      argc, argv,
      "E1 / Fig. 1: IOR API comparison, 16-server DAOS, 1 MiB transfers");
}
