// E4 — Fig. 4: IOR on libdaos vs IOR/HDF5 on libdaos against a *4-server*
// DAOS system.
//
// Expected shape (paper): at this small scale the HDF5 DAOS adaptor can
// approach optimal hardware performance like plain IOR — the serialized
// pool-leader metadata path only becomes the bottleneck beyond ~4 servers
// (compare fig3/fig5).
#include "bench_util.h"

using namespace daosim;
using apps::SweepPoint;

int main(int argc, char** argv) {
  const auto grid = bench::fullGrid(argv[0])
                        ? apps::crossGrid({1, 2, 4, 8, 16}, {1, 4, 16, 32})
                        : apps::crossGrid({1, 4, 16}, {4, 16, 32});
  for (const char* api : {"daos-array", "hdf5-daos"}) {
    bench::registerSweep(
        std::string("ior-") + api + "-4srv", grid, [api](SweepPoint pt) {
          apps::IorConfig cfg;
          cfg.ops = apps::scaledOps(pt.totalProcs(), apps::envOps(1000),
                                    /*total_target=*/20000);
          apps::RunSpec spec = bench::pointSpec(pt, api, cfg);
          spec.servers = 4;
          return spec;
        });
  }
  return bench::benchMain(
      argc, argv,
      "E4 / Fig. 4: IOR vs IOR/HDF5 on libdaos, 4-server DAOS");
}
