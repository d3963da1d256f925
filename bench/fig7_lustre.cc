// E7 — Fig. 7: fdb-hammer POSIX backend against a 16(+1 MDS)-node Lustre
// system; files striped over 8 OSTs at 8 MiB. An IOR series reproduces the
// §III-E text result ("IOR on Lustre reaches close to optimal hardware
// performance", not shown as a figure in the paper).
//
// Expected shape (paper): fdb-hammer writes come close to IOR (buffered
// large blocks); reads cap around 40 GiB/s — every field retrieve performs
// open/read/close on the index and data files and the single MDS saturates.
#include "bench_util.h"

using namespace daosim;
using apps::SweepPoint;

int main(int argc, char** argv) {
  const auto grid = bench::fullGrid(argv[0])
                        ? apps::crossGrid({1, 4, 16, 32}, {1, 4, 16, 32})
                        : apps::crossGrid({4, 16, 32}, {4, 16});
  bench::registerSweep("fdb-hammer-lustre", grid, [](SweepPoint pt) {
    apps::FdbConfig cfg;
    cfg.fields = apps::scaledOps(pt.totalProcs(), apps::envOps(1000), 20000);
    return bench::pointSpec(pt, "lustre-posix", cfg);
  });
  bench::registerSweep("ior-lustre", grid, [](SweepPoint pt) {
    apps::IorConfig cfg;
    cfg.ops = apps::scaledOps(pt.totalProcs(), apps::envOps(1000), 40000);
    return bench::pointSpec(pt, "lustre-posix", cfg);
  });
  return bench::benchMain(
      argc, argv, "E7 / Fig. 7: fdb-hammer + IOR on 16+1-node Lustre");
}
