// E2 — Fig. 2: IOR with 1 KiB transfers on DFUSE vs DFUSE+IL (IOPS),
// against a 16-server DAOS system.
//
// Expected shape (paper): the interception library's benefit is "very
// noticeable" at this I/O size — DFUSE pays two kernel crossings and a FUSE
// thread per op; the IL forwards read/write straight to libdfs.
#include "bench_util.h"

using namespace daosim;
using apps::SweepPoint;

int main(int argc, char** argv) {
  const auto grid = bench::fullGrid(argv[0])
                        ? apps::crossGrid({1, 2, 4, 8, 16}, {4, 16, 32})
                        : apps::crossGrid({1, 4, 16}, {4, 16, 32});
  for (const char* api : {"dfuse", "dfuse-il"}) {
    bench::registerSweep(
        std::string("ior-") + api + "-1KiB", grid, [api](SweepPoint pt) {
          apps::IorConfig cfg;
          cfg.transfer = 1024;  // 1 KiB
          cfg.ops = apps::scaledOps(pt.totalProcs(), apps::envOps(4000),
                                    /*total_target=*/400000);
          return bench::pointSpec(pt, api, cfg);
        });
  }
  return bench::benchMain(argc, argv,
                          "E2 / Fig. 2: DFUSE vs DFUSE+IL at 1 KiB (IOPS)",
                          /*show_iops=*/true);
}
