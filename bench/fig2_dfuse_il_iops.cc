// E2 — Fig. 2: IOR with 1 KiB transfers on DFUSE vs DFUSE+IL (IOPS),
// against a 16-server DAOS system.
//
// Expected shape (paper): the interception library's benefit is "very
// noticeable" at this I/O size — DFUSE pays two kernel crossings and a FUSE
// thread per op; the IL forwards read/write straight to libdfs.
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
  DaosTestbed tb(opt);
  apps::ObservedRun observed(slot, tb);

  IorConfig cfg;
  cfg.transfer = 1024;  // 1 KiB
  cfg.ops = apps::scaledOps(pt.totalProcs(), apps::envOps(4000),
                            /*total_target=*/400000);
  apps::Ior bench(tb.ioEnv(), api, cfg);
  return apps::runSpmd(tb.sim(), tb.clientSubset(pt.client_nodes),
                       pt.procs_per_node, bench);
}

}  // namespace

int main(int argc, char** argv) {
  const auto grid = bench::fullGrid(argv[0])
                        ? apps::crossGrid({1, 2, 4, 8, 16}, {4, 16, 32})
                        : apps::crossGrid({1, 4, 16}, {4, 16, 32});
  bench::registerSweep(
      "ior-dfuse-1KiB", grid,
      [](SweepPoint pt, std::uint64_t seed, const apps::RunSlot& slot) {
        return runPoint("dfuse", pt, seed, slot);
      },
      /*show_iops=*/true);
  bench::registerSweep(
      "ior-dfuse-il-1KiB", grid,
      [](SweepPoint pt, std::uint64_t seed, const apps::RunSlot& slot) {
        return runPoint("dfuse-il", pt, seed, slot);
      },
      /*show_iops=*/true);
  return bench::benchMain(argc, argv,
                          "E2 / Fig. 2: DFUSE vs DFUSE+IL at 1 KiB (IOPS)",
                          /*show_iops=*/true);
}
