// E7 — Fig. 7: fdb-hammer POSIX backend against a 16(+1 MDS)-node Lustre
// system; files striped over 8 OSTs at 8 MiB. An IOR series reproduces the
// §III-E text result ("IOR on Lustre reaches close to optimal hardware
// performance", not shown as a figure in the paper).
//
// Expected shape (paper): fdb-hammer writes come close to IOR (buffered
// large blocks); reads cap around 40 GiB/s — every field retrieve performs
// open/read/close on the index and data files and the single MDS saturates.
#include "apps/fdb.h"
#include "apps/ior.h"
#include "apps/testbed.h"
#include "bench_util.h"

namespace {

using namespace daosim;
using apps::LustreTestbed;
using apps::SweepPoint;

LustreTestbed::Options options16(SweepPoint pt, std::uint64_t seed) {
  LustreTestbed::Options opt;
  opt.oss_nodes = 16;
  opt.client_nodes = pt.client_nodes;
  opt.seed = seed;
  return opt;
}

apps::RunResult runFdb(SweepPoint pt, std::uint64_t seed,
                       const apps::RunSlot& slot) {
  LustreTestbed tb(options16(pt, seed));
  apps::ObservedRun observed(slot, tb);
  apps::FdbConfig cfg;
  cfg.fields = apps::scaledOps(pt.totalProcs(), apps::envOps(1000), 20000);
  apps::Fdb bench(tb.ioEnv(/*stripe_count=*/8, /*stripe_size=*/8 << 20),
                  "lustre-posix", cfg);
  return apps::runSpmd(tb.sim(), tb.clientSubset(pt.client_nodes),
                       pt.procs_per_node, bench);
}

apps::RunResult runIor(SweepPoint pt, std::uint64_t seed,
                       const apps::RunSlot& slot) {
  LustreTestbed tb(options16(pt, seed));
  apps::ObservedRun observed(slot, tb);
  apps::IorConfig cfg;
  cfg.ops = apps::scaledOps(pt.totalProcs(), apps::envOps(1000), 40000);
  apps::Ior bench(tb.ioEnv(/*stripe_count=*/8, /*stripe_size=*/8 << 20),
                  "lustre-posix", cfg);
  return apps::runSpmd(tb.sim(), tb.clientSubset(pt.client_nodes),
                       pt.procs_per_node, bench);
}

}  // namespace

int main(int argc, char** argv) {
  const auto grid = bench::fullGrid(argv[0])
                        ? apps::crossGrid({1, 4, 16, 32}, {1, 4, 16, 32})
                        : apps::crossGrid({4, 16, 32}, {4, 16});
  bench::registerSweep("fdb-hammer-lustre", grid, runFdb);
  bench::registerSweep("ior-lustre", grid, runIor);
  return bench::benchMain(
      argc, argv, "E7 / Fig. 7: fdb-hammer + IOR on 16+1-node Lustre");
}
