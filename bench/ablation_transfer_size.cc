// Ablation — transfer size.
//
// The paper's conclusion hinges on 1 MiB being "much smaller than any
// distributed file system could support while preserving high performance";
// Fig. 2 probes 1 KiB. This ablation sweeps the transfer size from 4 KiB to
// 4 MiB through libdaos and through DFUSE, showing where each path's
// bandwidth saturates and how the FUSE per-op overhead fades as transfers
// grow (the crossover behind the paper's Fig. 1 vs Fig. 2 observations).
#include <algorithm>

#include "apps/ior.h"
#include "apps/testbed.h"
#include "bench_util.h"

namespace {

using namespace daosim;
using apps::DaosTestbed;
using apps::SweepPoint;

apps::RunResult runPoint(std::string api, std::uint64_t transfer,
                         SweepPoint pt, std::uint64_t seed,
                         const apps::RunSlot& slot) {
  DaosTestbed::Options opt;
  opt.server_nodes = 16;
  opt.client_nodes = pt.client_nodes;
  opt.seed = seed;
  opt.with_dfuse = api != "daos-array";
  DaosTestbed tb(opt);
  apps::ObservedRun observed(slot, tb);

  apps::IorConfig cfg;
  cfg.transfer = transfer;
  // Keep the moved volume roughly constant across sizes (bounded so small
  // transfers stay affordable: there they are op-rate-bound anyway).
  const std::uint64_t total_ops = std::clamp<std::uint64_t>(
      (40ULL << 30) / transfer, 20000, 400000);
  cfg.ops = apps::scaledOps(pt.totalProcs(), apps::envOps(4000), total_ops);
  apps::Ior bench(tb.ioEnv(), api, cfg);
  return apps::runSpmd(tb.sim(), tb.clientSubset(pt.client_nodes),
                       pt.procs_per_node, bench);
}

}  // namespace

int main(int argc, char** argv) {
  // "ppn" column carries log2(transfer KiB); fixed 16 clients x 16 procs.
  const int kClients = 16;
  const int kPpn = 16;
  for (std::uint64_t kib : {4ULL, 64ULL, 256ULL, 1024ULL, 4096ULL}) {
    const SweepPoint pt{kClients, kPpn};
    const std::string suffix = std::to_string(kib) + "KiB";
    bench::registerSweep("ior-daos-array-" + suffix, {pt},
                         [kib](SweepPoint p, std::uint64_t seed,
                               const apps::RunSlot& slot) {
                           return runPoint("daos-array", kib << 10, p, seed,
                                           slot);
                         });
    bench::registerSweep("ior-dfuse-" + suffix, {pt},
                         [kib](SweepPoint p, std::uint64_t seed,
                               const apps::RunSlot& slot) {
                           return runPoint("dfuse", kib << 10, p, seed,
                                           slot);
                         });
  }
  return bench::benchMain(argc, argv,
                          "Ablation: transfer size, libdaos vs DFUSE");
}
