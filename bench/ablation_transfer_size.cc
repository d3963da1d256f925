// Ablation — transfer size.
//
// The paper's conclusion hinges on 1 MiB being "much smaller than any
// distributed file system could support while preserving high performance";
// Fig. 2 probes 1 KiB. This ablation sweeps the transfer size from 4 KiB to
// 4 MiB through libdaos and through DFUSE, showing where each path's
// bandwidth saturates and how the FUSE per-op overhead fades as transfers
// grow (the crossover behind the paper's Fig. 1 vs Fig. 2 observations).
#include <algorithm>
#include <string>

#include "bench_util.h"

using namespace daosim;
using apps::SweepPoint;

int main(int argc, char** argv) {
  // Fixed 16 clients x 16 procs; one single-point series per size and API.
  const SweepPoint pt{16, 16};
  for (std::uint64_t kib : {4ULL, 64ULL, 256ULL, 1024ULL, 4096ULL}) {
    for (const char* api : {"daos-array", "dfuse"}) {
      bench::registerSweep(
          std::string("ior-") + api + "-" + std::to_string(kib) + "KiB", {pt},
          [api, kib](SweepPoint p) {
            apps::IorConfig cfg;
            cfg.transfer = kib << 10;
            // Keep the moved volume roughly constant across sizes (bounded
            // so small transfers stay affordable: there they are
            // op-rate-bound anyway).
            const std::uint64_t total_ops = std::clamp<std::uint64_t>(
                (40ULL << 30) / cfg.transfer, 20000, 400000);
            cfg.ops =
                apps::scaledOps(p.totalProcs(), apps::envOps(4000), total_ops);
            return bench::pointSpec(p, api, cfg);
          });
    }
  }
  return bench::benchMain(argc, argv,
                          "Ablation: transfer size, libdaos vs DFUSE");
}
