// E9 — Fig. 9: fdb-hammer on 32 client nodes against the three deployments
// (16-server DAOS, 16+1 Lustre, 16+1 Ceph), superimposed; process count on
// the x axis.
//
// Expected shape (paper): DAOS wins both directions (small-I/O and
// metadata-friendly); Lustre matches DAOS for (buffered) writes but reads
// cap near 40 GiB/s on the MDS; Ceph lands at roughly two thirds of DAOS
// (~40 write / ~70 read).
#include <utility>

#include "bench_util.h"

using namespace daosim;
using apps::SweepPoint;

int main(int argc, char** argv) {
  // 32 client nodes fixed; processes per node on the x axis.
  constexpr int kClients = 32;
  std::vector<SweepPoint> grid;
  for (int n : {1, 2, 4, 8, 16}) grid.push_back({kClients, n});

  const std::pair<const char*, const char*> stores[] = {
      {"fdb-hammer-daos", "daos-array"},
      {"fdb-hammer-lustre", "lustre-posix"},
      {"fdb-hammer-rados", "rados"},
  };
  for (const auto& [series, api] : stores) {
    bench::registerSweep(series, grid, [api = api](SweepPoint pt) {
      apps::FdbConfig cfg;
      cfg.fields = apps::scaledOps(pt.totalProcs(), apps::envOps(1000), 20000);
      return bench::pointSpec(pt, api, cfg);
    });
  }
  return bench::benchMain(
      argc, argv,
      "E9 / Fig. 9: fdb-hammer, 32 client nodes, DAOS vs Lustre vs Ceph");
}
