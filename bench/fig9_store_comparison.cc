// E9 — Fig. 9: fdb-hammer on 32 client nodes against the three deployments
// (16-server DAOS, 16+1 Lustre, 16+1 Ceph), superimposed; process count on
// the x axis.
//
// Expected shape (paper): DAOS wins both directions (small-I/O and
// metadata-friendly); Lustre matches DAOS for (buffered) writes but reads
// cap near 40 GiB/s on the MDS; Ceph lands at roughly two thirds of DAOS
// (~40 write / ~70 read).
#include "apps/fdb.h"
#include "apps/testbed.h"
#include "bench_util.h"

namespace {

using namespace daosim;
using apps::SweepPoint;

constexpr int kClients = 32;

std::uint64_t fieldsFor(SweepPoint pt) {
  return apps::scaledOps(pt.totalProcs(), apps::envOps(1000), 20000);
}

apps::RunResult runDaos(SweepPoint pt, std::uint64_t seed,
                        const apps::RunSlot& slot) {
  apps::DaosTestbed::Options opt;
  opt.server_nodes = 16;
  opt.client_nodes = kClients;
  opt.seed = seed;
  opt.with_dfuse = false;
  apps::DaosTestbed tb(opt);
  apps::ObservedRun observed(slot, tb);
  apps::FdbConfig cfg;
  cfg.fields = fieldsFor(pt);
  apps::Fdb bench(tb.ioEnv(), "daos-array", cfg);
  return apps::runSpmd(tb.sim(), tb.clientSubset(kClients),
                       pt.procs_per_node, bench);
}

apps::RunResult runLustre(SweepPoint pt, std::uint64_t seed,
                          const apps::RunSlot& slot) {
  apps::LustreTestbed::Options opt;
  opt.oss_nodes = 16;
  opt.client_nodes = kClients;
  opt.seed = seed;
  apps::LustreTestbed tb(opt);
  apps::ObservedRun observed(slot, tb);
  apps::FdbConfig cfg;
  cfg.fields = fieldsFor(pt);
  apps::Fdb bench(tb.ioEnv(8, 8 << 20), "lustre-posix", cfg);
  return apps::runSpmd(tb.sim(), tb.clientSubset(kClients),
                       pt.procs_per_node, bench);
}

apps::RunResult runCeph(SweepPoint pt, std::uint64_t seed,
                        const apps::RunSlot& slot) {
  apps::CephTestbed::Options opt;
  opt.osd_nodes = 16;
  opt.client_nodes = kClients;
  opt.seed = seed;
  apps::CephTestbed tb(opt);
  apps::ObservedRun observed(slot, tb);
  apps::FdbConfig cfg;
  cfg.fields = fieldsFor(pt);
  apps::Fdb bench(tb.ioEnv(), "rados", cfg);
  return apps::runSpmd(tb.sim(), tb.clientSubset(kClients),
                       pt.procs_per_node, bench);
}

}  // namespace

int main(int argc, char** argv) {
  // 32 client nodes fixed; processes per node on the x axis.
  std::vector<SweepPoint> grid;
  for (int n : {1, 2, 4, 8, 16}) grid.push_back({kClients, n});

  bench::registerSweep("fdb-hammer-daos", grid, runDaos);
  bench::registerSweep("fdb-hammer-lustre", grid, runLustre);
  bench::registerSweep("fdb-hammer-rados", grid, runCeph);
  return bench::benchMain(
      argc, argv,
      "E9 / Fig. 9: fdb-hammer, 32 client nodes, DAOS vs Lustre vs Ceph");
}
