// E8/E11 — Fig. 8 and §III-F: fdb-hammer on librados against a 16(+1 mon)
// node Ceph cluster (PG count 1024, no replication), plus the §III-F text
// experiments: IOR with an object per process (100 x 1 MiB to respect the
// 132 MiB object-size recommendation) and a placement-group-count ablation.
//
// Expected shape (paper): fdb-hammer reaches ~40 GiB/s write / ~70 GiB/s
// read — about two thirds of the hardware ideal (BlueStore amplification +
// OSD pipeline costs); IOR only manages ~25/50 (objects are not sharded, so
// one object binds to one OSD and few objects balance poorly); fewer PGs
// balance worse.
#include "apps/fdb.h"
#include "apps/ior.h"
#include "apps/testbed.h"
#include "bench_util.h"

namespace {

using namespace daosim;
using apps::CephTestbed;
using apps::SweepPoint;

CephTestbed::Options options16(SweepPoint pt, std::uint64_t seed,
                               int pg_count = 1024) {
  CephTestbed::Options opt;
  opt.osd_nodes = 16;
  opt.client_nodes = pt.client_nodes;
  opt.seed = seed;
  opt.ceph.pg_count = pg_count;
  return opt;
}

apps::RunResult runFdb(int pg_count, SweepPoint pt, std::uint64_t seed,
                       const apps::RunSlot& slot) {
  CephTestbed tb(options16(pt, seed, pg_count));
  apps::ObservedRun observed(slot, tb);
  apps::FdbConfig cfg;
  cfg.fields = apps::scaledOps(pt.totalProcs(), apps::envOps(1000), 20000);
  apps::Fdb bench(tb.ioEnv(), "rados", cfg);
  return apps::runSpmd(tb.sim(), tb.clientSubset(pt.client_nodes),
                       pt.procs_per_node, bench);
}

apps::RunResult runIor(SweepPoint pt, std::uint64_t seed,
                       const apps::RunSlot& slot) {
  CephTestbed tb(options16(pt, seed));
  apps::ObservedRun observed(slot, tb);
  apps::IorConfig cfg;
  cfg.ops = 100;  // fits the per-process object within 132 MiB
  apps::Ior bench(tb.ioEnv(), "rados", cfg);
  return apps::runSpmd(tb.sim(), tb.clientSubset(pt.client_nodes),
                       pt.procs_per_node, bench);
}

}  // namespace

int main(int argc, char** argv) {
  const auto grid = bench::fullGrid(argv[0])
                        ? apps::crossGrid({1, 4, 16, 32}, {1, 4, 16, 32})
                        : apps::crossGrid({4, 16, 32}, {4, 16});
  bench::registerSweep("fdb-hammer-rados-pg1024", grid,
                       [](SweepPoint pt, std::uint64_t seed,
                          const apps::RunSlot& slot) {
                         return runFdb(1024, pt, seed, slot);
                       });
  bench::registerSweep("ior-rados", grid, runIor);
  // PG ablation (the paper tuned PGs and found 1024 optimal).
  const auto ablation = apps::crossGrid({16}, {16});
  for (int pgs : {64, 256, 1024}) {
    bench::registerSweep("fdb-rados-pg" + std::to_string(pgs), ablation,
                         [pgs](SweepPoint pt, std::uint64_t seed,
                               const apps::RunSlot& slot) {
                           return runFdb(pgs, pt, seed, slot);
                         });
  }
  return bench::benchMain(
      argc, argv, "E8/E11 / Fig. 8 + §III-F: fdb-hammer + IOR on Ceph");
}
