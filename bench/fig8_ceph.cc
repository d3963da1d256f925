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
#include <string>

#include "bench_util.h"

using namespace daosim;
using apps::SweepPoint;

namespace {

bench::PointSpec fdb(int pgs) {
  return [pgs](SweepPoint pt) {
    apps::FdbConfig cfg;
    cfg.fields = apps::scaledOps(pt.totalProcs(), apps::envOps(1000), 20000);
    apps::RunSpec spec = bench::pointSpec(pt, "rados", cfg);
    spec.pgs = pgs;
    return spec;
  };
}

}  // namespace

int main(int argc, char** argv) {
  const auto grid = bench::fullGrid(argv[0])
                        ? apps::crossGrid({1, 4, 16, 32}, {1, 4, 16, 32})
                        : apps::crossGrid({4, 16, 32}, {4, 16});
  bench::registerSweep("fdb-hammer-rados-pg1024", grid, fdb(1024));
  bench::registerSweep("ior-rados", grid, [](SweepPoint pt) {
    apps::IorConfig cfg;
    cfg.ops = 100;  // fits the per-process object within 132 MiB
    return bench::pointSpec(pt, "rados", cfg);
  });
  // PG ablation (the paper tuned PGs and found 1024 optimal).
  const auto ablation = apps::crossGrid({16}, {16});
  for (int pgs : {64, 256, 1024}) {
    bench::registerSweep("fdb-rados-pg" + std::to_string(pgs), ablation,
                         fdb(pgs));
  }
  return bench::benchMain(
      argc, argv, "E8/E11 / Fig. 8 + §III-F: fdb-hammer + IOR on Ceph");
}
