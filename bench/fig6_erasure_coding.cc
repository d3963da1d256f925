// E6/E10 — Fig. 6 and §III-D: IOR and fdb-hammer against a 16-server DAOS
// system with data redundancy enabled.
//
//   * EC 2+1 for bulk data; directories/Key-Values use replication 2 (the
//     paper replicates constantly-modified index entities rather than
//     erasure-coding them);
//   * an RP_2 series reproduces the §III-D text experiment (write halves).
//
// Expected shape (paper): reads unaffected (~90 GiB/s); EC 2+1 writes cap
// at ~2/3 of no-redundancy (~40 GiB/s); replication-2 writes at ~1/2
// (~30 GiB/s). Both are hardware-optimal given the amplified volume.
#include "bench_util.h"

using namespace daosim;
using apps::SweepPoint;
using placement::ObjClass;

namespace {

bench::PointSpec ior(ObjClass oclass) {
  return [oclass](SweepPoint pt) {
    apps::IorConfig cfg;
    cfg.oclass = oclass;
    cfg.ops = apps::scaledOps(pt.totalProcs(), apps::envOps(1000), 40000);
    return bench::pointSpec(pt, "daos-array", cfg);
  };
}

bench::PointSpec fdb(ObjClass array_oclass, ObjClass kv_oclass) {
  return [array_oclass, kv_oclass](SweepPoint pt) {
    apps::FdbConfig cfg;
    cfg.array_oclass = array_oclass;
    cfg.kv_oclass = kv_oclass;
    cfg.fields = apps::scaledOps(pt.totalProcs(), apps::envOps(1000), 20000);
    return bench::pointSpec(pt, "daos-array", cfg);
  };
}

}  // namespace

int main(int argc, char** argv) {
  const auto grid = bench::fullGrid(argv[0])
                        ? apps::crossGrid({4, 8, 16}, {4, 16, 32})
                        : apps::crossGrid({4, 16}, {16, 32});

  bench::registerSweep("ior-libdaos-ec2p1", grid, ior(ObjClass::EC_2P1GX));
  bench::registerSweep("fdb-daos-ec2p1(kv-rp2)", grid,
                       fdb(ObjClass::EC_2P1G1, ObjClass::RP_2G1));
  bench::registerSweep("ior-libdaos-rp2", grid, ior(ObjClass::RP_2GX));
  bench::registerSweep("fdb-daos-rp2", grid,
                       fdb(ObjClass::RP_2G1, ObjClass::RP_2G1));
  // No-redundancy reference series for the ratios.
  bench::registerSweep("ior-libdaos-none", grid, ior(ObjClass::SX));
  return bench::benchMain(
      argc, argv, "E6/E10 / Fig. 6 + §III-D: redundancy on 16-server DAOS");
}
