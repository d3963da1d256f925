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
#include "apps/fdb.h"
#include "apps/ior.h"
#include "apps/testbed.h"
#include "bench_util.h"

namespace {

using namespace daosim;
using apps::DaosTestbed;
using apps::SweepPoint;
using placement::ObjClass;

DaosTestbed::Options options16(SweepPoint pt, std::uint64_t seed) {
  DaosTestbed::Options opt;
  opt.server_nodes = 16;
  opt.client_nodes = pt.client_nodes;
  opt.seed = seed;
  opt.with_dfuse = false;
  return opt;
}

apps::RunResult runIor(ObjClass oclass, SweepPoint pt, std::uint64_t seed,
                       const apps::RunSlot& slot) {
  DaosTestbed tb(options16(pt, seed));
  apps::ObservedRun observed(slot, tb);
  apps::IorConfig cfg;
  cfg.oclass = oclass;
  cfg.ops = apps::scaledOps(pt.totalProcs(), apps::envOps(1000), 40000);
  apps::Ior bench(tb.ioEnv(), "daos-array", cfg);
  return apps::runSpmd(tb.sim(), tb.clientSubset(pt.client_nodes),
                       pt.procs_per_node, bench);
}

apps::RunResult runFdb(ObjClass array_oclass, ObjClass kv_oclass,
                       SweepPoint pt, std::uint64_t seed,
                       const apps::RunSlot& slot) {
  DaosTestbed tb(options16(pt, seed));
  apps::ObservedRun observed(slot, tb);
  apps::FdbConfig cfg;
  cfg.array_oclass = array_oclass;
  cfg.kv_oclass = kv_oclass;
  cfg.fields = apps::scaledOps(pt.totalProcs(), apps::envOps(1000), 20000);
  apps::Fdb bench(tb.ioEnv(), "daos-array", cfg);
  return apps::runSpmd(tb.sim(), tb.clientSubset(pt.client_nodes),
                       pt.procs_per_node, bench);
}

}  // namespace

int main(int argc, char** argv) {
  const auto grid = bench::fullGrid(argv[0])
                        ? apps::crossGrid({4, 8, 16}, {4, 16, 32})
                        : apps::crossGrid({4, 16}, {16, 32});

  bench::registerSweep("ior-libdaos-ec2p1", grid,
                       [](SweepPoint pt, std::uint64_t seed,
                          const apps::RunSlot& slot) {
                         return runIor(ObjClass::EC_2P1GX, pt, seed, slot);
                       });
  bench::registerSweep("fdb-daos-ec2p1(kv-rp2)", grid,
                       [](SweepPoint pt, std::uint64_t seed,
                          const apps::RunSlot& slot) {
                         return runFdb(ObjClass::EC_2P1G1, ObjClass::RP_2G1,
                                       pt, seed, slot);
                       });
  bench::registerSweep("ior-libdaos-rp2", grid,
                       [](SweepPoint pt, std::uint64_t seed,
                          const apps::RunSlot& slot) {
                         return runIor(ObjClass::RP_2GX, pt, seed, slot);
                       });
  bench::registerSweep("fdb-daos-rp2", grid,
                       [](SweepPoint pt, std::uint64_t seed,
                          const apps::RunSlot& slot) {
                         return runFdb(ObjClass::RP_2G1, ObjClass::RP_2G1, pt,
                                       seed, slot);
                       });
  // No-redundancy reference series for the ratios.
  bench::registerSweep("ior-libdaos-none", grid,
                       [](SweepPoint pt, std::uint64_t seed,
                          const apps::RunSlot& slot) {
                         return runIor(ObjClass::SX, pt, seed, slot);
                       });
  return bench::benchMain(
      argc, argv, "E6/E10 / Fig. 6 + §III-D: redundancy on 16-server DAOS");
}
