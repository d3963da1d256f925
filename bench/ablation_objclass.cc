// Ablation — object-class sharding width.
//
// The paper states it "selected an object class of SX (sharding across all
// targets) ... as this was found to perform best" (§III-B). This ablation
// regenerates that tuning decision: IOR through libdaos on a 16-server
// system with S1 / S2 / S4 / S8 / SX arrays, plus a single-shared-file run
// (where sharding width matters most: one object carries all processes).
#include "apps/ior.h"
#include "apps/testbed.h"
#include "bench_util.h"

namespace {

using namespace daosim;
using apps::DaosTestbed;
using apps::SweepPoint;
using placement::ObjClass;

apps::RunResult runPoint(ObjClass oclass, bool shared, SweepPoint pt,
                         std::uint64_t seed, const apps::RunSlot& slot) {
  DaosTestbed::Options opt;
  opt.server_nodes = 16;
  opt.client_nodes = pt.client_nodes;
  opt.seed = seed;
  opt.with_dfuse = false;
  DaosTestbed tb(opt);
  apps::ObservedRun observed(slot, tb);

  apps::IorConfig cfg;
  cfg.oclass = oclass;
  cfg.shared_file = shared;
  cfg.ops = apps::scaledOps(pt.totalProcs(), apps::envOps(1000), 40000);
  apps::Ior bench(tb.ioEnv(), "daos-array", cfg);
  return apps::runSpmd(tb.sim(), tb.clientSubset(pt.client_nodes),
                       pt.procs_per_node, bench);
}

}  // namespace

int main(int argc, char** argv) {
  const auto grid = apps::crossGrid({16}, {4, 16});
  const std::pair<const char*, ObjClass> classes[] = {
      {"S1", ObjClass::S1}, {"S2", ObjClass::S2}, {"S4", ObjClass::S4},
      {"S8", ObjClass::S8}, {"SX", ObjClass::SX},
  };
  for (const auto& [name, oc] : classes) {
    bench::registerSweep(std::string("ior-fpp-") + name, grid,
                         [oc = oc](SweepPoint pt, std::uint64_t seed,
                                   const apps::RunSlot& slot) {
                           return runPoint(oc, false, pt, seed, slot);
                         });
  }
  for (const auto& [name, oc] : classes) {
    bench::registerSweep(std::string("ior-shared-") + name, grid,
                         [oc = oc](SweepPoint pt, std::uint64_t seed,
                                   const apps::RunSlot& slot) {
                           return runPoint(oc, true, pt, seed, slot);
                         });
  }
  return bench::benchMain(
      argc, argv,
      "Ablation: object-class sharding width (why the paper picked SX)");
}
