// Ablation — object-class sharding width.
//
// The paper states it "selected an object class of SX (sharding across all
// targets) ... as this was found to perform best" (§III-B). This ablation
// regenerates that tuning decision: IOR through libdaos on a 16-server
// system with S1 / S2 / S4 / S8 / SX arrays, plus a single-shared-file run
// (where sharding width matters most: one object carries all processes).
#include <string>
#include <utility>

#include "bench_util.h"

using namespace daosim;
using apps::SweepPoint;
using placement::ObjClass;

int main(int argc, char** argv) {
  const auto grid = apps::crossGrid({16}, {4, 16});
  const std::pair<const char*, ObjClass> classes[] = {
      {"S1", ObjClass::S1}, {"S2", ObjClass::S2}, {"S4", ObjClass::S4},
      {"S8", ObjClass::S8}, {"SX", ObjClass::SX},
  };
  for (const bool shared : {false, true}) {
    for (const auto& [name, oc] : classes) {
      bench::registerSweep(
          std::string(shared ? "ior-shared-" : "ior-fpp-") + name, grid,
          [oc = oc, shared](SweepPoint pt) {
            apps::IorConfig cfg;
            cfg.oclass = oc;
            cfg.shared_file = shared;
            cfg.ops =
                apps::scaledOps(pt.totalProcs(), apps::envOps(1000), 40000);
            return bench::pointSpec(pt, "daos-array", cfg);
          });
    }
  }
  return bench::benchMain(
      argc, argv,
      "Ablation: object-class sharding width (why the paper picked SX)");
}
