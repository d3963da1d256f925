// E5 — Fig. 5: write/read scalability of every DAOS API and application
// with server count (1..64), no redundancy, at the optimal client
// configuration found in Figs. 1/3 (16 client nodes x 16 processes).
//
// Expected shape (paper): near-linear scaling to 24 servers for IOR on all
// four APIs and for Field I/O / fdb-hammer; HDF5-on-DFUSE+IL reaches about
// half and flattens around 16 servers; HDF5-on-libdaos stops scaling beyond
// ~4 servers (serialized adaptor metadata). The 32/48/64-server points
// extend past the paper's measured range to show where the simulated
// systems stop scaling.
#include <string>

#include "bench_util.h"

using namespace daosim;
using apps::SweepPoint;

namespace {

constexpr int kClients = 16;
constexpr int kPpn = 16;

/// Per-process op count: about `total_target` ops per run.
std::uint64_t opsFor(std::uint64_t total_target) {
  return apps::scaledOps(kClients * kPpn, apps::envOps(1000), total_target);
}

// The sweep "client_nodes" column carries the *server* count here.
apps::RunSpec onServers(SweepPoint pt, const std::string& api,
                        apps::RunSpec::Bench bench) {
  return apps::RunSpec{.api = api,
                       .servers = pt.client_nodes,
                       .clients = kClients,
                       .ppn = kPpn,
                       .bench = bench};
}

}  // namespace

int main(int argc, char** argv) {
  // Server counts on the x axis (as SweepPoint.client_nodes). The paper
  // stops at 24 engines; the 32/48/64 points probe where the simulated
  // systems stop scaling.
  std::vector<apps::SweepPoint> servers;
  for (int s : {1, 2, 4, 8, 16, 24, 32, 48, 64}) servers.push_back({s, kPpn});

  // One sweep series per io::Backend name.
  for (const std::string api :
       {"daos-array", "dfs", "dfuse", "dfuse-il", "hdf5", "hdf5-daos"}) {
    bench::registerSweep(
        "ior-" + api, servers,
        [api](SweepPoint pt) {
          apps::IorConfig cfg;
          const bool hdf5 = api == "hdf5" || api == "hdf5-daos";
          cfg.ops = opsFor(hdf5 ? 20000 : 40000);
          return onServers(pt, api, cfg);
        },
        /*col1=*/"servers");
  }
  bench::registerSweep(
      "fieldio", servers,
      [](SweepPoint pt) {
        apps::FieldIoConfig cfg;
        cfg.fields = opsFor(20000);
        return onServers(pt, "daos-array", cfg);
      },
      "servers");
  bench::registerSweep(
      "fdb-hammer-daos", servers,
      [](SweepPoint pt) {
        apps::FdbConfig cfg;
        cfg.fields = opsFor(20000);
        return onServers(pt, "daos-array", cfg);
      },
      "servers");
  return bench::benchMain(
      argc, argv,
      "E5 / Fig. 5: scalability with DAOS server count (16x16 clients)");
}
