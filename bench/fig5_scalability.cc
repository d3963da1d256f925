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
#include "apps/fdb.h"
#include "apps/fieldio.h"
#include "apps/ior.h"
#include "apps/testbed.h"
#include "bench_util.h"

namespace {

using namespace daosim;
using apps::DaosTestbed;
using apps::SweepPoint;

constexpr int kClients = 16;
constexpr int kPpn = 16;

DaosTestbed makeTestbed(int servers, std::uint64_t seed, bool with_dfuse) {
  DaosTestbed::Options opt;
  opt.server_nodes = servers;
  opt.client_nodes = kClients;
  opt.seed = seed;
  opt.with_dfuse = with_dfuse;
  return DaosTestbed(opt);
}

apps::RunResult runOn(DaosTestbed& tb, apps::SpmdBenchmark& bench) {
  return apps::runSpmd(tb.sim(), tb.clientSubset(kClients), kPpn, bench);
}

// The sweep "client_nodes" column carries the *server* count here.
apps::RunResult runIor(std::string api, SweepPoint pt,
                       std::uint64_t seed, const apps::RunSlot& slot) {
  const bool needs_dfuse =
      api == "dfuse" || api == "dfuse-il" || api == "hdf5";
  DaosTestbed tb = makeTestbed(pt.client_nodes, seed, needs_dfuse);
  apps::ObservedRun observed(slot, tb);
  apps::IorConfig cfg;
  const bool hdf5 = api == "hdf5" || api == "hdf5-daos";
  cfg.ops = apps::scaledOps(kClients * kPpn, apps::envOps(1000),
                            hdf5 ? 20000 : 40000);
  apps::Ior bench(tb.ioEnv(), api, cfg);
  return runOn(tb, bench);
}

apps::RunResult runFieldIo(SweepPoint pt, std::uint64_t seed,
                           const apps::RunSlot& slot) {
  DaosTestbed tb = makeTestbed(pt.client_nodes, seed, false);
  apps::ObservedRun observed(slot, tb);
  apps::FieldIoConfig cfg;
  cfg.fields = apps::scaledOps(kClients * kPpn, apps::envOps(1000), 20000);
  apps::FieldIo bench(tb.ioEnv(), "daos-array", cfg);
  return runOn(tb, bench);
}

apps::RunResult runFdb(SweepPoint pt, std::uint64_t seed,
                       const apps::RunSlot& slot) {
  DaosTestbed tb = makeTestbed(pt.client_nodes, seed, false);
  apps::ObservedRun observed(slot, tb);
  apps::FdbConfig cfg;
  cfg.fields = apps::scaledOps(kClients * kPpn, apps::envOps(1000), 20000);
  apps::Fdb bench(tb.ioEnv(), "daos-array", cfg);
  return runOn(tb, bench);
}

}  // namespace

int main(int argc, char** argv) {
  // Server counts on the x axis (as SweepPoint.client_nodes). The paper
  // stops at 24 engines; the 32/48/64 points probe where the simulated
  // systems stop scaling.
  std::vector<apps::SweepPoint> servers;
  for (int s : {1, 2, 4, 8, 16, 24, 32, 48, 64}) servers.push_back({s, kPpn});

  // One sweep series per io::Backend registry name.
  for (const char* api :
       {"daos-array", "dfs", "dfuse", "dfuse-il", "hdf5", "hdf5-daos"}) {
    bench::registerSweep(
        std::string("ior-") + api, servers,
        [api = std::string(api)](SweepPoint pt, std::uint64_t seed,
                                 const apps::RunSlot& slot) {
          return runIor(api, pt, seed, slot);
        },
        /*show_iops=*/false, /*col1=*/"servers");
  }
  bench::registerSweep("fieldio", servers, runFieldIo, false, "servers");
  bench::registerSweep("fdb-hammer-daos", servers, runFdb, false, "servers");
  return bench::benchMain(
      argc, argv,
      "E5 / Fig. 5: scalability with DAOS server count (16x16 clients)");
}
