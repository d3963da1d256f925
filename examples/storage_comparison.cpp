// Three stores, one workload: a miniature of the paper's Fig. 9.
//
//   $ ./build/examples/storage_comparison
//
// Runs the fdb-hammer weather workload (field archive + retrieve) against
// small DAOS, Lustre and Ceph deployments on identical simulated hardware
// and prints the resulting bandwidth table.
#include <cstdio>

#include "apps/experiment.h"

using namespace daosim;
using namespace daosim::apps;

namespace {

constexpr int kServers = 4;
constexpr int kClients = 4;
constexpr int kPpn = 8;

/// fdb-hammer through `api`, which picks the store.
RunResult runStore(const char* api) {
  FdbConfig cfg;
  cfg.fields = 150;
  return run(RunSpec{.api = api,
                     .servers = kServers,
                     .clients = kClients,
                     .ppn = kPpn,
                     .bench = cfg},
             /*seed=*/1);
}

}  // namespace

int main() {
  std::printf("fdb-hammer, %d server nodes, %d clients x %d procs, "
              "1 MiB fields\n\n", kServers, kClients, kPpn);
  std::printf("%-10s %14s %14s\n", "store", "write GiB/s", "read GiB/s");

  const RunResult daos = runStore("daos-array");
  std::printf("%-10s %14.2f %14.2f\n", "DAOS", daos.write().gibps(),
              daos.read().gibps());
  const RunResult lustre = runStore("lustre-posix");
  std::printf("%-10s %14.2f %14.2f\n", "Lustre", lustre.write().gibps(),
              lustre.read().gibps());
  const RunResult ceph = runStore("rados");
  std::printf("%-10s %14.2f %14.2f\n", "Ceph", ceph.write().gibps(),
              ceph.read().gibps());

  // The paper's qualitative conclusion at this workload: DAOS reads beat
  // both baselines; Ceph writes trail (BlueStore amplification).
  const bool ok = daos.read().gibps() > lustre.read().gibps() &&
                  daos.read().gibps() > ceph.read().gibps() &&
                  daos.write().gibps() > ceph.write().gibps();
  std::printf("\nstorage_comparison %s\n", ok ? "OK" : "FAILED");
  return ok ? 0 : 1;
}
