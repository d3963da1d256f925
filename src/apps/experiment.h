// One deploy-and-run path. The paper's artifact regenerates each figure with
// master scripts that deploy one storage system and loop one benchmark over
// a client-node x process grid; apps::run is that loop body. Every figure
// point, every daosim_run repetition and the storage_comparison example
// deploy, observe and run through it.
#pragma once

#include <cstdint>
#include <string>
#include <variant>

#include "apps/fdb.h"
#include "apps/fieldio.h"
#include "apps/ior.h"
#include "apps/observe.h"
#include "apps/runner.h"
#include "net/retry.h"
#include "sim/fault_plan.h"

namespace daosim::apps {

/// One experiment point. Each field is a daosim_run flag.
struct RunSpec {
  using Bench = std::variant<IorConfig, FieldIoConfig, FdbConfig>;

  /// --api: an io::Backend name or alias; it picks the system.
  std::string api = "daos-array";
  int servers = 16;  // --servers: DAOS engines, Lustre OSS or Ceph OSD nodes
  int clients = 16;  // --clients: client nodes
  int ppn = 16;      // --ppn: processes per client node
  /// --bench, with the settings of its flags.
  Bench bench{};
  int pgs = 1024;    // --pgs: Ceph placement groups
  int replicas = 1;  // --replicas: Ceph replicas
  sim::FaultPlan faults{};   // --faults: DAOS only
  net::RetryPolicy retry{};  // --rpc-timeout / --rpc-retries: DAOS only
};

/// Deploys a fresh testbed for `spec` with `seed` (DFUSE daemons only for
/// the APIs that mount DFUSE: dfuse, dfuse-il and hdf5), observes it on
/// `slot`, installs the fault injector when `spec.faults` is not empty, and
/// runs `ppn` processes of the benchmark on each of `clients` nodes.
/// Rethrows the first process or fault injector failure.
RunResult run(const RunSpec& spec, std::uint64_t seed,
              const RunSlot& slot = {});

}  // namespace daosim::apps
