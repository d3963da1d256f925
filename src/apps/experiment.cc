#include "apps/experiment.h"

#include <optional>

#include "apps/fault_injector.h"
#include "apps/testbed.h"
#include "io/backend.h"

namespace daosim::apps {

namespace {

Ior benchFor(io::Env env, const std::string& api, const IorConfig& cfg) {
  return {env, api, cfg};
}
FieldIo benchFor(io::Env env, const std::string& api,
                 const FieldIoConfig& cfg) {
  return {env, api, cfg};
}
Fdb benchFor(io::Env env, const std::string& api, const FdbConfig& cfg) {
  return {env, api, cfg};
}

/// Runs the spec's benchmark on every client node of `tb`.
template <typename Testbed>
RunResult runBench(const RunSpec& spec, const std::string& api, Testbed& tb) {
  return std::visit(
      [&](const auto& cfg) {
        auto bench = benchFor(tb.ioEnv(), api, cfg);
        return runSpmd(tb.sim(), tb.clients(), spec.ppn, bench);
      },
      spec.bench);
}

RunResult runDaos(const RunSpec& spec, const std::string& api,
                  std::uint64_t seed, const RunSlot& slot) {
  DaosTestbed::Options opt;
  opt.server_nodes = spec.servers;
  opt.client_nodes = spec.clients;
  opt.seed = seed;
  opt.with_dfuse = api == "dfuse" || api == "dfuse-il" || api == "hdf5";
  opt.daos.rpc_retry = spec.retry;
  DaosTestbed tb(opt);
  // Declared first so it outlives the observation's last telemetry sample.
  std::optional<FaultInjector> injector;
  // Observed before the injector installs, so its fault events land in the
  // trace; the run's telemetry also samples the injector's counters.
  ObservedRun observed(slot, tb);
  if (!spec.faults.empty()) {
    injector.emplace(tb, spec.faults);
    if (obs::Telemetry* t = observed.telemetry()) {
      injector->registerTelemetry(*t);
    }
    injector->install();
  }
  RunResult r = runBench(spec, api, tb);
  if (injector) {
    injector->rethrowIfFailed();
    observed.keepFaultSummary(*injector);
  }
  return r;
}

}  // namespace

RunResult run(const RunSpec& spec, std::uint64_t seed, const RunSlot& slot) {
  const std::string api = io::canonicalName(spec.api);
  switch (io::backendSystem(api)) {
    case io::System::kDaos:
      return runDaos(spec, api, seed, slot);
    case io::System::kLustre: {
      LustreTestbed tb({.oss_nodes = spec.servers,
                        .client_nodes = spec.clients,
                        .seed = seed});
      ObservedRun observed(slot, tb);
      return runBench(spec, api, tb);
    }
    case io::System::kCeph: {
      CephTestbed::Options opt{.osd_nodes = spec.servers,
                               .client_nodes = spec.clients,
                               .seed = seed};
      opt.ceph.pg_count = spec.pgs;
      opt.ceph.replica_count = spec.replicas;
      CephTestbed tb(opt);
      ObservedRun observed(slot, tb);
      return runBench(spec, api, tb);
    }
  }
  return {};
}

}  // namespace daosim::apps
