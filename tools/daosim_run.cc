// daosim_run — command-line driver for arbitrary experiment points.
//
// The paper's artifact exposes "master scripts" that deploy a storage
// system and loop a benchmark over client-node/process grids. This tool is
// the equivalent entry point for the simulated testbed: pick a system, a
// benchmark, a deployment size and a client configuration, get a
// paper-style result line (plus an optional utilization breakdown).
//
// Examples:
//   daosim_run --bench ior --api daos-array
//              --servers 16 --clients 16 --ppn 16
//   daosim_run --bench ior --api dfuse-il --transfer 1024 --ops 2000
//   daosim_run --bench ior --api daos-array --queue-depth 8
//   daosim_run --system lustre --bench fdb --clients 32 --ppn 8 --stats
//   daosim_run --system ceph --bench fdb --pgs 256
//   daosim_run --bench ior --oclass EC_2P1GX --shared
//   daosim_run --bench ior --trace=trace.json --metrics=m.csv
//   daosim_run --bench ior --telemetry=telem.csv --telemetry-interval=5ms
//
// The --api names come from the io::Backend registry (see io/backend.h);
// --system is inferred from --api when omitted, and vice versa.
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "apps/fault_injector.h"
#include "apps/fdb.h"
#include "apps/fieldio.h"
#include "apps/ior.h"
#include "apps/runner.h"
#include "apps/sweep.h"
#include "apps/telemetry_probes.h"
#include "apps/testbed.h"
#include "io/backend.h"
#include "obs/observer.h"
#include "obs/telemetry.h"
#include "obs/telemetry_reader.h"
#include "sim/parallel.h"

namespace {

using namespace daosim;

struct Options {
  std::string system;  // empty = inferred from --api (default: daos)
  std::string bench = "ior";
  std::string api;  // empty = the system's default backend
  std::string oclass = "SX";
  int servers = 16;
  int clients = 16;
  int ppn = 16;
  std::uint64_t ops = 0;  // 0 = auto-scale
  std::uint64_t transfer = 1 << 20;
  int reps = 3;
  int jobs = 0;  // 0 = DAOSIM_JOBS / hardware concurrency (repetitions)
  std::uint64_t seed = 1;
  int pgs = 1024;
  int replicas = 1;
  int queue_depth = 1;
  bool shared = false;
  bool async_index = false;
  bool stats = false;
  bool write_only = false;  // --write-only: skip the IOR read phase
  bool read_only = false;   // --read-only: write silently, time reads only
  std::string trace_file;      // --trace / DAOSIM_TRACE
  int exemplars = 0;           // --exemplars K / DAOSIM_EXEMPLARS (0 = off)
  std::string metrics_file;    // --metrics / DAOSIM_METRICS
  std::string telemetry_file;  // --telemetry / DAOSIM_TELEMETRY
  sim::Time telemetry_interval = 0;  // 0 = DAOSIM_TELEMETRY_INTERVAL / 10ms
  std::string faults;           // --faults: sim::FaultPlan spec (daos only)
  sim::Time rpc_timeout = 0;    // --rpc-timeout: per-attempt RPC timeout
  int rpc_retries = -1;         // --rpc-retries: retry budget (-1 = default)
};

[[noreturn]] void usage(const char* argv0) {
  std::string apis;
  for (const std::string& name : io::backendNames()) {
    if (!apis.empty()) apis += '|';
    apis += name;
  }
  std::fprintf(
      stderr,
      "usage: %s [--system daos|lustre|ceph] [--bench ior|fieldio|fdb]\n"
      "          [--api %s]\n"
      "          [--servers N] [--clients N] [--ppn N] [--ops N]\n"
      "          [--transfer BYTES] [--oclass S1|...|SX|RP_2GX|EC_2P1GX]\n"
      "          [--reps N] [--jobs N] [--seed N]\n"
      "          [--pgs N] [--replicas N]\n"
      "          [--queue-depth N] [--shared] [--async-index] [--stats]\n"
      "          [--write-only | --read-only]\n"
      "          [--trace FILE] [--metrics FILE] [--exemplars K]\n"
      "          [--telemetry FILE] [--telemetry-interval DUR]\n"
      "          [--faults SPEC] [--rpc-timeout DUR] [--rpc-retries N]\n"
      "Backends: --api picks an io::Backend by registry name; --system is\n"
      "inferred from it (and vice versa: --system alone picks that system's\n"
      "default backend). --queue-depth N keeps up to N IOR transfers in\n"
      "flight per process (1 = sequential issue, the paper's setup).\n"
      "--write-only / --read-only run just that IOR phase (reads hit the\n"
      "timing model whether or not data was written first).\n"
      "Numeric flags take a whole decimal integer; --transfer must be > 0.\n"
      "Parallelism: --jobs (or DAOSIM_JOBS) runs repetitions concurrently\n"
      "on that many threads. Each repetition is one self-contained\n"
      "simulation on one thread, so results are identical to --jobs 1 for\n"
      "a fixed --seed.\n"
      "Observability: --trace writes a Chrome-trace JSON (open in\n"
      "chrome://tracing or Perfetto) and --metrics a CSV (or JSON when the\n"
      "file ends in .json) of op latency histograms, both for the last\n"
      "repetition. DAOSIM_TRACE / DAOSIM_METRICS env vars are fallbacks.\n"
      "--exemplars K keeps the K slowest ops per op type across ALL\n"
      "repetitions (bounded memory) and prints their causal leg trees plus\n"
      "a p50/p95/p99 critical-path breakdown; deterministic under --jobs.\n"
      "DAOSIM_EXEMPLARS is the env fallback.\n"
      "--telemetry samples a per-component metric tree every\n"
      "--telemetry-interval of simulated time (default 10ms; \"500us\",\n"
      "\"5ms\", ... — see obs/telemetry.h) across every repetition and\n"
      "writes one schema-versioned dump (CSV, or JSON for .json files)\n"
      "that daosim_metrics turns into a bottleneck report. DAOSIM_TELEMETRY\n"
      "/ DAOSIM_TELEMETRY_INTERVAL env vars are fallbacks.\n"
      "--stats prints that report (utilization per resource class, the\n"
      "hottest units, per-layer time shares) and a per-op latency\n"
      "breakdown; without --telemetry it samples the last repetition in\n"
      "memory. Per-station queue-wait percentiles come from --exemplars.\n"
      "Fault injection (--system daos): --faults takes a plan like\n"
      "\"slow@40ms:t7,x8;flap@120ms:n5,15ms;exclude@200ms:t3\" or\n"
      "\"random:seed=7,events=6,horizon=300ms\" (grammar in\n"
      "sim/fault_plan.h); the same plan replays at every repetition.\n"
      "A non-empty plan enables the client RPC retry policy\n"
      "(net::RetryPolicy::chaosDefault(), tunable with --rpc-timeout /\n"
      "--rpc-retries); chaos counters land under net/rpc_retry_per_s,\n"
      "net/rpc_timeout_per_s, daos/degraded_read_per_s and faults/* in the\n"
      "--telemetry dump, and --stats prints a fault injection summary.\n",
      argv0, apis.c_str());
  std::exit(2);
}

const char* systemName(io::System s) {
  switch (s) {
    case io::System::kDaos: return "daos";
    case io::System::kLustre: return "lustre";
    case io::System::kCeph: return "ceph";
  }
  return "?";
}

/// Fills in whichever of --api / --system the user omitted and checks that
/// the pair is consistent (e.g. rejects `--system lustre --api dfs`).
void resolveApiAndSystem(Options& o) {
  if (o.api.empty()) {
    if (o.system.empty() || o.system == "daos") {
      o.system = "daos";
      o.api = "daos-array";
    } else if (o.system == "lustre") {
      o.api = "lustre-posix";
    } else if (o.system == "ceph") {
      o.api = "rados";
    } else {
      throw std::invalid_argument("unknown --system: " + o.system);
    }
    return;
  }
  o.api = io::canonicalName(o.api);  // throws on unknown names
  const char* inferred = systemName(io::backendSystem(o.api));
  if (o.system.empty()) {
    o.system = inferred;
  } else if (o.system != inferred) {
    throw std::invalid_argument("--api " + o.api + " runs on --system " +
                                inferred + ", not " + o.system);
  }
}

/// Parses all of `text` as a decimal integer in [lo, hi]. Anything else —
/// a sign, trailing junk ("12abc"), an empty token or an out-of-range value
/// — prints usage and exits 2.
template <typename T>
T parseNumber(const char* argv0, const std::string& flag, const char* text,
              T lo, T hi = std::numeric_limits<T>::max()) {
  const char* end = text + std::char_traits<char>::length(text);
  std::uint64_t v = 0;
  const auto [ptr, ec] = std::from_chars(text, end, v);
  if (ec != std::errc() || ptr != end || v < static_cast<std::uint64_t>(lo) ||
      v > static_cast<std::uint64_t>(hi)) {
    std::fprintf(stderr, "invalid value for %s: '%s' (want an integer in "
                 "[%llu, %llu])\n",
                 flag.c_str(), text, static_cast<unsigned long long>(lo),
                 static_cast<unsigned long long>(hi));
    usage(argv0);
  }
  return static_cast<T>(v);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    // Accept both `--opt value` and `--opt=value`.
    std::string inline_value;
    bool has_inline = false;
    if (arg.rfind("--", 0) == 0) {
      const auto eq = arg.find('=');
      if (eq != std::string::npos) {
        inline_value = arg.substr(eq + 1);
        arg.resize(eq);
        has_inline = true;
      }
    }
    auto value = [&]() -> const char* {
      if (has_inline) return inline_value.c_str();
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    auto count = [&](int lo) {
      return parseNumber<int>(argv[0], arg, value(), lo);
    };
    auto u64 = [&](std::uint64_t lo) {
      return parseNumber<std::uint64_t>(argv[0], arg, value(), lo);
    };
    if (arg == "--system") {
      o.system = value();
    } else if (arg == "--bench") {
      o.bench = value();
    } else if (arg == "--api") {
      o.api = value();
    } else if (arg == "--oclass") {
      o.oclass = value();
    } else if (arg == "--servers") {
      o.servers = count(1);
    } else if (arg == "--clients") {
      o.clients = count(1);
    } else if (arg == "--ppn") {
      o.ppn = count(1);
    } else if (arg == "--ops") {
      o.ops = u64(0);
    } else if (arg == "--transfer") {
      o.transfer = u64(1);
    } else if (arg == "--reps") {
      o.reps = count(1);
    } else if (arg == "--jobs") {
      o.jobs = count(0);
    } else if (arg == "--seed") {
      o.seed = u64(0);
    } else if (arg == "--pgs") {
      o.pgs = count(1);
    } else if (arg == "--replicas") {
      o.replicas = count(1);
    } else if (arg == "--queue-depth") {
      o.queue_depth = count(1);
    } else if (arg == "--shared") {
      o.shared = true;
    } else if (arg == "--async-index") {
      o.async_index = true;
    } else if (arg == "--stats") {
      o.stats = true;
    } else if (arg == "--write-only") {
      o.write_only = true;
    } else if (arg == "--read-only") {
      o.read_only = true;
    } else if (arg == "--trace") {
      o.trace_file = value();
    } else if (arg == "--exemplars") {
      o.exemplars = count(1);
    } else if (arg == "--metrics") {
      o.metrics_file = value();
    } else if (arg == "--telemetry") {
      o.telemetry_file = value();
    } else if (arg == "--telemetry-interval") {
      o.telemetry_interval = apps::parseDuration(value());
    } else if (arg == "--faults") {
      o.faults = value();
    } else if (arg == "--rpc-timeout") {
      o.rpc_timeout = apps::parseDuration(value());
    } else if (arg == "--rpc-retries") {
      o.rpc_retries = count(0);
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      usage(argv[0]);
    }
  }
  if (o.read_only && o.write_only) usage(argv[0]);
  resolveApiAndSystem(o);
  if (!o.faults.empty() && o.system != "daos") {
    throw std::invalid_argument("--faults requires --system daos");
  }
  if (o.trace_file.empty()) {
    if (const char* v = std::getenv("DAOSIM_TRACE")) o.trace_file = v;
  }
  if (o.exemplars == 0) {
    o.exemplars = static_cast<int>(apps::envExemplars());
  }
  if (o.metrics_file.empty()) {
    if (const char* v = std::getenv("DAOSIM_METRICS")) o.metrics_file = v;
  }
  if (o.telemetry_file.empty()) o.telemetry_file = apps::telemetryEnvFile();
  if (o.telemetry_interval == 0) {
    o.telemetry_interval = apps::telemetryEnvInterval();
  }
  return o;
}

std::uint64_t opCount(const Options& o) {
  if (o.ops > 0) return o.ops;
  return apps::scaledOps(o.clients * o.ppn, 1000, 40000);
}

apps::IorConfig iorConfig(const Options& o) {
  apps::IorConfig cfg;
  cfg.transfer = o.transfer;
  // librados: the paper caps runs to stay within 132 MiB objects.
  if (o.system == "ceph") {
    cfg.ops = o.ops > 0 ? o.ops : 100;
  } else {
    cfg.ops = opCount(o);
  }
  cfg.oclass = placement::classFromName(o.oclass);
  cfg.shared_file = o.shared;
  cfg.queue_depth = o.queue_depth;
  cfg.write_phase = !o.read_only;
  cfg.read_phase = !o.write_only;
  return cfg;
}

apps::FdbConfig fdbConfig(const Options& o) {
  apps::FdbConfig cfg;
  cfg.field_size = o.transfer;
  cfg.fields = opCount(o);
  cfg.async_index = o.async_index;
  cfg.array_oclass =
      placement::classFromName(o.oclass) == placement::ObjClass::SX
          ? placement::ObjClass::S1
          : placement::classFromName(o.oclass);
  return cfg;
}

/// Runs the selected benchmark against the named backend on a deployed
/// testbed; shared across the three systems now that the benchmarks are
/// backend-neutral.
template <typename Testbed>
apps::RunResult runBench(const Options& o, Testbed& tb, bool stats,
                         obs::Observer* observer, const std::string& run_label,
                         apps::FaultInjector* injector = nullptr) {
  // Scoped: the registry detaches and lands in TelemetryHub::global()
  // (keyed by the deterministic rep label) before the testbed dies. The
  // --stats report is read from it, so a --stats repetition samples even
  // without a --telemetry file.
  apps::ScopedRunTelemetry telem(tb.sim(), run_label,
                                 stats || !o.telemetry_file.empty(),
                                 o.telemetry_interval);
  if (telem.active()) apps::registerProbes(telem.telemetry(), tb);
  if (telem.active() && injector != nullptr) {
    injector->registerTelemetry(telem.telemetry());
  }
  if (observer != nullptr) observer->attach(tb.sim());
  if (injector != nullptr) injector->install();
  const auto run = [&](apps::SpmdBenchmark& bench) {
    return apps::runSpmd(tb.sim(), tb.clientSubset(o.clients), o.ppn, bench);
  };
  apps::RunResult r;
  if (o.bench == "ior") {
    apps::Ior bench(tb.ioEnv(), o.api, iorConfig(o));
    r = run(bench);
  } else if (o.bench == "fieldio") {
    apps::FieldIoConfig cfg;
    cfg.field_size = o.transfer;
    cfg.fields = opCount(o);
    apps::FieldIo bench(tb.ioEnv(), o.api, cfg);
    r = run(bench);
  } else if (o.bench == "fdb") {
    apps::Fdb bench(tb.ioEnv(), o.api, fdbConfig(o));
    r = run(bench);
  } else {
    throw std::invalid_argument("unknown --bench: " + o.bench);
  }
  if (injector != nullptr) {
    injector->rethrowIfFailed();
    if (stats) injector->writeSummary(std::cout);
  }
  if (observer != nullptr) {
    if (stats) observer->writeBreakdown(std::cout);
    observer->detach();  // tb's sim dies with this scope
  }
  return r;
}

apps::RunResult runDaos(const Options& o, std::uint64_t seed, bool stats,
                        obs::Observer* observer, const std::string& label) {
  apps::DaosTestbed::Options opt;
  opt.server_nodes = o.servers;
  opt.client_nodes = o.clients;
  opt.seed = seed;
  sim::FaultPlan plan;
  if (!o.faults.empty()) {
    sim::FaultTopology topo;
    topo.engines = o.servers;
    topo.targets = o.servers * opt.daos.targets_per_engine;
    topo.nodes = o.servers + o.clients;
    plan = sim::FaultPlan::parse(o.faults, topo);
  }
  const bool chaos =
      !plan.empty() || o.rpc_timeout > 0 || o.rpc_retries >= 0;
  if (chaos) {
    // A non-empty plan (or explicit retry flags) switches the client data
    // path onto the retry policy; otherwise the disabled default keeps the
    // zero-retry fast path bit-identical to a plan-free run.
    opt.daos.rpc_retry = net::RetryPolicy::chaosDefault();
    if (o.rpc_timeout > 0) opt.daos.rpc_retry.timeout = o.rpc_timeout;
    if (o.rpc_retries >= 0) opt.daos.rpc_retry.max_retries = o.rpc_retries;
  }
  apps::DaosTestbed tb(opt);
  std::optional<apps::FaultInjector> injector;
  if (!plan.empty()) injector.emplace(tb, std::move(plan));
  return runBench(o, tb, stats, observer, label,
                  injector ? &*injector : nullptr);
}

apps::RunResult runLustre(const Options& o, std::uint64_t seed, bool stats,
                          obs::Observer* observer, const std::string& label) {
  apps::LustreTestbed::Options opt;
  opt.oss_nodes = o.servers;
  opt.client_nodes = o.clients;
  opt.seed = seed;
  apps::LustreTestbed tb(opt);
  return runBench(o, tb, stats, observer, label);
}

apps::RunResult runCeph(const Options& o, std::uint64_t seed, bool stats,
                        obs::Observer* observer, const std::string& label) {
  apps::CephTestbed::Options opt;
  opt.osd_nodes = o.servers;
  opt.client_nodes = o.clients;
  opt.seed = seed;
  opt.ceph.pg_count = o.pgs;
  opt.ceph.replica_count = o.replicas;
  apps::CephTestbed tb(opt);
  return runBench(o, tb, stats, observer, label);
}

void printSummary(const Options& o, const apps::Measurement& m) {
  std::printf(
      "%s/%s servers=%d clients=%d ppn=%d procs=%d reps=%d\n"
      "  write %.2f +/- %.2f GiB/s (%.1f kIOPS) p50/p95/p99 %.1f/%.1f/%.1f us\n"
      "  read  %.2f +/- %.2f GiB/s (%.1f kIOPS) p50/p95/p99 %.1f/%.1f/%.1f us\n",
      o.system.c_str(), o.bench.c_str(), o.servers, o.clients, o.ppn,
      o.clients * o.ppn, o.reps, m.write_gibps.mean(), m.write_gibps.stddev(),
      m.write_kiops.mean(),
      static_cast<double>(m.write_lat.percentile(50)) / 1e3,
      static_cast<double>(m.write_lat.percentile(95)) / 1e3,
      static_cast<double>(m.write_lat.percentile(99)) / 1e3,
      m.read_gibps.mean(), m.read_gibps.stddev(), m.read_kiops.mean(),
      static_cast<double>(m.read_lat.percentile(50)) / 1e3,
      static_cast<double>(m.read_lat.percentile(95)) / 1e3,
      static_cast<double>(m.read_lat.percentile(99)) / 1e3);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options o = parse(argc, argv);
    const int jobs = o.jobs > 0 ? o.jobs : apps::envJobs();
    // Observe the last repetition only (mirrors --stats), so traces and
    // metrics describe one run rather than a mix of seeds.
    obs::Observer observer;
    const bool want_obs = o.stats || !o.trace_file.empty() ||
                          !o.metrics_file.empty() || !o.telemetry_file.empty();
    if (!o.trace_file.empty()) observer.enableTracing();
    if (o.exemplars > 0) {
      observer.enableExemplars(static_cast<std::size_t>(o.exemplars),
                               static_cast<std::uint32_t>(o.reps - 1));
    }
    apps::Measurement m;
    m.point = apps::SweepPoint{o.clients, o.ppn};
    // Per-rep exemplar reservoirs, merged in rep order after the sweep
    // (merge order does not matter, but fixed order keeps it obviously
    // deterministic under --jobs).
    std::vector<std::unique_ptr<obs::ExemplarReservoir>> reservoirs(
        static_cast<std::size_t>(o.reps));
    // Repetitions are independent simulations; run them on --jobs /
    // DAOSIM_JOBS threads. Aggregation stays in rep order, so the printed
    // numbers are identical to a serial run for a fixed --seed.
    auto results = sim::parallelMap(
        static_cast<std::size_t>(o.reps), jobs,
        [&](std::size_t rep) -> apps::RunResult {
          const std::uint64_t seed = o.seed + static_cast<std::uint64_t>(rep);
          const bool last = rep == static_cast<std::size_t>(o.reps) - 1;
          const bool stats = o.stats && last;
          obs::Observer* obsp = want_obs && last ? &observer : nullptr;
          // Non-last reps get a local observer when exemplars are on, so
          // the reservoir sees the tail of every repetition.
          std::optional<obs::Observer> rep_obs;
          if (o.exemplars > 0 && obsp == nullptr) {
            rep_obs.emplace();
            rep_obs->enableExemplars(static_cast<std::size_t>(o.exemplars),
                                     static_cast<std::uint32_t>(rep));
            obsp = &*rep_obs;
          }
          const std::string label = "rep/" + std::to_string(rep);
          apps::RunResult r;
          if (o.system == "daos") {
            r = runDaos(o, seed, stats, obsp, label);
          } else if (o.system == "lustre") {
            r = runLustre(o, seed, stats, obsp, label);
          } else if (o.system == "ceph") {
            r = runCeph(o, seed, stats, obsp, label);
          } else {
            throw std::invalid_argument("unknown --system: " + o.system);
          }
          if (o.exemplars > 0) reservoirs[rep] = obsp->takeExemplars();
          return r;
        });
    for (const auto& r : results) m.add(r);
    if (o.exemplars > 0) {
      obs::ExemplarReservoir master(static_cast<std::size_t>(o.exemplars));
      for (const auto& r : reservoirs) {
        if (r != nullptr) master.merge(*r);
      }
      obs::writeTailReport(std::cout, master);
    }
    if (!o.trace_file.empty()) {
      std::ofstream f(o.trace_file);
      observer.writeChromeTrace(f);
    }
    if (!o.metrics_file.empty()) {
      observer.exportMetrics();
      std::ofstream f(o.metrics_file);
      const std::string& mf = o.metrics_file;
      if (mf.size() >= 5 && mf.compare(mf.size() - 5, 5, ".json") == 0) {
        observer.metrics().writeJson(f);
      } else {
        observer.metrics().writeCsv(f);
      }
    }
    if (!o.telemetry_file.empty() || o.stats) {
      // Splice the last rep's op.* layer aggregates into the dump so the
      // analyzer can attribute wall-clock share per layer.
      observer.exportMetrics();
      const obs::MetricsRegistry* extra = &observer.metrics();
      obs::TelemetryHub& hub = obs::TelemetryHub::global();
      if (!o.telemetry_file.empty()) {
        std::ofstream f(o.telemetry_file);
        const std::string& tf = o.telemetry_file;
        if (tf.size() >= 5 && tf.compare(tf.size() - 5, 5, ".json") == 0) {
          hub.writeJson(f, extra);
        } else {
          hub.writeCsv(f, extra);
        }
      }
      if (o.stats) {
        std::stringstream ss;
        hub.writeCsv(ss, extra);
        const obs::TelemetryDump dump = obs::parseTelemetryCsv(ss);
        std::cout << "\n-- telemetry bottleneck report --\n";
        obs::writeReport(std::cout, obs::analyze(dump));
      }
    }
    printSummary(o, m);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "daosim_run: %s\n", e.what());
    return 1;
  }
}
