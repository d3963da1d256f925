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
// The --api names are the io::Backend names (see io/backend.h); --system is
// inferred from --api when omitted, and vice versa. The flags fill one
// apps::RunSpec, and every repetition runs it through apps::run.
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "apps/experiment.h"
#include "apps/observe.h"
#include "apps/sweep.h"
#include "daos/config.h"
#include "io/backend.h"
#include "sim/fault_plan.h"
#include "sim/parallel.h"

namespace {

using namespace daosim;

struct Options {
  std::string system;  // empty = inferred from --api (default: daos)
  std::string bench = "ior";
  std::string api;  // empty = the system's default backend
  std::string oclass = "SX";
  // --servers, --clients, --ppn, --pgs and --replicas; the rest of the
  // spec is filled in from the other flags once they are all parsed.
  apps::RunSpec spec;
  std::uint64_t ops = 0;  // 0 = auto-scale
  std::uint64_t transfer = 1 << 20;
  int reps = 3;
  int jobs = 0;  // 0 = DAOSIM_JOBS / hardware concurrency (repetitions)
  std::uint64_t seed = 1;
  int queue_depth = 1;
  bool shared = false;
  bool async_index = false;
  bool write_only = false;  // --write-only: skip the IOR read phase
  bool read_only = false;   // --read-only: write silently, time reads only
  // --stats, --trace, --metrics, --exemplars, --telemetry and
  // --telemetry-interval; the DAOSIM_* variables fill what they leave unset.
  apps::ObserveSpec observe;
  std::string faults;           // --faults: sim::FaultPlan spec (daos only)
  sim::Time rpc_timeout = 0;    // --rpc-timeout: per-attempt RPC timeout
  int rpc_retries = -1;         // --rpc-retries: retry budget (-1 = default)
  std::set<std::string> given;  // every flag on the command line
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
      "Backends: --api picks an io::Backend by name; --system is inferred\n"
      "from it (and vice versa: --system alone picks that system's default\n"
      "backend). --queue-depth N keeps up to N IOR transfers in\n"
      "flight per process (1 = sequential issue, the paper's setup).\n"
      "--write-only / --read-only run just that IOR phase (reads hit the\n"
      "timing model whether or not data was written first).\n"
      "Numeric flags take a whole decimal integer; --transfer must be > 0.\n"
      "Flags that only some runs read are refused elsewhere: --pgs and\n"
      "--replicas need ceph; --faults, --rpc-timeout and --rpc-retries need\n"
      "daos; --queue-depth, --shared, --write-only and --read-only need ior;\n"
      "--async-index needs fdb; --oclass needs daos with ior or fdb.\n"
      "Parallelism: --jobs (or DAOSIM_JOBS) runs repetitions concurrently\n"
      "on that many threads. Each repetition is one self-contained\n"
      "simulation on one thread, so results are identical to --jobs 1 for\n"
      "a fixed --seed.\n"
      "Observability: --trace writes a Chrome-trace JSON (open in\n"
      "chrome://tracing or Perfetto) and --metrics a CSV of op latency\n"
      "histograms, both for the last repetition. DAOSIM_TRACE /\n"
      "DAOSIM_METRICS env vars are fallbacks.\n"
      "--exemplars K keeps the K slowest ops per op type across ALL\n"
      "repetitions (bounded memory) and prints their causal leg trees plus\n"
      "a p50/p95/p99 critical-path breakdown; deterministic under --jobs.\n"
      "DAOSIM_EXEMPLARS is the env fallback.\n"
      "--telemetry samples a per-component metric tree every\n"
      "--telemetry-interval of simulated time (default 10ms; \"500us\",\n"
      "\"5ms\", ... — see obs/telemetry.h) across every repetition and\n"
      "writes one schema-versioned CSV dump that daosim_metrics turns into\n"
      "a bottleneck report. DAOSIM_TELEMETRY / DAOSIM_TELEMETRY_INTERVAL\n"
      "env vars are fallbacks. Metrics and telemetry files are CSV only: a\n"
      "name ending in .json is refused.\n"
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

/// A metrics or telemetry dump name: dumps are CSV only, so a ".json" name
/// prints usage and exits 2.
std::string csvFile(const char* argv0, const std::string& flag,
                    const char* text) {
  if (apps::jsonName(text)) {
    std::fprintf(stderr, "%s writes CSV only, not '%s'\n", flag.c_str(),
                 text);
    usage(argv0);
  }
  return text;
}

/// Refuses a flag that the selected system or benchmark would ignore: it
/// prints usage and exits 2 before any run.
void checkScope(const char* argv0, const Options& o) {
  const bool daos = o.system == "daos";
  const bool ceph = o.system == "ceph";
  const bool ior = o.bench == "ior";
  const bool fdb = o.bench == "fdb";
  const struct {
    const char* flag;
    bool applies;
    const char* needs;
  } rules[] = {
      {"--pgs", ceph, "--system ceph"},
      {"--replicas", ceph, "--system ceph"},
      {"--faults", daos, "--system daos"},
      {"--rpc-timeout", daos, "--system daos"},
      {"--rpc-retries", daos, "--system daos"},
      {"--queue-depth", ior, "--bench ior"},
      {"--shared", ior, "--bench ior"},
      {"--write-only", ior, "--bench ior"},
      {"--read-only", ior, "--bench ior"},
      {"--async-index", fdb, "--bench fdb"},
      {"--oclass", daos && (ior || fdb),
       "--system daos with --bench ior or fdb"},
  };
  for (const auto& r : rules) {
    if (!r.applies && o.given.count(r.flag) > 0) {
      std::fprintf(stderr, "%s requires %s\n", r.flag, r.needs);
      usage(argv0);
    }
  }
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
    o.given.insert(arg);
    if (arg == "--system") {
      o.system = value();
    } else if (arg == "--bench") {
      o.bench = value();
    } else if (arg == "--api") {
      o.api = value();
    } else if (arg == "--oclass") {
      o.oclass = value();
    } else if (arg == "--servers") {
      o.spec.servers = count(1);
    } else if (arg == "--clients") {
      o.spec.clients = count(1);
    } else if (arg == "--ppn") {
      o.spec.ppn = count(1);
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
      o.spec.pgs = count(1);
    } else if (arg == "--replicas") {
      o.spec.replicas = count(1);
    } else if (arg == "--queue-depth") {
      o.queue_depth = count(1);
    } else if (arg == "--shared") {
      o.shared = true;
    } else if (arg == "--async-index") {
      o.async_index = true;
    } else if (arg == "--stats") {
      o.observe.stats = true;
    } else if (arg == "--write-only") {
      o.write_only = true;
    } else if (arg == "--read-only") {
      o.read_only = true;
    } else if (arg == "--trace") {
      o.observe.trace_file = value();
    } else if (arg == "--exemplars") {
      o.observe.exemplars = count(1);
    } else if (arg == "--metrics") {
      o.observe.metrics_file = csvFile(argv[0], arg, value());
    } else if (arg == "--telemetry") {
      o.observe.telemetry_file = csvFile(argv[0], arg, value());
    } else if (arg == "--telemetry-interval") {
      o.observe.telemetry_interval = sim::parseDuration(value());
    } else if (arg == "--faults") {
      o.faults = value();
    } else if (arg == "--rpc-timeout") {
      o.rpc_timeout = sim::parseDuration(value());
    } else if (arg == "--rpc-retries") {
      o.rpc_retries = count(0);
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      usage(argv[0]);
    }
  }
  if (o.read_only && o.write_only) usage(argv[0]);
  resolveApiAndSystem(o);
  checkScope(argv[0], o);
  o.observe = apps::ObserveSpec::fromEnv(std::move(o.observe));
  return o;
}

/// The one RunSpec every repetition runs; throws on an unknown --bench,
/// --oclass or --faults plan.
apps::RunSpec runSpec(const Options& o) {
  apps::RunSpec spec = o.spec;
  spec.api = o.api;
  if (!o.faults.empty()) {
    sim::FaultTopology topo;
    topo.engines = spec.servers;
    topo.targets = spec.servers * daos::DaosConfig{}.targets_per_engine;
    topo.nodes = spec.servers + spec.clients;
    spec.faults = sim::FaultPlan::parse(o.faults, topo);
  }
  if (!spec.faults.empty() || o.rpc_timeout > 0 || o.rpc_retries >= 0) {
    // A non-empty plan (or explicit retry flags) switches the client data
    // path onto the retry policy; otherwise the disabled default keeps the
    // zero-retry fast path bit-identical to a plan-free run.
    spec.retry = net::RetryPolicy::chaosDefault();
    if (o.rpc_timeout > 0) spec.retry.timeout = o.rpc_timeout;
    if (o.rpc_retries >= 0) spec.retry.max_retries = o.rpc_retries;
  }
  const std::uint64_t ops =
      o.ops > 0 ? o.ops : apps::scaledOps(spec.clients * spec.ppn, 1000, 40000);
  const placement::ObjClass oclass = placement::classFromName(o.oclass);
  if (o.bench == "ior") {
    apps::IorConfig cfg;
    cfg.transfer = o.transfer;
    // librados: the paper caps runs to stay within 132 MiB objects.
    cfg.ops = o.system == "ceph" && o.ops == 0 ? 100 : ops;
    cfg.oclass = oclass;
    cfg.shared_file = o.shared;
    cfg.queue_depth = o.queue_depth;
    cfg.write_phase = !o.read_only;
    cfg.read_phase = !o.write_only;
    spec.bench = cfg;
  } else if (o.bench == "fieldio") {
    apps::FieldIoConfig cfg;
    cfg.field_size = o.transfer;
    cfg.fields = ops;
    spec.bench = cfg;
  } else if (o.bench == "fdb") {
    apps::FdbConfig cfg;
    cfg.field_size = o.transfer;
    cfg.fields = ops;
    cfg.async_index = o.async_index;
    cfg.array_oclass =
        oclass == placement::ObjClass::SX ? placement::ObjClass::S1 : oclass;
    spec.bench = cfg;
  } else {
    throw std::invalid_argument("unknown --bench: " + o.bench);
  }
  return spec;
}

void printSummary(const Options& o, const apps::Measurement& m) {
  std::printf(
      "%s/%s servers=%d clients=%d ppn=%d procs=%d reps=%d\n"
      "  write %.2f +/- %.2f GiB/s (%.1f kIOPS) p50/p95/p99 %.1f/%.1f/%.1f us\n"
      "  read  %.2f +/- %.2f GiB/s (%.1f kIOPS) p50/p95/p99 %.1f/%.1f/%.1f us\n",
      o.system.c_str(), o.bench.c_str(), o.spec.servers, o.spec.clients,
      o.spec.ppn, o.spec.clients * o.spec.ppn, o.reps, m.write_gibps.mean(),
      m.write_gibps.stddev(), m.write_kiops.mean(),
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
    const apps::RunSpec spec = runSpec(o);
    const auto reps = static_cast<std::size_t>(o.reps);
    std::vector<std::string> runs(reps);  // telemetry run labels
    for (std::size_t r = 0; r < reps; ++r) runs[r] = "rep/" + std::to_string(r);
    apps::SweepObservation observed(o.observe, std::move(runs));
    // Repetitions are independent simulations; run them on --jobs /
    // DAOSIM_JOBS threads. Aggregation stays in rep order, so the printed
    // numbers are identical to a serial run for a fixed --seed.
    auto results = sim::parallelMap(reps, jobs, [&](std::size_t rep) {
      return apps::run(spec, o.seed + static_cast<std::uint64_t>(rep),
                       observed.slot(rep));
    });
    apps::Measurement m;
    for (const auto& r : results) m.add(r);
    observed.finish(std::cout);
    printSummary(o, m);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "daosim_run: %s\n", e.what());
    return 1;
  }
}
