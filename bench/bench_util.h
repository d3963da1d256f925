// Shared scaffolding for the per-figure benchmark binaries.
//
// Each figure binary registers one google-benchmark case per sweep point;
// a case reports DAOSIM_REPS (default 3) fresh testbeds with different
// seeds as mean/stddev bandwidths plus p99 op latency counters, and adds one
// row to the paper-style table printed after the run (which includes
// p50/p95/p99 latency columns). DAOSIM_OPS scales per-process op counts;
// see apps/sweep.h.
//
// One sweep path: the first case to execute runs every registered
// (point × repetition) exactly once through sim::parallelMap on DAOSIM_JOBS
// threads (1 = every run in order on the main thread), and each case then
// reports its stored repetitions. Every run is a self-contained,
// seed-deterministic Simulation and repetitions aggregate in rep order, so
// the tables are bitwise-identical at any DAOSIM_JOBS. Two caveats hold at
// every DAOSIM_JOBS: the first case's google-benchmark time covers the
// whole sweep, so only total wall clock is meaningful; and
// --benchmark_filter does not stop unselected registered points from being
// computed.
//
// Observation is the harness's job (apps::runSpmd reads no environment):
//   DAOSIM_TRACE / DAOSIM_METRICS  Chrome-trace JSON / metrics file (CSV, or
//       JSON when the name ends in .json) of the last registered point's
//       last repetition;
//   DAOSIM_EXEMPLARS=K  the K slowest ops per op type over every run, merged
//       into one tail report on stdout;
//   DAOSIM_TELEMETRY  one dump of every run (see apps/telemetry_probes.h).
#pragma once

#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/runner.h"
#include "apps/sweep.h"
#include "apps/telemetry_probes.h"
#include "obs/observer.h"
#include "sim/parallel.h"

namespace daosim::bench {

using apps::Measurement;
using apps::Series;
using apps::SweepPoint;

/// Rows accumulated per series for the end-of-run table. A deque (not a
/// vector): seriesNamed hands out references that must survive later
/// insertions.
inline std::deque<Series>& allSeries() {
  static std::deque<Series> series;
  return series;
}

/// Named lookup-or-create.
inline Series& seriesNamed(const std::string& name) {
  for (auto& s : allSeries()) {
    if (s.name == name) return s;
  }
  allSeries().push_back(Series{name, {}});
  return allSeries().back();
}

/// A point runner: executes one full benchmark run (fresh testbed) for one
/// repetition, hands `observer` (null unless the harness observes this run)
/// on to apps::runSpmd, and returns the run's result.
using PointRunner = std::function<apps::RunResult(
    SweepPoint, std::uint64_t seed, obs::Observer* observer)>;

namespace detail {

/// One registered sweep point and, once the sweep has run, its repetitions.
struct SweepCase {
  SweepPoint pt;
  PointRunner runner;
  std::vector<apps::RunResult> reps;
  bool reported = false;  // table row added (a case may run repeatedly)
};

/// A deque: each google-benchmark case keeps a pointer to its entry.
inline std::deque<SweepCase>& sweepRegistry() {
  static std::deque<SweepCase> cases;
  return cases;
}

/// The binary's one sweep: settings benchMain reads from the environment
/// before any case runs, and what the sweep observed.
struct Sweep {
  int reps = 0;
  int jobs = 1;
  std::string trace_file;     // DAOSIM_TRACE
  std::string metrics_file;   // DAOSIM_METRICS
  std::size_t exemplars = 0;  // DAOSIM_EXEMPLARS
  bool done = false;
  std::optional<obs::Observer> last;  // the final registered run
  std::optional<obs::ExemplarReservoir> tail;  // every run's, merged
};

inline Sweep& sweep() {
  static Sweep s;
  return s;
}

/// Runs every registered (point × repetition) once, in registration ×
/// repetition order, and stores each case's results.
inline void runAllSweeps() {
  Sweep& sw = sweep();
  if (sw.done) return;
  sw.done = true;
  std::deque<SweepCase>& cases = sweepRegistry();
  const auto reps = static_cast<std::size_t>(sw.reps);
  const std::size_t n = cases.size() * reps;
  if (!sw.trace_file.empty() || !sw.metrics_file.empty()) {
    sw.last.emplace();
    if (!sw.trace_file.empty()) sw.last->enableTracing();
  }
  std::vector<std::unique_ptr<obs::ExemplarReservoir>> tails(n);
  std::vector<apps::RunResult> results =
      sim::parallelMap(n, sw.jobs, [&](std::size_t i) {
        const SweepCase& c = cases[i / reps];
        std::optional<obs::Observer> local;
        obs::Observer* observer = nullptr;
        if (sw.last && i + 1 == n) {
          observer = &*sw.last;
        } else if (sw.exemplars > 0) {
          observer = &local.emplace();
        }
        if (sw.exemplars > 0) {
          observer->enableExemplars(sw.exemplars,
                                    static_cast<std::uint32_t>(i));
        }
        apps::RunResult r = c.runner(c.pt, i % reps + 1, observer);
        if (sw.exemplars > 0) tails[i] = observer->takeExemplars();
        return r;
      });
  for (std::size_t i = 0; i < n; ++i) {
    cases[i / reps].reps.push_back(std::move(results[i]));
  }
  if (sw.exemplars > 0) {
    sw.tail.emplace(sw.exemplars);
    for (const auto& t : tails) sw.tail->merge(*t);
  }
}

/// Writes what the sweep observed, if it ran.
inline void writeObservations() {
  Sweep& sw = sweep();
  if (sw.last) {
    if (!sw.trace_file.empty()) {
      std::ofstream f(sw.trace_file);
      sw.last->writeChromeTrace(f);
    }
    if (!sw.metrics_file.empty()) {
      sw.last->exportMetrics();
      std::ofstream f(sw.metrics_file);
      const std::string& mf = sw.metrics_file;
      if (mf.size() >= 5 && mf.compare(mf.size() - 5, 5, ".json") == 0) {
        sw.last->metrics().writeJson(f);
      } else {
        sw.last->metrics().writeCsv(f);
      }
    }
  }
  if (sw.tail) obs::writeTailReport(std::cout, *sw.tail);
}

}  // namespace detail

/// Registers one google-benchmark case per sweep point for `series`.
inline void registerSweep(const std::string& series,
                          const std::vector<SweepPoint>& grid,
                          PointRunner runner, bool show_iops = false,
                          const std::string& col1 = "clients") {
  seriesNamed(series).col1 = col1;
  for (const SweepPoint& pt : grid) {
    const std::string name = series + "/c" + std::to_string(pt.client_nodes) +
                             "/n" + std::to_string(pt.procs_per_node);
    detail::SweepCase* cs = &detail::sweepRegistry().emplace_back();
    cs->pt = pt;
    cs->runner = runner;
    benchmark::RegisterBenchmark(
        name.c_str(),
        [series, cs, show_iops](benchmark::State& state) {
          for (auto _ : state) detail::runAllSweeps();
          Measurement m;
          m.point = cs->pt;
          for (const apps::RunResult& r : cs->reps) m.add(r);
          if (show_iops) {
            state.counters["write_kIOPS"] = m.write_kiops.mean();
            state.counters["write_kIOPS_sd"] = m.write_kiops.stddev();
            state.counters["read_kIOPS"] = m.read_kiops.mean();
            state.counters["read_kIOPS_sd"] = m.read_kiops.stddev();
          } else {
            state.counters["write_GiBps"] = m.write_gibps.mean();
            state.counters["write_GiBps_sd"] = m.write_gibps.stddev();
            state.counters["read_GiBps"] = m.read_gibps.mean();
            state.counters["read_GiBps_sd"] = m.read_gibps.stddev();
          }
          state.counters["write_p99_us"] =
              static_cast<double>(m.write_lat.percentile(99)) / 1e3;
          state.counters["read_p99_us"] =
              static_cast<double>(m.read_lat.percentile(99)) / 1e3;
          if (!cs->reported) {
            cs->reported = true;
            seriesNamed(series).points.push_back(m);
          }
        })
        ->Iterations(1)
        ->Unit(benchmark::kMillisecond);
  }
}

/// main() body for every figure binary: run benchmarks, then write what
/// the sweep observed and print the paper-style tables to stderr.
inline int benchMain(int argc, char** argv, const char* figure_title,
                     bool show_iops = false) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  // A bad DAOSIM_OPS / DAOSIM_REPS / DAOSIM_JOBS / DAOSIM_EXEMPLARS fails
  // here, before any case runs, rather than printing an all-zero table or
  // running some other sweep than the one asked for.
  detail::Sweep& sw = detail::sweep();
  try {
    apps::envOps();
    sw.reps = apps::envReps();
    sw.jobs = apps::envJobs();
    sw.exemplars = apps::envExemplars();
  } catch (const std::invalid_argument& e) {
    std::cerr << argv[0] << ": " << e.what() << "\n";
    return 2;
  }
  if (const char* v = std::getenv("DAOSIM_TRACE")) sw.trace_file = v;
  if (const char* v = std::getenv("DAOSIM_METRICS")) sw.metrics_file = v;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  detail::writeObservations();
  // DAOSIM_TELEMETRY: every run registered a labelled registry with
  // TelemetryHub::global(); write the merged dump now that the sweep is
  // done. Labels encode (series, point, seed), so the file is identical at
  // any DAOSIM_JOBS.
  apps::flushTelemetryEnv();
  std::cerr << "\n#### " << figure_title << " ####\n";
  for (const auto& s : allSeries()) {
    apps::printSeries(std::cerr, s, show_iops);
  }
  return 0;
}

}  // namespace daosim::bench
