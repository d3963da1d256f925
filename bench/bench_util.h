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
// Observation goes through apps/observe.h: each runner opens an
// apps::ObservedRun on its slot right after building its testbed.
// DAOSIM_TRACE / DAOSIM_METRICS cover the last registered point's last
// repetition, DAOSIM_TELEMETRY every run (labels `<case name>/rep/<seed>`),
// and DAOSIM_EXEMPLARS=K prints one merged tail report on stdout.
#pragma once

#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdlib>
#include <deque>
#include <functional>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/observe.h"
#include "apps/runner.h"
#include "apps/sweep.h"
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
/// repetition, opens an apps::ObservedRun on `slot` right after building
/// the testbed, and returns the run's result.
using PointRunner = std::function<apps::RunResult(
    SweepPoint, std::uint64_t seed, const apps::RunSlot& slot)>;

namespace detail {

/// One registered sweep point and, once the sweep has run, its repetitions.
struct SweepCase {
  std::string name;  // google-benchmark case name
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
/// before any case runs, and what the sweep observed once it ran.
struct Sweep {
  int reps = 0;
  int jobs = 1;
  apps::ObserveSpec spec;
  std::optional<apps::SweepObservation> observed;  // set: the sweep ran
};

inline Sweep& sweep() {
  static Sweep s;
  return s;
}

/// Runs every registered (point × repetition) once, in registration ×
/// repetition order, and stores each case's results.
inline void runAllSweeps() {
  Sweep& sw = sweep();
  if (sw.observed) return;
  std::deque<SweepCase>& cases = sweepRegistry();
  const auto reps = static_cast<std::size_t>(sw.reps);
  const std::size_t n = cases.size() * reps;
  apps::SweepObservation& observed = sw.observed.emplace(sw.spec, n);
  std::vector<apps::RunResult> results =
      sim::parallelMap(n, sw.jobs, [&](std::size_t i) {
        const SweepCase& c = cases[i / reps];
        const std::uint64_t seed = i % reps + 1;
        return c.runner(
            c.pt, seed,
            observed.slot(i, c.name + "/rep/" + std::to_string(seed)));
      });
  for (std::size_t i = 0; i < n; ++i) {
    cases[i / reps].reps.push_back(std::move(results[i]));
  }
}

}  // namespace detail

/// apps::envFullGrid() for a figure's main(), which builds its grids before
/// benchMain reads the rest of the environment: junk exits 2 there too.
inline bool fullGrid(const char* argv0) {
  try {
    return apps::envFullGrid();
  } catch (const std::invalid_argument& e) {
    std::cerr << argv0 << ": " << e.what() << "\n";
    std::exit(2);
  }
}

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
    cs->name = name;
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
  // A bad DAOSIM_OPS / DAOSIM_REPS / DAOSIM_JOBS or observation variable
  // fails here, before any case runs, rather than printing an all-zero
  // table or running some other sweep than the one asked for.
  detail::Sweep& sw = detail::sweep();
  try {
    apps::envOps();
    sw.reps = apps::envReps();
    sw.jobs = apps::envJobs();
    sw.spec = apps::ObserveSpec::fromEnv();
  } catch (const std::invalid_argument& e) {
    std::cerr << argv[0] << ": " << e.what() << "\n";
    return 2;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (sw.observed) {
    try {
      sw.observed->finish(std::cout);
    } catch (const std::exception& e) {
      std::cerr << argv[0] << ": " << e.what() << "\n";
      return 1;
    }
  }
  std::cerr << "\n#### " << figure_title << " ####\n";
  for (const auto& s : allSeries()) {
    apps::printSeries(std::cerr, s, show_iops);
  }
  return 0;
}

}  // namespace daosim::bench
