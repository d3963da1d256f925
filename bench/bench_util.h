// Shared scaffolding for the per-figure benchmark binaries.
//
// Each figure binary registers one google-benchmark case per sweep point;
// a case runs DAOSIM_REPS (default 3) fresh testbeds with different seeds,
// reports mean/stddev bandwidths plus p99 op latency as counters, and
// accumulates rows for the paper-style table printed after the run (which
// includes p50/p95/p99 latency columns). DAOSIM_OPS scales per-process op
// counts; see apps/sweep.h. DAOSIM_TRACE / DAOSIM_METRICS write a
// Chrome-trace JSON / metrics file for the last run executed (the export
// happens inside apps::runSpmd; see apps/runner.cc).
//
// Parallel sweeps: with DAOSIM_JOBS > 1, the first case to execute launches
// every registered (point × repetition) run onto a sim::ParallelRunner
// worker pool, and each case then just collects its own repetitions. Every
// run is a self-contained, seed-deterministic Simulation, and repetitions
// are always aggregated in (rep 0..R-1) submission order, so the resulting
// tables are bitwise-identical to a serial (DAOSIM_JOBS=1) sweep. Two
// caveats: per-case google-benchmark timings shift onto whichever case
// waits, so only total wall clock is meaningful; and --benchmark_filter
// does not prevent unselected registered points from being computed.
#pragma once

#include <benchmark/benchmark.h>

#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <iostream>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/runner.h"
#include "apps/sweep.h"
#include "apps/telemetry_probes.h"
#include "sim/parallel.h"

namespace daosim::bench {

using apps::Measurement;
using apps::Series;
using apps::SweepPoint;

/// Guards the series table; point runs may complete on pool workers.
inline std::mutex& seriesMutex() {
  static std::mutex mu;
  return mu;
}

/// Rows accumulated per series for the end-of-run table. A deque (not a
/// vector): seriesNamed hands out references that must survive later
/// insertions.
inline std::deque<Series>& allSeries() {
  static std::deque<Series> series;
  return series;
}

/// Named lookup-or-create; callers needing cross-thread safety must hold
/// seriesMutex() (registration and table printing are single-threaded).
inline Series& seriesNamed(const std::string& name) {
  for (auto& s : allSeries()) {
    if (s.name == name) return s;
  }
  allSeries().push_back(Series{name, {}});
  return allSeries().back();
}

/// A point runner: executes one full benchmark run (fresh testbed) for one
/// repetition and returns its result. Called DAOSIM_REPS times per point.
using PointRunner =
    std::function<apps::RunResult(SweepPoint, std::uint64_t seed)>;

namespace detail {

/// One registered sweep point and, once launched, its in-flight repetitions.
struct SweepCase {
  SweepPoint pt;
  PointRunner runner;
  std::vector<std::future<apps::RunResult>> futures;
  bool launched = false;
};

inline std::vector<std::shared_ptr<SweepCase>>& sweepRegistry() {
  static std::vector<std::shared_ptr<SweepCase>> cases;
  return cases;
}

inline sim::ParallelRunner& sweepPool() {
  static sim::ParallelRunner pool;  // DAOSIM_JOBS workers
  return pool;
}

/// Launches every registered case's repetitions onto the pool, in
/// registration × repetition order. No-op in serial mode (jobs == 1), where
/// each case runs its repetitions inline as before.
inline void launchAllSweeps() {
  static std::once_flag once;
  std::call_once(once, [] {
    if (sweepPool().jobs() <= 1) return;
    const int reps = apps::envReps();
    for (auto& c : sweepRegistry()) {
      for (int rep = 0; rep < reps; ++rep) {
        c->futures.push_back(sweepPool().submit(
            [c, rep] { return c->runner(c->pt, static_cast<std::uint64_t>(rep + 1)); }));
      }
      c->launched = true;
    }
  });
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
    auto cs = std::make_shared<detail::SweepCase>();
    cs->pt = pt;
    cs->runner = runner;
    detail::sweepRegistry().push_back(cs);
    benchmark::RegisterBenchmark(
        name.c_str(),
        [series, cs, show_iops](benchmark::State& state) {
          Measurement m;
          m.point = cs->pt;
          for (auto _ : state) {
            detail::launchAllSweeps();
            if (cs->launched) {
              for (auto& f : cs->futures) m.add(f.get());
            } else {
              const int reps = apps::envReps();
              for (int rep = 0; rep < reps; ++rep) {
                m.add(cs->runner(cs->pt, static_cast<std::uint64_t>(rep + 1)));
              }
            }
          }
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
          std::lock_guard<std::mutex> lock(seriesMutex());
          seriesNamed(series).points.push_back(m);
        })
        ->Iterations(1)
        ->Unit(benchmark::kMillisecond);
  }
}

/// main() body for every figure binary: run benchmarks, then print the
/// paper-style tables to stderr.
inline int benchMain(int argc, char** argv, const char* figure_title,
                     bool show_iops = false) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  // A bad DAOSIM_OPS / DAOSIM_REPS fails here, before any case runs,
  // rather than printing an all-zero table.
  try {
    apps::envOps();
    apps::envReps();
  } catch (const std::invalid_argument& e) {
    std::cerr << argv[0] << ": " << e.what() << "\n";
    return 2;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  // DAOSIM_TELEMETRY: every run registered a labelled registry with
  // TelemetryHub::global(); write the merged dump now that the pool has
  // drained. Labels encode (series, point, seed), so the file is identical
  // for serial and DAOSIM_JOBS>1 sweeps.
  apps::flushTelemetryEnv();
  std::cerr << "\n#### " << figure_title << " ####\n";
  std::lock_guard<std::mutex> lock(seriesMutex());
  for (const auto& s : allSeries()) {
    apps::printSeries(std::cerr, s, show_iops);
  }
  return 0;
}

}  // namespace daosim::bench
