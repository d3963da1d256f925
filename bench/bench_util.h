// Shared scaffolding for the per-figure benchmark binaries.
//
// A figure binary registers one sweep per series: for each point of its
// grid, the apps::RunSpec that apps::run deploys and runs there. benchMain
// runs every registered (point × repetition) once through sim::parallelMap
// on DAOSIM_JOBS threads (1 = every run in order on the main thread), with
// seeds 1..DAOSIM_REPS (default 3), and then prints one paper-style table
// per series to stderr: write/read mean ± stddev over the repetitions plus
// p50/p95/p99/p99.9/max latency columns. DAOSIM_OPS scales per-process op
// counts; see apps/sweep.h. Every run is a self-contained,
// seed-deterministic Simulation and repetitions aggregate in rep order, so
// the tables are bitwise-identical at any DAOSIM_JOBS.
//
// Observation goes through apps/observe.h: DAOSIM_TRACE / DAOSIM_METRICS
// cover the last registered point's last repetition, DAOSIM_TELEMETRY every
// run (labels `<series>/c<nodes>/n<ppn>/rep/<seed>`), and DAOSIM_EXEMPLARS=K
// prints one merged tail report on stdout.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/experiment.h"
#include "apps/observe.h"
#include "apps/sweep.h"
#include "sim/parallel.h"

namespace daosim::bench {

using apps::SweepPoint;

/// One repetition of one point: a full run on a fresh testbed built with
/// `seed`, observed through an apps::ObservedRun opened on `slot` right
/// after the testbed is built.
using PointRunner = std::function<apps::RunResult(
    SweepPoint, std::uint64_t seed, const apps::RunSlot& slot)>;

/// The apps::RunSpec that apps::run deploys and runs at one point.
using PointSpec = std::function<apps::RunSpec(SweepPoint)>;

namespace detail {

/// One registered sweep point.
struct SweepCase {
  std::string name;    // <series>/c<nodes>/n<ppn>
  std::size_t series = 0;  // index into allSeries()
  SweepPoint pt;
  PointRunner runner;
};

inline std::vector<apps::Series>& allSeries() {
  static std::vector<apps::Series> series;
  return series;
}

inline std::vector<SweepCase>& sweepCases() {
  static std::vector<SweepCase> cases;
  return cases;
}

}  // namespace detail

/// `api` running `bench` with the point's client nodes and processes per
/// node, against RunSpec's default 16 servers.
inline apps::RunSpec pointSpec(SweepPoint pt, std::string api,
                               apps::RunSpec::Bench bench) {
  return apps::RunSpec{.api = std::move(api),
                       .clients = pt.client_nodes,
                       .ppn = pt.procs_per_node,
                       .bench = std::move(bench)};
}

/// A figure binary reads its settings from DAOSIM_* variables only: any
/// argument prints usage and exits 2.
inline void noArguments(int argc, char** argv) {
  if (argc <= 1) return;
  std::cerr << "usage: " << argv[0] << "\n"
            << "Takes no arguments. Set DAOSIM_OPS, DAOSIM_REPS, "
               "DAOSIM_JOBS, DAOSIM_FULL_GRID\n"
            << "or the DAOSIM_* observation variables (see README) "
               "instead.\n";
  std::exit(2);
}

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

/// Registers one point per `grid` entry for `series`, run by `runner`.
inline void registerSweep(const std::string& series,
                          const std::vector<SweepPoint>& grid,
                          PointRunner runner,
                          const std::string& col1 = "clients") {
  std::vector<apps::Series>& all = detail::allSeries();
  std::size_t index = 0;
  while (index < all.size() && all[index].name != series) ++index;
  if (index == all.size()) all.push_back(apps::Series{series, {}});
  all[index].col1 = col1;
  for (const SweepPoint& pt : grid) {
    detail::sweepCases().push_back(detail::SweepCase{
        series + "/c" + std::to_string(pt.client_nodes) + "/n" +
            std::to_string(pt.procs_per_node),
        index, pt, runner});
  }
}

/// Registers one point per `grid` entry for `series`, each run through
/// apps::run with the RunSpec that `spec` gives for it.
inline void registerSweep(const std::string& series,
                          const std::vector<SweepPoint>& grid,
                          PointSpec spec,
                          const std::string& col1 = "clients") {
  registerSweep(
      series, grid,
      [spec = std::move(spec)](SweepPoint pt, std::uint64_t seed,
                               const apps::RunSlot& slot) {
        return apps::run(spec(pt), seed, slot);
      },
      col1);
}

/// main() body for every figure binary: run the sweep, write what it
/// observed, and print the paper-style tables to stderr.
inline int benchMain(int argc, char** argv, const char* figure_title,
                     bool show_iops = false) {
  noArguments(argc, argv);
  // A bad DAOSIM_OPS / DAOSIM_REPS / DAOSIM_JOBS or observation variable
  // fails here, before any run, rather than printing an all-zero table or
  // running some other sweep than the one asked for.
  std::size_t reps = 0;
  int jobs = 1;
  apps::ObserveSpec spec;
  try {
    apps::envOps();
    reps = static_cast<std::size_t>(apps::envReps());
    jobs = apps::envJobs();
    spec = apps::ObserveSpec::fromEnv();
  } catch (const std::invalid_argument& e) {
    std::cerr << argv[0] << ": " << e.what() << "\n";
    return 2;
  }
  const std::vector<detail::SweepCase>& cases = detail::sweepCases();
  const std::size_t n = cases.size() * reps;
  std::vector<std::string> labels(n);
  for (std::size_t i = 0; i < n; ++i) {
    labels[i] = cases[i / reps].name + "/rep/" + std::to_string(i % reps + 1);
  }
  std::vector<apps::RunResult> results;
  try {
    apps::SweepObservation observed(spec, std::move(labels));
    results = sim::parallelMap(n, jobs, [&](std::size_t i) {
      const detail::SweepCase& c = cases[i / reps];
      return c.runner(c.pt, i % reps + 1, observed.slot(i));
    });
    observed.finish(std::cout);
  } catch (const std::exception& e) {
    std::cerr << argv[0] << ": " << e.what() << "\n";
    return 1;
  }
  for (std::size_t c = 0; c < cases.size(); ++c) {
    apps::Measurement m;
    m.point = cases[c].pt;
    for (std::size_t r = 0; r < reps; ++r) m.add(results[c * reps + r]);
    detail::allSeries()[cases[c].series].points.push_back(m);
  }
  std::cerr << "\n#### " << figure_title << " ####\n";
  for (const apps::Series& s : detail::allSeries()) {
    apps::printSeries(std::cerr, s, show_iops);
  }
  return 0;
}

}  // namespace daosim::bench
