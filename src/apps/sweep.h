// Sweep utilities shared by the per-figure benchmark binaries: the paper's
// client-node/process-count grids, op-count scaling, repetition statistics
// (mean ± stddev over 3 runs, as in §II), and table printing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "apps/runner.h"
#include "sim/stats.h"

namespace daosim::apps {

struct SweepPoint {
  int client_nodes = 1;
  int procs_per_node = 1;
  int totalProcs() const noexcept { return client_nodes * procs_per_node; }
};

/// Aggregated repetitions of one sweep point.
struct Measurement {
  SweepPoint point;
  sim::Welford write_gibps;
  sim::Welford read_gibps;
  sim::Welford write_kiops;
  sim::Welford read_kiops;
  obs::Histogram write_lat;  // per-op ns, merged across reps
  obs::Histogram read_lat;

  void add(const RunResult& r) {
    write_gibps.add(r.write().gibps());
    read_gibps.add(r.read().gibps());
    write_kiops.add(r.write().iops() / 1e3);
    read_kiops.add(r.read().iops() / 1e3);
    write_lat.merge(r.write().latency);
    read_lat.merge(r.read().latency);
  }
};

struct Series {
  std::string name;
  std::vector<Measurement> points;
  /// Label of the first column (default "clients"; the server-scaling
  /// figure reuses it as "servers").
  std::string col1 = "clients";
};

/// The paper's client-count optimisation grid: client node counts doubling
/// up to `max_clients`, with `procs_per_node` processes each (the per-node
/// process counts the paper found optimal are applied by the callers).
std::vector<SweepPoint> clientNodeGrid(int max_clients, int procs_per_node);

/// A (nodes x procs) cross grid, for full optimisation sweeps.
std::vector<SweepPoint> crossGrid(std::vector<int> client_nodes,
                                  std::vector<int> procs_per_node);

/// Scales per-process op counts so the total per run stays near
/// `total_target` (keeps big sweeps fast without flattening small ones).
std::uint64_t scaledOps(int total_procs, std::uint64_t base_ops,
                        std::uint64_t total_target = 40000);

/// A count from the environment variable `name`: `def` when unset or empty.
/// Any other value that is not a whole decimal number in [lo, hi] throws
/// std::invalid_argument naming the variable.
std::uint64_t envCount(const char* name, std::uint64_t def, std::uint64_t lo,
                       std::uint64_t hi);

/// Environment overrides: DAOSIM_OPS (per-process op base),
/// DAOSIM_REPS (repetitions), DAOSIM_FULL_GRID (1 = larger grids, 0 or
/// unset = the default grids). A set DAOSIM_OPS or DAOSIM_REPS that is not a
/// whole number >= 1, or a DAOSIM_FULL_GRID other than 0 or 1, throws
/// std::invalid_argument naming the variable.
std::uint64_t envOps(std::uint64_t def = 1000);
int envReps(int def = 3);
bool envFullGrid();

/// DAOSIM_JOBS: threads for a sweep's independent runs (sim::parallelMap);
/// unset, empty or 0 means hardware concurrency. Any other value that is
/// not a whole number throws std::invalid_argument naming the variable.
int envJobs();

/// Paper-style table: one row per point with write/read mean ± stddev.
void printSeries(std::ostream& os, const Series& series,
                 bool show_iops = false);

}  // namespace daosim::apps
