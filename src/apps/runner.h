// SPMD benchmark harness.
//
// The paper's benchmarks run as sets of parallel processes pinned evenly
// across client nodes, with a barrier between the write and read phases.
// Bandwidth follows the paper's definition (§II): total bytes moved divided
// by the wall-clock span from the first operation's start to the last
// operation's end, per phase.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "hw/cluster.h"
#include "obs/histogram.h"
#include "sim/rng.h"
#include "sim/simulation.h"
#include "sim/sync.h"
#include "sim/task.h"
#include "sim/time.h"

namespace daosim::apps {

enum Phase : int { kWrite = 0, kRead = 1 };

/// Identity-salt domains: each benchmark stamps its client ids (and hence
/// its OID space) from a disjoint range.
inline constexpr std::uint32_t kIorIdDomain = 0x10000;
inline constexpr std::uint32_t kFieldIoIdDomain = 0x20000;
inline constexpr std::uint32_t kFdbIdDomain = 0x30000;

/// Per-rank client identity, salted by the testbed seed so repetitions draw
/// different OIDs (and hence placements), like real reruns do.
inline std::uint32_t spmdClientId(std::uint64_t seed, std::uint32_t domain,
                                  int rank) {
  return static_cast<std::uint32_t>(sim::hashCombine(
      seed, domain + static_cast<std::uint64_t>(rank)));
}

struct PhaseResult {
  std::uint64_t bytes = 0;
  std::uint64_t ops = 0;
  sim::Time first_start = std::numeric_limits<sim::Time>::max();
  sim::Time last_end = 0;
  obs::Histogram latency;  // per-op latency in ns, across all processes

  sim::Time span() const noexcept {
    return last_end > first_start ? last_end - first_start : 0;
  }
  double seconds() const noexcept { return sim::toSeconds(span()); }
  double gibps() const noexcept {
    const double s = seconds();
    return s > 0 ? static_cast<double>(bytes) / (1ULL << 30) / s : 0.0;
  }
  double iops() const noexcept {
    const double s = seconds();
    return s > 0 ? static_cast<double>(ops) / s : 0.0;
  }
};

struct RunResult {
  PhaseResult phase[2];
  int procs = 0;

  const PhaseResult& write() const noexcept { return phase[kWrite]; }
  const PhaseResult& read() const noexcept { return phase[kRead]; }
};

/// Per-process context handed to a benchmark's process().
struct ProcContext {
  int rank = 0;
  int nprocs = 0;
  hw::NodeId node = 0;
  sim::Simulation* sim = nullptr;
  sim::Barrier* barrier = nullptr;
  RunResult* result = nullptr;

  /// Records one completed operation ending now.
  void record(Phase phase, std::uint64_t bytes, sim::Time start) const {
    PhaseResult& p = result->phase[phase];
    p.bytes += bytes;
    p.ops += 1;
    if (start < p.first_start) p.first_start = start;
    if (sim->now() > p.last_end) p.last_end = sim->now();
    p.latency.add(sim->now() - start);
  }
};

class SpmdBenchmark {
 public:
  virtual ~SpmdBenchmark() = default;
  /// Body of one process. Use ctx.barrier->arriveAndWait() between phases.
  virtual sim::Task<void> process(ProcContext ctx) = 0;
};

/// Runs `procs_per_node` processes on each listed client node to
/// completion; rethrows the first process failure. Rank r runs on
/// nodes[r / procs_per_node]. Observation is the caller's business (see
/// apps/observe.h).
RunResult runSpmd(sim::Simulation& sim, const std::vector<hw::NodeId>& nodes,
                  int procs_per_node, SpmdBenchmark& bench);

}  // namespace daosim::apps
