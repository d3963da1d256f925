// FaultInjector: executes a sim::FaultPlan against a DaosTestbed.
//
// The injector is the bridge between the pure-data plan (sim/fault_plan.h)
// and the deployed hardware/DAOS objects: a driver process walks the plan
// and applies each event at its exact simulated time — device fail/recover,
// administrative exclusion (which also kicks off a background
// daos::rebuild), device slowdown, NIC flaps (with timed restore) and
// engine stalls. Because every action happens at a scheduled simulated
// time on the deterministic kernel, chaos runs replay bit-identically,
// serially and under --jobs N.
//
// An empty plan is a strict no-op: install() spawns nothing and
// registerTelemetry() adds no paths, so a run with an empty injector is
// byte-identical to one without an injector (enforced by the conformance
// suite).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "apps/testbed.h"
#include "sim/fault_plan.h"
#include "sim/simulation.h"

namespace daosim::obs {
class Telemetry;
}

namespace daosim::apps {

/// Cumulative fault/rebuild accounting, exposed under faults/* telemetry
/// paths and in the --stats summary.
struct FaultStats {
  std::uint64_t events_applied = 0;
  std::uint64_t rebuilds_started = 0;
  std::uint64_t rebuilds_completed = 0;
  std::uint64_t rebuild_records_restored = 0;
  std::uint64_t rebuild_bytes_moved = 0;
  /// Surfaced from daos::RebuildStats — unprotected data is reported, never
  /// silently dropped.
  std::uint64_t objects_lost = 0;
  std::uint64_t records_unrecoverable = 0;
};

class FaultInjector {
 public:
  /// Validates every event subject against the testbed's topology
  /// (throws std::out_of_range up front, so a bad plan never fails inside
  /// a detached driver process).
  FaultInjector(DaosTestbed& testbed, sim::FaultPlan plan);

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Spawns the driver process on the testbed's kernel. Call once, before
  /// sim.run(). No-op for an empty plan.
  void install();

  /// Registers faults/* probes (events applied, retries/timeouts live on
  /// net/*, rebuild progress and loss counters). No-op for an empty plan,
  /// keeping empty-plan telemetry dumps byte-identical to plan-free runs.
  void registerTelemetry(obs::Telemetry& telemetry);

  const sim::FaultPlan& plan() const noexcept { return plan_; }
  const FaultStats& stats() const noexcept { return stats_; }

  /// Rethrows the first exception any injector-spawned process died with
  /// (call after sim.run(); detached processes otherwise swallow errors).
  void rethrowIfFailed() const;

  /// Human-readable "fault injection summary" block (--stats).
  void writeSummary(std::ostream& os) const;

 private:
  void applyEvent(const sim::FaultEvent& e);
  void markTrace(const sim::FaultEvent& e);

  // Driver/helper processes. Static members taking `self` keep coroutine
  // parameters plain data (see net/rpc.h's GCC-12 note).
  static sim::Task<void> drive(FaultInjector* self);
  static sim::Task<void> restoreLink(FaultInjector* self, int node,
                                     sim::Time after);
  static sim::Task<void> stallFor(FaultInjector* self,
                                  sim::QueueStation* station, sim::Time dur);
  static sim::Task<void> rebuildVictim(FaultInjector* self, int victim);

  DaosTestbed* testbed_;
  sim::FaultPlan plan_;
  FaultStats stats_;
  std::vector<sim::ProcHandle> procs_;
  bool installed_ = false;
};

}  // namespace daosim::apps
