// Telemetry wiring for the testbeds: walks a deployed system and registers
// one pull probe per hot component under a topology-mirroring path, e.g.
//
//   server/<e>/target/<t>/nvme/busy_frac      server/<e>/nic/tx/bytes_per_s
//   server/<e>/target/<t>/xs/queue_len        client/<i>/dfuse/cache_hit_frac
//   ost/<i>/cpu/busy_frac                     osd/<i>/threads/busy_frac
//   net/inflight                              net/rpc_req_per_s
//
// Busy-fraction probes return cumulative busy *seconds* under Kind::kRate,
// so each sampled bin is the dimensionless utilization over that bin.
// Multi-server stations (DFUSE, MDS, OSD op threads) divide by the thread
// count to report per-thread utilization.
//
// ScopedRunTelemetry is the per-run RAII wrapper the bench binaries and
// daosim_run use: it attaches a Telemetry to the run's simulation and, on
// destruction, finishes it and hands it to TelemetryHub::global() under a
// deterministic run label (which is what keeps serial and --jobs sweeps
// byte-identical).
#pragma once

#include <optional>
#include <string>

#include "apps/testbed.h"
#include "obs/telemetry.h"
#include "sim/time.h"

namespace daosim::apps {

void registerProbes(obs::Telemetry& t, DaosTestbed& tb);
void registerProbes(obs::Telemetry& t, LustreTestbed& tb);
void registerProbes(obs::Telemetry& t, CephTestbed& tb);

/// Parses a duration: a plain number is nanoseconds; "us"/"ms"/"s"/"ns"
/// suffixes are honoured ("10ms", "500us"). Throws std::invalid_argument on
/// junk or non-positive values.
sim::Time parseDuration(const std::string& s);

/// DAOSIM_TELEMETRY: output file enabling telemetry in the bench binaries
/// ("" when unset). DAOSIM_TELEMETRY_INTERVAL: sampling interval (default
/// 10ms sim-time).
std::string telemetryEnvFile();
sim::Time telemetryEnvInterval();

/// Writes TelemetryHub::global() to telemetryEnvFile() if set and any run
/// was collected (JSON when the file name ends in ".json", CSV otherwise).
/// Called by benchMain after the sweeps drain.
void flushTelemetryEnv();

/// Per-run telemetry scope. The env-gated form is inert unless
/// DAOSIM_TELEMETRY is set; the explicit form is driven by a CLI flag.
/// While active, register probes with `registerProbes(s.telemetry(), tb)`.
class ScopedRunTelemetry {
 public:
  /// Env-gated (bench binaries): enabled iff DAOSIM_TELEMETRY is set, with
  /// the interval from DAOSIM_TELEMETRY_INTERVAL.
  ScopedRunTelemetry(sim::Simulation& sim, std::string label)
      : ScopedRunTelemetry(sim, std::move(label), !telemetryEnvFile().empty(),
                           telemetryEnvInterval()) {}

  /// Explicit (daosim_run --telemetry).
  ScopedRunTelemetry(sim::Simulation& sim, std::string label, bool enabled,
                     sim::Time interval);

  ScopedRunTelemetry(const ScopedRunTelemetry&) = delete;
  ScopedRunTelemetry& operator=(const ScopedRunTelemetry&) = delete;

  /// Finishes the run and moves the registry into TelemetryHub::global().
  ~ScopedRunTelemetry();

  bool active() const noexcept { return t_.has_value(); }
  obs::Telemetry& telemetry() noexcept { return *t_; }

 private:
  std::string label_;
  std::optional<obs::Telemetry> t_;
};

}  // namespace daosim::apps
