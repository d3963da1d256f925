// One observation path for a sweep of independent runs. The figure harness
// (bench/bench_util.h) and daosim_run both observe their runs through it:
//
//   ObserveSpec       what to observe, read from the DAOSIM_* variables
//                     (daosim_run's flags override them);
//   SweepObservation  owns the last run's observer and one exemplar
//                     reservoir per run, streams the telemetry dump, and
//                     writes every other report and file after the sweep;
//   ObservedRun       the RAII scope a run opens right after it builds its
//                     testbed: it attaches the observer and a telemetry
//                     registry with that testbed's probes, and hands both
//                     back to the sweep when the run ends.
//
// Only the last run is traced and its op aggregates dumped (mirrors
// --stats); exemplars and telemetry cover every run. Runs may execute
// concurrently (sim::parallelMap) and end in any order: a run's telemetry
// rows are written once every earlier run has ended, and exemplars merge
// in run order, so every output has the same bytes at any job count.
#pragma once

#include <cstddef>
#include <exception>
#include <fstream>
#include <memory>
#include <mutex>
#include <optional>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "apps/telemetry_probes.h"
#include "obs/observer.h"
#include "obs/telemetry.h"
#include "sim/time.h"

namespace daosim::apps {

class FaultInjector;

/// What a sweep observes; an empty file name is off.
struct ObserveSpec {
  std::string trace_file;      // DAOSIM_TRACE: Chrome trace, last run
  std::string metrics_file;    // DAOSIM_METRICS: op rows, last run
  std::string telemetry_file;  // DAOSIM_TELEMETRY: dump of every run
  sim::Time telemetry_interval = 0;  // DAOSIM_TELEMETRY_INTERVAL, or 10ms
  std::size_t exemplars = 0;  // DAOSIM_EXEMPLARS: K slowest ops per type
  bool stats = false;  // daosim_run --stats: the last run's report

  /// `given` with each field it leaves unset (empty, 0) read from its
  /// variable. Throws std::invalid_argument naming the variable when the
  /// interval is not a positive duration, the exemplar count is not a whole
  /// number, a metrics or telemetry file name ends in ".json", or two of
  /// the three files are one regular (or not yet existing) file.
  static ObserveSpec fromEnv(ObserveSpec given);
  static ObserveSpec fromEnv() { return fromEnv(ObserveSpec{}); }
};

/// True when `file` ends in ".json". Metrics and telemetry dumps are CSV
/// only, so such a name is refused before any run.
bool jsonName(const std::string& file);

class SweepObservation;

/// One run's place in an observed sweep. A default slot observes nothing.
struct RunSlot {
  SweepObservation* sweep = nullptr;
  std::size_t index = 0;  // run order; the highest index is the last run
};

class SweepObservation {
 public:
  /// A sweep of one run per label, in run order; each label is unique and
  /// prefixes its run's telemetry paths. With a telemetry file, opens it
  /// and writes the dump's header at once: a file that cannot be written
  /// throws std::runtime_error before any run.
  SweepObservation(ObserveSpec spec, std::vector<std::string> labels);
  /// Removes a telemetry dump that finish() did not complete, if it is a
  /// regular file (not, say, /dev/null): a failed sweep leaves no dump.
  ~SweepObservation();
  SweepObservation(const SweepObservation&) = delete;
  SweepObservation& operator=(const SweepObservation&) = delete;

  RunSlot slot(std::size_t index) { return RunSlot{this, index}; }

  /// Writes what the sweep observed, once all runs have ended: with stats,
  /// the last run's fault injection summary and per-op breakdown; with
  /// exemplars, one merged tail report; the trace and metrics files; the
  /// last run's op rows, which complete the telemetry dump; with stats,
  /// the telemetry bottleneck report. Reports go to `out`. Throws
  /// std::runtime_error naming a file that cannot be written.
  void finish(std::ostream& out);

 private:
  friend class ObservedRun;

  struct Slot {
    std::unique_ptr<obs::ExemplarReservoir> tail;
    std::optional<obs::Telemetry> telemetry;  // guarded by mu_; not written
  };

  /// Takes the registry of run `index`, which has ended, then writes the
  /// rows of each run whose earlier runs have all ended, in run order, and
  /// frees its registry.
  void end(std::size_t index, obs::Telemetry telemetry);

  ObserveSpec spec_;
  std::vector<std::string> labels_;
  bool observe_last_;  // the last run attaches last_
  obs::Observer last_;
  std::string fault_summary_;  // with stats: the last run's, if it had one
  std::vector<Slot> slots_;
  std::mutex mu_;
  std::size_t next_;          // guarded by mu_: the first unwritten run
  std::exception_ptr error_;  // guarded by mu_: the first write that threw
  std::ofstream dump_;  // open until finish() completes the dump
  std::stringstream stats_rows_;  // with stats: the rows the report parses
};

/// Observes one run of a sweep for as long as it lives; open it right after
/// the testbed is built, and let it die before the testbed.
class ObservedRun {
 public:
  template <typename Testbed>
  ObservedRun(const RunSlot& slot, Testbed& tb) : ObservedRun(slot, tb.sim()) {
    if (telemetry_) registerProbes(*telemetry_, tb);
  }
  ~ObservedRun();
  ObservedRun(const ObservedRun&) = delete;
  ObservedRun& operator=(const ObservedRun&) = delete;

  /// The run's telemetry registry, or null when telemetry is off (e.g. for
  /// FaultInjector::registerTelemetry).
  obs::Telemetry* telemetry() noexcept {
    return telemetry_ ? &*telemetry_ : nullptr;
  }

  /// With stats, keeps the last run's fault injection summary for finish()
  /// to print; a sweep that fails never prints one.
  void keepFaultSummary(const FaultInjector& injector);

 private:
  ObservedRun(const RunSlot& slot, sim::Simulation& sim);

  RunSlot slot_;
  int uncaught_ = std::uncaught_exceptions();  // more at the end: it failed
  obs::Observer* observer_ = nullptr;
  std::optional<obs::Observer> local_;  // a non-last run's, for exemplars
  std::optional<obs::Telemetry> telemetry_;
};

}  // namespace daosim::apps
