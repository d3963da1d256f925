// obs::Telemetry: a hierarchical, slash-pathed metric tree sampled into
// in-memory time series on a fixed simulated-time interval — the simulator's
// analogue of the DAOS d_tm telemetry tree that `daos_metrics` consumes.
//
// Metric paths mirror the deployed topology, e.g.
//   server/0/target/3/nvme/busy_frac     client/2/nic/rx/bytes
//   server/0/target/3/xs/queue_depth     net/inflight
// Three instrument kinds exist:
//   * counter — monotone cumulative value; sampled as-is;
//   * gauge   — instantaneous value; sampled as-is;
//   * rate    — monotone cumulative value; each sample is the per-second
//               delta over the elapsed bin ((cur - prev) / bin_seconds).
//               A probe returning busy *seconds* therefore samples as a
//               dimensionless busy fraction.
//
// Values come from two sources:
//   * probes: std::function<double()> registered per component at testbed
//     attach time (apps::registerProbes), pulled at every sample point —
//     the hot path is untouched;
//   * push handles: stable Telemetry::Handle pointers for layers without a
//     long-lived cumulative counter (e.g. io::SubmitQueue occupancy).
//     Registration allocates once; add()/set() never allocate.
//
// Sampling is driven by the simulation kernel, not a self-rescheduling
// process (which would keep the event queue from draining): when the kernel
// pops an event with timestamp strictly greater than the next sample
// boundary, it moves its clock to that boundary and snapshots every node
// there first (see sim::Simulation), so a probe that reads now() sees the
// sample time. finish() emits any remaining whole bins plus one final
// partial bin at the current time. With no telemetry attached the kernel
// pays a single integer compare per event and zero allocations.
//
// Timestamps in the series are relative to attach time, so dumps from
// repetitions with identical workloads are identical. Runs are merged
// deterministically through TelemetryHub (sorted by run label), which is
// what keeps serial and --jobs dumps byte-identical.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sim/time.h"

namespace daosim::sim {
class Simulation;
}

namespace daosim::obs {

/// Version stamped into the first line of every metrics and telemetry dump
/// (`# daosim-metrics schema=N`). v2: names are CSV-escaped, and dumps may
/// carry a time-series section (`series,name,t_ns,value` rows).
inline constexpr int kMetricsSchemaVersion = 2;

/// RFC-4180 field quoting: names containing commas, quotes or newlines are
/// wrapped in double quotes (embedded quotes doubled); everything else is
/// returned verbatim.
std::string csvField(const std::string& s);

class Telemetry {
 public:
  enum class Kind : std::uint8_t { kCounter, kGauge, kRate };
  static const char* kindName(Kind k) noexcept;

  /// One metric node: a path, a current value (pushed or probed), and the
  /// sampled values. Every node is sampled at each of the registry's
  /// sample times from its registration on, so `samples[i]` was taken at
  /// `sampleTimes()[first + i]`.
  struct Node {
    std::string path;
    Kind kind = Kind::kGauge;
    double value = 0;                 // latest cumulative / instantaneous
    std::function<double()> probe;    // overrides `value` while sampling
    double prev = 0;                  // previous cumulative (rate bins)
    std::size_t first = 0;            // sampleTimes() index of samples[0]
    std::vector<double> samples;
  };

  /// Stable push handle; never allocates after registration. A
  /// default-constructed handle is inert (for cached-handle sites).
  class Handle {
   public:
    Handle() = default;
    void add(double d) noexcept {
      if (n_ != nullptr) n_->value += d;
    }
    void inc() noexcept { add(1.0); }
    void set(double v) noexcept {
      if (n_ != nullptr) n_->value = v;
    }
    explicit operator bool() const noexcept { return n_ != nullptr; }

   private:
    friend class Telemetry;
    explicit Handle(Node* n) noexcept : n_(n) {}
    Node* n_ = nullptr;
  };

  /// `samples`, when given, counts the samples (series points over all
  /// nodes) the registry takes, and sampling fails once that count would
  /// pass kMaxSamples. A sweep's runs share one count, since the sweep
  /// keeps every run's registry until it ends (apps::SweepObservation). It
  /// may be shared across threads and must outlive sampling.
  explicit Telemetry(sim::Time interval = 10 * sim::kMillisecond,
                     std::atomic<std::size_t>* samples = nullptr);
  ~Telemetry();

  Telemetry(Telemetry&&) noexcept = default;
  Telemetry& operator=(Telemetry&&) noexcept = default;

  // --- registration (cold path; allocates) -----------------------------
  Handle counter(const std::string& path) {
    return Handle(instrument(path, Kind::kCounter));
  }
  Handle gauge(const std::string& path) {
    return Handle(instrument(path, Kind::kGauge));
  }
  Handle rate(const std::string& path) {
    return Handle(instrument(path, Kind::kRate));
  }
  /// Pull-style metric: `fn` is invoked at every sample point (and never
  /// after finish(), so it may reference run-scoped objects). A rate
  /// probe added while attached starts from its value at registration.
  void addProbe(const std::string& path, Kind kind, std::function<double()> fn);

  // --- lifecycle --------------------------------------------------------
  /// Starts sampling on `sim` (installs this as sim.telemetry()); the first
  /// boundary is attach-time + interval.
  void attach(sim::Simulation& sim);
  /// finish() + uninstall from the simulation.
  void detach();
  /// Emits every whole-bin sample up to the current simulated time plus a
  /// final partial bin, then drops all probe functions (safe to outlive the
  /// probed objects) and any spare capacity of the series. Idempotent;
  /// implied by detach().
  void finish();

  sim::Time interval() const noexcept { return interval_; }
  /// Monotone instance id for cached-handle invalidation (a fresh Telemetry
  /// never sees a handle cached against a previous one).
  std::uint64_t epoch() const noexcept { return epoch_; }

  // --- kernel interface -------------------------------------------------
  /// Samples the due boundary and returns the next one (absolute); called
  /// by the simulation kernel once its clock stands at the due boundary.
  /// Throws std::runtime_error, out of the simulation's run, once the
  /// counted samples would pass kMaxSamples.
  sim::Time sampleDue();

  /// The most samples a count may reach: 0.8 GB of values. Every figure
  /// binary's default sweep stays under it at the default interval; an
  /// interval too fine for the runs fails them instead of exhausting
  /// memory.
  static constexpr std::size_t kMaxSamples = 100'000'000;

  /// Throws the ceiling's std::runtime_error, which names the interval
  /// flag and variable, when `samples` pass kMaxSamples.
  static void checkSampleCeiling(std::size_t samples);

  // --- inspection / export ---------------------------------------------
  const std::vector<std::unique_ptr<Node>>& nodes() const noexcept {
    return nodes_;
  }
  const Node* find(const std::string& path) const;
  std::size_t sampleCount() const noexcept;
  /// Every sample time, relative to attach.
  const std::vector<sim::Time>& sampleTimes() const noexcept {
    return times_;
  }

  /// Schema-versioned CSV dump (`# daosim-metrics schema=2`): summary rows
  /// (`kind,path,value,total`) followed by a time-series section
  /// (`series,path,t_ns,value`). Requires finish().
  void writeCsv(std::ostream& os) const;

  /// Summary + series rows only (no header); every path gets `prefix`
  /// prepended. Used by TelemetryHub to splice runs into one dump.
  void writeCsvRows(std::ostream& os, const std::string& prefix) const;

 private:
  Node* instrument(const std::string& path, Kind kind);
  /// A rate's first bin counts only what happens after sampling starts,
  /// not what its probe accumulated before (testbed deployment).
  void startRate(Node& n);
  void sampleAt(sim::Time t);

  sim::Time interval_;
  sim::Time t0_ = 0;           // absolute attach time
  sim::Time next_due_ = 0;     // absolute next boundary
  sim::Time last_sample_ = 0;  // absolute time of the previous sample
  bool finished_ = false;
  std::atomic<std::size_t>* samples_;  // see the constructor; may be null
  sim::Simulation* sim_ = nullptr;
  std::uint64_t epoch_;
  std::vector<sim::Time> times_;  // relative to attach, one per sample time
  std::vector<std::unique_ptr<Node>> nodes_;
  std::map<std::string, Node*> by_path_;
};

/// Collects finished per-run Telemetry registries and writes one merged
/// dump with every path prefixed by its run label. The dump iterates labels
/// sorted, so it does not depend on the order runs were added in. A hub is
/// single-threaded: a sweep whose runs execute concurrently keeps one
/// registry per run and adds them once the sweep is done
/// (apps::SweepObservation).
class TelemetryHub {
 public:
  /// Takes ownership of a run's registry (finishing it). Labels must be
  /// unique per run and deterministic (derived from the run's identity,
  /// not from scheduling); a duplicate label keeps the first registry.
  void add(const std::string& label, Telemetry t);

  std::size_t runCount() const noexcept { return runs_.size(); }

  /// Schema-versioned CSV dump of every run. An empty hub writes just the
  /// header, which is the metrics file format: callers append flat rows
  /// such as obs::Observer::writeOpRows after it.
  void writeCsv(std::ostream& os) const;

 private:
  std::map<std::string, Telemetry> runs_;
};

}  // namespace daosim::obs
