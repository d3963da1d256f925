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
// repetitions with identical workloads are identical. A sweep writes its
// runs' rows into one dump in run order (apps::SweepObservation), which is
// what keeps serial and --jobs dumps byte-identical.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <memory>
#include <span>
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

/// Writes a dump's header: the schema line, one `# telemetry run=<label>
/// interval_ns=<interval>` line per run label in the order given, and the
/// column header. With no runs it is the metrics file's header; rows such
/// as Telemetry::writeCsvRows and obs::Observer::writeOpRows follow it.
void writeDumpHeader(std::ostream& os, std::span<const std::string> runs = {},
                     sim::Time interval = 0);

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

  explicit Telemetry(sim::Time interval = 10 * sim::kMillisecond);
  ~Telemetry();

  Telemetry(Telemetry&&) noexcept = default;

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
  /// Emits every whole-bin sample up to the current simulated time plus a
  /// final partial bin, uninstalls from the simulation, then drops all
  /// probe functions (safe to outlive the probed objects). Idempotent.
  void finish();

  /// Monotone instance id for cached-handle invalidation (a fresh Telemetry
  /// never sees a handle cached against a previous one).
  std::uint64_t epoch() const noexcept { return epoch_; }

  // --- kernel interface -------------------------------------------------
  /// Samples the due boundary and returns the next one (absolute); called
  /// by the simulation kernel once its clock stands at the due boundary.
  /// Throws std::runtime_error naming the interval flag and variable, out
  /// of the simulation's run, once the samples would pass kMaxSamples.
  sim::Time sampleDue();

  /// The most samples one registry may hold: 0.8 GB of values. Every
  /// figure binary's default runs stay far under it at the default
  /// interval; one too fine for a run fails it instead of exhausting memory.
  static constexpr std::size_t kMaxSamples = 100'000'000;

  // --- inspection / export ---------------------------------------------
  const std::vector<std::unique_ptr<Node>>& nodes() const noexcept {
    return nodes_;
  }
  const Node* find(const std::string& path) const;
  /// Series points over all nodes.
  std::size_t sampleCount() const noexcept { return sample_count_; }
  /// Every sample time, relative to attach.
  const std::vector<sim::Time>& sampleTimes() const noexcept {
    return times_;
  }

  /// The registry's dump rows, after a writeDumpHeader header: summary
  /// rows (`kind,path,total,value`) followed by a time-series section
  /// (`series,path,t_ns,value`), every path with `prefix` prepended.
  /// Requires finish().
  std::ostream& writeCsvRows(std::ostream& os,
                             const std::string& prefix) const;

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
  std::size_t sample_count_ = 0;  // series points over all nodes
  sim::Simulation* sim_ = nullptr;
  std::uint64_t epoch_;
  std::vector<sim::Time> times_;  // relative to attach, one per sample time
  std::vector<std::unique_ptr<Node>> nodes_;
  std::map<std::string, Node*> by_path_;
};

}  // namespace daosim::obs
