// Observer: the single sink every instrumentation site in the simulator
// guards on.
//
// `sim::Simulation` holds a raw `Observer*` that is null by default; each
// hot-path hook is one `if (auto* o = sim.observer())` branch, so the
// disabled cost is a pointer load and compare. When attached, the observer
//   * assigns op ids and aggregates per-op-type latency histograms plus a
//     category breakdown (client CPU / net request / server queue / service /
//     device / net response) — always on. Each op keeps its legs until it
//     ends, and the breakdown is the op's critical path (CriticalPath);
//   * optionally records every span and leg into a Tracer for chrome://tracing
//     export (enableTracing(); off by default since event storage grows with
//     the run).
//
// Ops are identified by explicit `OpId` values threaded through coroutine
// parameters (plain data, safe under the GCC-12 closure-parameter rule); the
// id 0 means "not traced" and instrumentation sites ignore it.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "obs/critical_path.h"
#include "obs/histogram.h"
#include "obs/trace.h"
#include "sim/simulation.h"

namespace daosim::obs {

class Observer {
 public:
  Observer();
  ~Observer();
  Observer(const Observer&) = delete;
  Observer& operator=(const Observer&) = delete;

  /// Registers this observer as `sim`'s sink. One observer per simulation;
  /// detaches automatically on destruction.
  void attach(sim::Simulation& sim);
  void detach();
  /// The simulation this observer is attached to (null when detached).
  sim::Simulation* simulation() const noexcept { return sim_; }

  /// Unique across all Observer instances in the process. Stations cache
  /// their TrackId keyed by this epoch so a fresh observer (new rep) never
  /// sees a stale id.
  std::uint64_t epoch() const noexcept { return epoch_; }

  /// Turns on span/leg event recording (for --trace). Aggregation is always
  /// on while attached.
  void enableTracing();
  Tracer* tracer() noexcept { return tracer_.get(); }
  const Tracer* tracer() const noexcept { return tracer_.get(); }

  /// Turns on the bounded-memory tail-exemplar reservoir: the `k` slowest
  /// ops per op-type are retained with their full leg trees (independent of
  /// tracing, which stores every event). `rep` tags exemplars with the
  /// repetition index so reservoirs from parallel reps merge
  /// deterministically.
  void enableExemplars(std::size_t k, std::uint32_t rep = 0);
  ExemplarReservoir* exemplars() noexcept { return reservoir_.get(); }
  const ExemplarReservoir* exemplars() const noexcept {
    return reservoir_.get();
  }
  /// Releases the reservoir, e.g. to merge per-repetition reservoirs in
  /// repetition order after a parallel sweep.
  std::unique_ptr<ExemplarReservoir> takeExemplars() noexcept {
    return std::move(reservoir_);
  }

  sim::Time now() const noexcept;

  TrackId track(int pid, std::string_view name);

  /// Opens a new op of `type` (a string literal) on `track`; returns its id.
  OpId beginOp(const char* type, TrackId track);

  /// Closes `op`. `type`/`track`/`start` are carried by the caller (OpScope)
  /// rather than stored per op, keeping the open-op table small.
  void endOp(OpId op, const char* type, TrackId track, sim::Time start);

  /// Records that `op` occupied `track` from `start` to now(): queue-wait
  /// for the first `wait` ns, service of category `cat` for the rest. `id`
  /// 0 allocates a fresh leg id; a nonzero `id` must come from openLeg() on
  /// the same op. Returns the leg id (0 for op 0 or an op that already
  /// ended).
  LegId leg(OpId op, Cat cat, TrackId track, const char* name,
            sim::Time start, sim::Time wait = 0, LegId id = 0);

  /// Pre-allocates the id of a forthcoming leg of `op`, so children created
  /// while the leg is still running can name it as parent via
  /// withParent(op, id). Record the leg later by passing the id to leg().
  LegId openLeg(OpId op);

  /// Per-op-type aggregate: latency histogram plus the ops' summed
  /// critical-path split. Each instant of an op goes to the deepest leg
  /// active then: kServerQueue inside its wait prefix, its category after;
  /// kClient when no leg is active. The categories sum to latency.sum().
  struct OpTypeAgg {
    std::uint64_t count = 0;
    Histogram latency;                      // ns per op
    std::uint64_t cat_ns[kCatCount] = {};  // summed split per category
  };

  /// Keyed by string literal identity-by-content (op types are literals).
  const std::map<std::string, OpTypeAgg>& opTypes() const noexcept {
    return op_types_;
  }

  std::uint64_t opsStarted() const noexcept { return next_op_ - 1; }

  /// Writes the per-op-type aggregates as `kind,name,field,value` dump rows
  /// (no header), counters then histograms, each sorted by name:
  /// `op.<type>.count`, one `op.<type>.<category>_ns` per nonzero category,
  /// and `op.<type>.latency_ns` count/min/max/mean/p50/p95/p99. They follow
  /// an obs::writeDumpHeader header in metrics and telemetry dumps.
  void writeOpRows(std::ostream& os) const;

  void writeChromeTrace(std::ostream& os) const;

  /// Human-readable per-layer breakdown table: for each op type, count,
  /// latency percentiles, and % of total time per category.
  void writeBreakdown(std::ostream& os) const;

 private:
  struct OpenOp {
    LegId next_leg = 0;  // per-op leg id allocator
    std::vector<TraceEvent> legs;
  };

  /// Interns a tracer track into the reservoir's own table (cached).
  TrackId reservoirTrack(TrackId t);

  std::uint64_t epoch_;
  sim::Simulation* sim_ = nullptr;
  std::unique_ptr<Tracer> tracer_;
  bool tracing_ = false;  // tracer_ may exist just to host the track registry
  std::unique_ptr<ExemplarReservoir> reservoir_;
  std::uint32_t rep_ = 0;
  std::vector<TrackId> reservoir_track_;  // tracer TrackId -> reservoir id
  OpId next_op_ = 1;
  std::map<OpId, OpenOp> open_;  // keyed by op sequence number
  std::vector<std::vector<TraceEvent>> spare_legs_;  // cleared, kept capacity
  CriticalPath path_;
  std::map<std::string, OpTypeAgg> op_types_;
};

/// RAII op span. Default-constructed (or moved-from) scopes are inert, so
/// call sites stay a single line whether or not an observer is attached:
///
///   auto op = obs::beginOp(sim, "array.write", node_, "client3");
///   ... co_await legs passing op.id() ...
///   (destructor or op.end() closes the span at the current sim time)
///
/// A scope records only while its observer is still attached to the
/// simulation it was opened on. A process still suspended when its
/// Simulation dies has its frames destroyed by ~Simulation, typically after
/// the observer detached or died; its scopes then close silently.
class OpScope {
 public:
  OpScope() = default;
  OpScope(Observer* o, const char* type, TrackId track)
      : o_(o), sim_(o->simulation()), type_(type), track_(track),
        id_(o->beginOp(type, track)), start_(o->now()) {}
  OpScope(OpScope&& other) noexcept { *this = std::move(other); }
  OpScope& operator=(OpScope&& other) noexcept {
    end();
    o_ = other.o_;
    sim_ = other.sim_;
    type_ = other.type_;
    track_ = other.track_;
    id_ = other.id_;
    start_ = other.start_;
    other.o_ = nullptr;
    other.id_ = 0;
    return *this;
  }
  ~OpScope() { end(); }

  OpId id() const noexcept { return id_; }

  void end() noexcept {
    if (o_ != nullptr && id_ != 0 && sim_->observer() == o_) {
      o_->endOp(id_, type_, track_, start_);
    }
    o_ = nullptr;
    id_ = 0;
  }

 private:
  Observer* o_ = nullptr;
  sim::Simulation* sim_ = nullptr;  // the simulation `o_` was attached to
  const char* type_ = nullptr;
  TrackId track_ = 0;
  OpId id_ = 0;
  sim::Time start_ = 0;
};

/// RAII structural leg: groups child legs under one node of the op's causal
/// tree; it owns the instants none of its children covers.
/// ctx() is the OpId to thread into child work — it names this leg as the
/// children's parent. Default-constructed scopes are inert and ctx() passes
/// the original op through unchanged. Like OpScope, it records nothing once
/// its observer has left the simulation it was opened on.
class LegScope {
 public:
  LegScope() = default;
  LegScope(Observer* o, OpId op, const char* name, Cat cat, TrackId track)
      : o_(o), sim_(o->simulation()), op_(op), name_(name), cat_(cat),
        track_(track), id_(o->openLeg(op)), start_(o->now()) {}
  LegScope(LegScope&& other) noexcept { *this = std::move(other); }
  LegScope& operator=(LegScope&& other) noexcept {
    end();
    o_ = other.o_;
    sim_ = other.sim_;
    op_ = other.op_;
    name_ = other.name_;
    cat_ = other.cat_;
    track_ = other.track_;
    id_ = other.id_;
    start_ = other.start_;
    other.o_ = nullptr;
    other.id_ = 0;
    return *this;
  }
  ~LegScope() { end(); }

  /// Op id for child work: children record this leg as their parent.
  OpId ctx() const noexcept {
    return id_ != 0 ? withParent(op_, id_) : op_;
  }

  void end() noexcept {
    if (o_ != nullptr && id_ != 0 && sim_->observer() == o_) {
      o_->leg(op_, cat_, track_, name_, start_, 0, id_);
    }
    o_ = nullptr;
    id_ = 0;
  }

 private:
  Observer* o_ = nullptr;
  sim::Simulation* sim_ = nullptr;  // the simulation `o_` was attached to
  OpId op_ = 0;
  const char* name_ = nullptr;
  Cat cat_ = Cat::kOther;
  TrackId track_ = 0;
  LegId id_ = 0;
  sim::Time start_ = 0;
};

/// Opens an op span if `sim` has an observer; inert OpScope otherwise.
inline OpScope beginOp(sim::Simulation& sim, const char* type, int pid,
                       std::string_view track_name) {
  Observer* o = sim.observer();
  if (o == nullptr) return {};
  return OpScope(o, type, o->track(pid, track_name));
}

}  // namespace daosim::obs
