// Critical-path analysis over causal leg trees (trace schema 2).
//
// Three pieces:
//   * ExemplarReservoir — bounded-memory store of the K slowest ops per
//     op-type with their full leg trees. Offers are kept in a total order
//     (duration desc, then start/rep/seq asc), so merging per-rep
//     reservoirs in any order yields the same result, which makes
//     `--jobs N` runs byte-identical to serial ones.
//   * CriticalPath / decomposeOp — exact per-op wait-vs-service split:
//     every nanosecond of the op span is attributed to the deepest leg
//     active at that instant (its queue-wait prefix or its service
//     remainder), or to the "client" residual when no leg is active.
//     Integer arithmetic throughout, so the per-op station sums equal the
//     span duration exactly. The observer's per-category split is the same
//     walk.
//   * writers — p50/p95/p99 breakdown tables, exemplar leg-tree dumps,
//     folded-stack flamegraph lines, and a per-station A/B diff. Shared by
//     tools/daosim_trace and the in-process reservoir printers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "obs/trace.h"
#include "sim/time.h"

namespace daosim::obs {

struct TrackDesc {
  int pid = 0;
  std::string name;
};

/// One op with its retained leg tree; the unit both the reservoir and the
/// trace reader hand to the analyzer. `track` indexes the owning container's
/// track table; leg names are static strings (instrumentation literals) or
/// strings interned by the trace reader.
struct OpRecord {
  std::string type;
  std::uint64_t seq = 0;   // op sequence number within its run
  std::uint32_t rep = 0;   // repetition index (0 for single runs)
  TrackId track = 0;
  sim::Time start = 0;
  sim::Time dur = 0;
  std::vector<TraceEvent> legs;
};

/// Keeps the K slowest ops per op-type, each with its full leg tree and a
/// private track table (so exemplars survive the simulation that produced
/// them). Memory is O(types * K * legs-per-op) regardless of run length.
class ExemplarReservoir {
 public:
  explicit ExemplarReservoir(std::size_t k) : k_(k == 0 ? 1 : k) {}

  /// Total order used for retention: slower ops first; ties broken by
  /// (start, rep, seq) so the winner set is unique and merge-order free.
  static bool slower(const OpRecord& a, const OpRecord& b) noexcept {
    if (a.dur != b.dur) return a.dur > b.dur;
    if (a.start != b.start) return a.start < b.start;
    if (a.rep != b.rep) return a.rep < b.rep;
    return a.seq < b.seq;
  }

  /// Registers (or finds) a track in the reservoir's own table.
  TrackId internTrack(int pid, std::string_view name);

  /// Considers `op` for retention; leg events must already reference this
  /// reservoir's track table (see Observer's remapping at endOp).
  void offer(OpRecord op);

  /// Folds `other` into this reservoir, remapping its track ids. offer() is
  /// commutative under slower(), so any merge order gives the same state.
  void merge(const ExemplarReservoir& other);

  std::size_t k() const noexcept { return k_; }
  const std::vector<TrackDesc>& tracks() const noexcept { return tracks_; }
  /// Per type, the retained ops sorted slowest-first.
  const std::map<std::string, std::vector<OpRecord>>& byType() const noexcept {
    return by_type_;
  }

 private:
  std::size_t k_;
  std::vector<TrackDesc> tracks_;
  std::map<std::pair<int, std::string>, TrackId> track_ids_;
  std::map<std::string, std::vector<OpRecord>> by_type_;
};

/// Wait/service nanoseconds one op spent in one station class. `station` is
/// the digit-stripped track name ("engine0.tgt3" -> "engine.tgt"); the
/// residual not covered by any leg is the pseudo-station "client".
struct StationShare {
  std::string station;
  sim::Time wait = 0;
  sim::Time service = 0;
};

/// Strips digit runs from a track name to get its station class.
std::string trackStationClass(std::string_view track_name);

/// `dur` ns of an op owned by legs[owner] (-1: the uncovered client
/// residual), inside that leg's queue-wait prefix when `wait` is set.
struct PathSlice {
  std::ptrdiff_t owner = -1;
  bool wait = false;
  sim::Time dur = 0;
};

/// The slice walker behind every critical-path output and the observer's
/// per-category split. Reuse one instance across ops: its buffers keep
/// their capacity.
class CriticalPath {
 public:
  /// Splits [start, end) into slices: each instant belongs to the deepest
  /// leg active then (ties: latest start, then highest leg id, then latest
  /// record order), or to the residual. The slice durations sum to
  /// end - start. Valid until the next walk.
  const std::vector<PathSlice>& walk(const std::vector<TraceEvent>& legs,
                                     sim::Time start, sim::Time end);
  /// Causal depth of leg `i` of the last walk (1: directly under the op;
  /// a parent missing from the legs counts as the op).
  int depth(std::size_t i) const noexcept { return depth_[i]; }
  /// Index of the first leg with id `id` in the last walk, or -1. The legs
  /// the last walk read must still be alive.
  std::ptrdiff_t indexOf(LegId id) const noexcept;

 private:
  const std::vector<TraceEvent>* legs_ = nullptr;
  std::vector<std::ptrdiff_t> by_id_;  // dense per-op leg id -> index
  std::vector<int> depth_;
  std::vector<std::size_t> order_;   // legs that overlap the span, by start
  std::vector<std::size_t> active_;  // legs active at the sweep position
  std::vector<PathSlice> slices_;
};

/// Exact critical-path decomposition of one op (see file comment). The
/// returned shares are sorted by station name and their wait+service sums
/// equal `op.dur` exactly. `stations[t]` names track t (see trackStationClass).
std::vector<StationShare> decomposeOp(const OpRecord& op,
                                      const std::vector<std::string>& stations);

/// Per-op-type breakdown tables: for p50/p95/p99 (nearest-rank over the
/// given ops), prints the percentile op's station wait/service split plus a
/// sum row equal to the op's span. `ops` may come from a reservoir (tail
/// only) or a full trace.
void writeCriticalPath(std::ostream& os, const std::vector<OpRecord>& ops,
                       const std::vector<std::string>& stations);

/// Human-readable dump of the K slowest ops per type with their leg trees
/// (indent = causal depth, wait/service split per leg).
void writeExemplars(std::ostream& os, const std::vector<OpRecord>& ops,
                    const std::vector<std::string>& stations, std::size_t top);

/// Folded-stack flamegraph lines ("type;station:leg;... ns"), aggregated
/// over all ops and sorted by path — feed to flamegraph.pl or speedscope.
/// Wait time gets a ";[wait]" leaf frame.
void writeFoldedStacks(std::ostream& os, const std::vector<OpRecord>& ops,
                       const std::vector<std::string>& stations);

/// Per-station A/B comparison of two runs: total wait/service and share of
/// all op time, with deltas in percentage points.
void writeStationDiff(std::ostream& os, const std::vector<OpRecord>& ops_a,
                      const std::vector<std::string>& stations_a,
                      const std::vector<OpRecord>& ops_b,
                      const std::vector<std::string>& stations_b);

/// Normalized station name per track id for a track table (helper shared by
/// the CLI and the reservoir printers).
std::vector<std::string> stationNames(const std::vector<TrackDesc>& tracks);

/// Flattens a reservoir's retained ops into one list for the writers above.
inline std::vector<OpRecord> reservoirOps(const ExemplarReservoir& r) {
  std::vector<OpRecord> out;
  for (const auto& [type, ops] : r.byType()) {
    out.insert(out.end(), ops.begin(), ops.end());
  }
  return out;
}

/// The tail report of a (possibly merged) reservoir: its exemplars with
/// their leg trees, then the critical-path breakdown over them.
void writeTailReport(std::ostream& os, const ExemplarReservoir& r);

}  // namespace daosim::obs
