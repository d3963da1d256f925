// Deterministic, schedulable fault plans.
//
// A FaultPlan is a pure-data list of timed fault events — device
// fail/recover, administrative exclusion, device slowdown, NIC flap,
// engine stall — kept sorted by (time, insertion order). Plans come from
// the `--faults` grammar below or from a seeded generator; they carry no
// references to hardware, so the sim layer stays free of hw/daos
// dependencies. apps::FaultInjector walks a plan on a testbed's kernel,
// applying each event at its exact simulated time, which is what makes
// chaos runs bit-reproducible serially and under --jobs N.
//
// Grammar (events separated by ';', whitespace around tokens ignored):
//
//   fail@TIME:tN         fail the device behind pool-global target N
//   recover@TIME:tN      recover it
//   exclude@TIME:tN      fail + pool-map exclusion (+ background rebuild,
//                        when driven by apps::FaultInjector)
//   slow@TIME:tN,xF      scale target N's device service/latency by F
//                        (F >= 1; x1 restores full speed)
//   flap@TIME:nN,DUR     take node N's NIC down for DUR (a partition is a
//                        set of concurrent flaps)
//   stall@TIME:eN,DUR    occupy every target xstream of engine N for DUR
//
// or a whole seeded plan:
//
//   random:seed=S,events=K,horizon=DUR
//
// TIME/DUR accept ns/us/ms/s suffixes; bare numbers are nanoseconds.
// Example: "slow@40ms:t7,x8;flap@120ms:n5,15ms;exclude@200ms:t3".
//
// Generated plans keep at most one target dead (failed or excluded) at any
// instant, so any object class with one redundancy level (RP_2*, EC_xP1*)
// keeps its acknowledged data readable throughout the plan — the invariant
// tests/fault_test.cc's property suite leans on.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/time.h"

namespace daosim::sim {

enum class FaultKind : std::uint8_t {
  kTargetFail,
  kTargetRecover,
  kTargetExclude,
  kTargetSlow,
  kNicFlap,
  kEngineStall,
};

/// Stable grammar keyword for a kind ("fail", "recover", ...).
const char* faultKindName(FaultKind k) noexcept;

struct FaultEvent {
  Time at = 0;
  FaultKind kind = FaultKind::kTargetFail;
  /// Target index (fail/recover/exclude/slow), node id (flap) or engine
  /// index (stall).
  int subject = 0;
  double factor = 1.0;  // kTargetSlow only
  Time duration = 0;    // kNicFlap / kEngineStall only
};

/// Deployment shape used to validate subjects and to scope the generator.
/// Zero fields skip the corresponding range check (parse-only use).
struct FaultTopology {
  int targets = 0;
  int engines = 0;
  int nodes = 0;
};

class FaultPlan {
 public:
  FaultPlan() = default;

  /// Parses the grammar above (or a "random:" spec, which delegates to
  /// random()). Throws std::invalid_argument on malformed specs and
  /// std::out_of_range on subjects outside `topo`. An empty spec is an
  /// empty plan.
  static FaultPlan parse(const std::string& spec, const FaultTopology& topo);

  /// Seeded plan over [horizon/8, horizon]: slowdowns (with restore), NIC
  /// flaps, engine stalls and fail/recover windows, all drawn from a
  /// sim::Rng(seed). At most one target is ever dead concurrently (see
  /// file comment).
  static FaultPlan random(std::uint64_t seed, const FaultTopology& topo,
                          int events, Time horizon);

  /// Inserts keeping (at, insertion-order) sort.
  void add(const FaultEvent& e);

  bool empty() const noexcept { return events_.empty(); }
  std::size_t size() const noexcept { return events_.size(); }
  const std::vector<FaultEvent>& events() const noexcept { return events_; }

  /// Canonical spec string (re-parses to an identical plan).
  std::string describe() const;

 private:
  /// Sorts appended events by time, equal times in append order: the
  /// order add() would have built, in one O(n log n) pass.
  void sortByTime();

  std::vector<FaultEvent> events_;
};

/// Parses a duration: a plain number is nanoseconds; "ns"/"us"/"ms"/"s"
/// suffixes are honoured ("10ms", "500us"). Throws std::invalid_argument
/// on junk or non-positive values.
Time parseDuration(const std::string& s);

}  // namespace daosim::sim
