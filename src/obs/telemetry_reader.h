// Reader + end-of-run analyzer for telemetry dumps (obs/telemetry.h).
//
// parseTelemetryCsv loads a schema=2 dump (as apps::SweepObservation
// writes it) back into memory, rejecting other schema versions and damaged
// dumps with a clear error. analyze() then
//   (a) attributes utilization per station class to name the bottleneck
//       (classes are derived from metric paths: the `.../busy_frac` leaf is
//       dropped and run/topology index segments stripped, so
//       `rep/0/server/3/target/5/nvme/busy_frac` and its peers fold into
//       class "nvme"), plus wall-clock share per span layer when the dump
//       carries the observer's op.* counters;
//   (b) flags straggler classes via cross-unit imbalance (max/mean of
//       per-unit utilization).
// Both the daosim_metrics CLI and daosim_run --stats print the resulting
// report through writeReport.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace daosim::obs {

/// A parsed telemetry dump.
struct TelemetryDump {
  int schema = 0;
  /// summary rows: path -> (kind, final value).
  std::map<std::string, std::pair<std::string, double>> summary;
  /// series rows: path -> [(t_ns relative, value)...] in file order.
  std::map<std::string, std::vector<std::pair<std::int64_t, double>>> series;
  /// flat registry rows spliced into the dump (counter/gauge/histogram),
  /// e.g. the observer's op.* aggregates: name -> field -> value.
  std::map<std::string, std::map<std::string, double>> metrics;
};

/// Parses a schema=2 CSV dump; throws std::runtime_error with an
/// actionable message on a missing header or schema mismatch, and one
/// naming the line on a row without 4 fields, an unknown kind, a number
/// that does not parse in full, or a last line without its newline.
TelemetryDump parseTelemetryCsv(std::istream& is);

/// Station-class grouping key for a utilization series path: drops the
/// metric leaf, then keeps the longest suffix of non-numeric segments
/// ("server/3/target/5/nvme/busy_frac" -> "nvme", "client/7/nic/rx/..."
/// -> "nic/rx", "rep/0/net/..." -> "net").
std::string stationClass(const std::string& path);

struct UnitUtil {
  std::string unit;  // full path minus the /busy_frac leaf
  std::string cls;
  double mean = 0;  // time-weighted mean utilization over the run
  double peak = 0;  // hottest single bin
};

struct ClassUtil {
  std::string cls;
  int units = 0;
  double mean = 0;       // mean over units
  double max_unit = 0;   // hottest unit's mean
  double imbalance = 0;  // max_unit / mean (1.0 = perfectly balanced)
  bool straggler = false;
  std::string hottest_unit;
};

struct Analysis {
  /// Per-class utilization, sorted hottest first.
  std::vector<ClassUtil> classes;
  /// Every utilization unit, sorted hottest first.
  std::vector<UnitUtil> units;
  /// Bottleneck verdict: the station class with the highest mean
  /// utilization (empty when the dump has no busy_frac series).
  std::string verdict;
  double verdict_util = 0;
  /// Wall-clock share per span layer from op.* counters (fractions summing
  /// to ~1), present when the dump carries observer metrics.
  std::vector<std::pair<std::string, double>> layer_share;
};

/// Cross-unit imbalance above this (with non-trivial load) flags a
/// straggler class.
inline constexpr double kStragglerImbalance = 1.5;

Analysis analyze(const TelemetryDump& dump);

/// Human-readable report: bottleneck verdict, per-class utilization table,
/// top-N hottest units, per-layer wall-clock shares, straggler flags.
void writeReport(std::ostream& os, const Analysis& a, int top_n = 10);

}  // namespace daosim::obs
