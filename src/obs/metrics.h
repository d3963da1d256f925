// Named metrics: counters, gauges and latency histograms.
//
// A MetricsRegistry is the cold-path companion of the tracer: layers (or the
// export code at end of run) register metrics by name once and hold stable
// pointers; add/inc on the returned handles never allocates. The registry
// serializes to a flat CSV or JSON dump with a schema-versioned header so
// downstream tooling can detect format drift.
#pragma once

#include <cstdint>
#include <map>
#include <ostream>
#include <string>

#include "obs/histogram.h"

namespace daosim::obs {

/// Version stamped into every metrics dump (first CSV line / JSON field).
/// v2: metric names are CSV/JSON-escaped, and dumps may carry a telemetry
/// time-series section (`series,name,t_ns,value` rows — see obs/telemetry.h).
inline constexpr int kMetricsSchemaVersion = 2;

/// RFC-4180 field quoting: names containing commas, quotes or newlines are
/// wrapped in double quotes (embedded quotes doubled); everything else is
/// returned verbatim.
std::string csvField(const std::string& s);

/// JSON string-body escaping (quotes, backslashes, control characters); the
/// caller supplies the surrounding quotes.
std::string jsonEscape(const std::string& s);

class Counter {
 public:
  void inc(std::uint64_t n = 1) noexcept { value_ += n; }
  void set(std::uint64_t v) noexcept { value_ = v; }
  std::uint64_t value() const noexcept { return value_; }

 private:
  std::uint64_t value_ = 0;
};

class Gauge {
 public:
  void set(double v) noexcept { value_ = v; }
  double value() const noexcept { return value_; }

 private:
  double value_ = 0.0;
};

class MetricsRegistry {
 public:
  /// Handles are stable for the registry's lifetime (node-based map).
  Counter& counter(const std::string& name) { return counters_[name]; }
  Gauge& gauge(const std::string& name) { return gauges_[name]; }
  Histogram& histogram(const std::string& name) { return histograms_[name]; }

  const std::map<std::string, Counter>& counters() const noexcept {
    return counters_;
  }
  const std::map<std::string, Gauge>& gauges() const noexcept {
    return gauges_;
  }
  const std::map<std::string, Histogram>& histograms() const noexcept {
    return histograms_;
  }

  /// CSV dump: `# daosim-metrics schema=N` header line, then
  /// `kind,name,field,value` rows (histograms expand to count/mean/p50/...).
  void writeCsv(std::ostream& os) const;

  /// JSON dump with a top-level `"schema"` field.
  void writeJson(std::ostream& os) const;

  /// The `kind,name,field,value` rows alone (no header) — used to splice
  /// registry contents into a telemetry dump.
  void writeCsvRows(std::ostream& os) const;

  /// The `"counters": ... , "gauges": ..., "histograms": ...` JSON fields
  /// alone (no braces, no schema) at the given indent.
  void writeJsonFields(std::ostream& os, const char* indent) const;

 private:
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Histogram> histograms_;
};

}  // namespace daosim::obs
