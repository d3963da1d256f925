#include "obs/telemetry.h"

#include <atomic>
#include <charconv>
#include <iterator>
#include <ostream>
#include <stdexcept>
#include <string>

#include "sim/simulation.h"

namespace daosim::obs {

namespace {

std::atomic<std::uint64_t> g_telemetry_epoch{1};

/// Deterministic double formatting for dumps: 15 significant digits keeps
/// every value we emit (ns-derived seconds, byte totals, fractions)
/// round-trippable while printing small fractions compactly. It streams
/// the bytes `printf("%.15g")` (an ostream at precision 15) would, without
/// building a stream or a string per value.
struct Num {
  double v;
};

std::ostream& operator<<(std::ostream& os, Num n) {
  char buf[32];
  const auto r = std::to_chars(std::begin(buf), std::end(buf), n.v,
                               std::chars_format::general, 15);
  return os.write(buf, r.ptr - buf);
}

}  // namespace

std::string csvField(const std::string& s) {
  if (s.find_first_of(",\"\n\r") == std::string::npos) return s;
  std::string out = "\"";
  for (char c : s) {
    if (c == '"') out.push_back('"');
    out.push_back(c);
  }
  out.push_back('"');
  return out;
}

void writeDumpHeader(std::ostream& os, std::span<const std::string> runs,
                     sim::Time interval) {
  os << "# daosim-metrics schema=" << kMetricsSchemaVersion << "\n";
  for (const std::string& label : runs) {
    os << "# telemetry run=" << label << " interval_ns=" << interval << "\n";
  }
  os << "kind,name,field,value\n";
}

const char* Telemetry::kindName(Kind k) noexcept {
  switch (k) {
    case Kind::kCounter: return "counter";
    case Kind::kGauge: return "gauge";
    case Kind::kRate: return "rate";
  }
  return "?";
}

Telemetry::Telemetry(sim::Time interval)
    : interval_(interval > 0 ? interval : 1),
      epoch_(g_telemetry_epoch.fetch_add(1, std::memory_order_relaxed)) {}

Telemetry::~Telemetry() {
  if (sim_ != nullptr) finish();
}

Telemetry::Node* Telemetry::instrument(const std::string& path, Kind kind) {
  // Commas and quotes are escaped on export; newlines cannot be represented
  // in the line-based CSV dump, so reject them at registration.
  if (path.find('\n') != std::string::npos ||
      path.find('\r') != std::string::npos) {
    throw std::invalid_argument("telemetry path contains a newline");
  }
  auto it = by_path_.find(path);
  if (it != by_path_.end()) {
    if (it->second->kind != kind) {
      throw std::invalid_argument("telemetry path registered twice with "
                                  "different kinds: " +
                                  path);
    }
    return it->second;
  }
  nodes_.push_back(std::make_unique<Node>());
  Node* n = nodes_.back().get();
  n->path = path;
  n->kind = kind;
  n->first = times_.size();
  by_path_.emplace(path, n);
  return n;
}

void Telemetry::addProbe(const std::string& path, Kind kind,
                         std::function<double()> fn) {
  Node* n = instrument(path, kind);
  n->probe = std::move(fn);
  if (sim_ != nullptr) startRate(*n);
}

void Telemetry::startRate(Node& n) {
  if (n.kind == Kind::kRate && n.probe) n.prev = n.probe();
}

void Telemetry::attach(sim::Simulation& sim) {
  if (sim_ != nullptr) finish();
  sim_ = &sim;
  for (auto& up : nodes_) startRate(*up);
  t0_ = sim.now();
  last_sample_ = t0_;
  next_due_ = t0_ + interval_;
  finished_ = false;
  sim.setTelemetry(this, next_due_);
}

sim::Time Telemetry::sampleDue() {
  // Only here, never in finish(): a destructor calls finish().
  if (sample_count_ + nodes_.size() > kMaxSamples) {
    throw std::runtime_error(
        "telemetry: a run would hold more than " +
        std::to_string(kMaxSamples) +
        " samples; raise --telemetry-interval (DAOSIM_TELEMETRY_INTERVAL)");
  }
  sampleAt(next_due_);
  next_due_ += interval_;
  return next_due_;
}

void Telemetry::sampleAt(sim::Time t) {
  for (auto& up : nodes_) {
    Node& n = *up;
    const double cur = n.probe ? n.probe() : n.value;
    double v = cur;
    if (n.kind == Kind::kRate) {
      const sim::Time dt = t - last_sample_;
      v = dt > 0 ? (cur - n.prev) / sim::toSeconds(dt) : 0.0;
      n.prev = cur;
    }
    n.value = cur;  // summary rows show the final cumulative/instant value
    n.samples.push_back(v);
  }
  times_.push_back(t - t0_);
  sample_count_ += nodes_.size();
  last_sample_ = t;
}

void Telemetry::finish() {
  if (finished_) return;
  if (sim_ != nullptr) {
    const sim::Time end = sim_->now();
    while (next_due_ <= end) {
      sampleAt(next_due_);
      next_due_ += interval_;
    }
    if (end > last_sample_) sampleAt(end);  // final partial bin
    sim_->setTelemetry(nullptr, 0);
    sim_ = nullptr;
  }
  // Probes reference run-scoped objects (devices, stations); drop them so a
  // finished registry can wait for its rows to be written after its
  // testbed is gone (apps::SweepObservation).
  for (auto& up : nodes_) up->probe = nullptr;
  finished_ = true;
}

const Telemetry::Node* Telemetry::find(const std::string& path) const {
  auto it = by_path_.find(path);
  return it == by_path_.end() ? nullptr : it->second;
}

std::ostream& Telemetry::writeCsvRows(std::ostream& os,
                                      const std::string& prefix) const {
  for (const auto& [path, n] : by_path_) {
    os << kindName(n->kind) << "," << csvField(prefix + path) << ",total,"
       << Num{n->value} << "\n";
  }
  for (const auto& [path, n] : by_path_) {
    const std::string name = csvField(prefix + path);
    for (std::size_t i = 0; i < n->samples.size(); ++i) {
      os << "series," << name << "," << times_[n->first + i] << ","
         << Num{n->samples[i]} << "\n";
    }
  }
  return os;
}

}  // namespace daosim::obs
