#include "apps/observe.h"

#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "apps/fault_injector.h"
#include "apps/sweep.h"
#include "obs/telemetry_reader.h"
#include "sim/fault_plan.h"

namespace daosim::apps {

namespace {

/// Reads a file name from `name` into `field` unless a flag already set it.
void envFile(std::string& field, const char* name, bool csv_only) {
  const char* v = std::getenv(name);
  if (!field.empty() || v == nullptr) return;
  if (csv_only && jsonName(v)) {
    throw std::invalid_argument(std::string(name) +
                                " must name a CSV file (dumps are CSV "
                                "only), got '" + v + "'");
  }
  field = v;
}

template <typename Write>
void writeFile(const std::string& path, const Write& write) {
  std::ofstream f(path);
  if (f) write(f);
  f.close();
  if (!f) throw std::runtime_error("cannot write " + path);
}

}  // namespace

bool jsonName(const std::string& file) {
  return file.size() >= 5 && file.compare(file.size() - 5, 5, ".json") == 0;
}

ObserveSpec ObserveSpec::fromEnv(ObserveSpec given) {
  ObserveSpec s = std::move(given);
  envFile(s.trace_file, "DAOSIM_TRACE", false);
  envFile(s.metrics_file, "DAOSIM_METRICS", true);
  envFile(s.telemetry_file, "DAOSIM_TELEMETRY", true);
  if (s.telemetry_interval == 0) {
    s.telemetry_interval = 10 * sim::kMillisecond;
    const char* v = std::getenv("DAOSIM_TELEMETRY_INTERVAL");
    if (v != nullptr && *v != '\0') {
      try {
        s.telemetry_interval = sim::parseDuration(v);
      } catch (const std::invalid_argument& e) {
        throw std::invalid_argument(
            std::string("DAOSIM_TELEMETRY_INTERVAL must be a duration such "
                        "as 5ms (") + e.what() + ")");
      }
    }
  }
  if (s.exemplars == 0) {
    s.exemplars = static_cast<std::size_t>(envCount(
        "DAOSIM_EXEMPLARS", 0, 0,
        static_cast<std::uint64_t>(std::numeric_limits<int>::max())));
  }
  return s;
}

SweepObservation::SweepObservation(ObserveSpec spec, std::size_t runs)
    : spec_(std::move(spec)),
      observe_last_(spec_.stats || !spec_.trace_file.empty() ||
                    !spec_.metrics_file.empty() ||
                    !spec_.telemetry_file.empty()),
      slots_(runs) {
  if (!spec_.trace_file.empty()) last_.enableTracing();
}

void SweepObservation::writeDump(std::ostream& os,
                                 const obs::TelemetryHub& hub) const {
  hub.writeCsv(os);
  last_.writeOpRows(os);
}

void SweepObservation::finish(std::ostream& out) {
  // Runs take their last bins unchecked (Telemetry::finish), so a total
  // past the ceiling may first show here; failing on it makes the outcome
  // depend on the total alone, not on the order the runs sampled in.
  obs::Telemetry::checkSampleCeiling(telemetry_samples_.load());
  out << fault_summary_;
  if (spec_.stats) last_.writeBreakdown(out);
  if (spec_.exemplars > 0) {
    obs::ExemplarReservoir tail(spec_.exemplars);
    for (const Slot& s : slots_) {
      if (s.tail != nullptr) tail.merge(*s.tail);
    }
    obs::writeTailReport(out, tail);
  }
  if (!spec_.trace_file.empty()) {
    writeFile(spec_.trace_file,
              [this](std::ostream& f) { last_.writeChromeTrace(f); });
  }
  if (!spec_.metrics_file.empty()) {
    writeFile(spec_.metrics_file,
              [this](std::ostream& f) { writeDump(f, obs::TelemetryHub{}); });
  }
  obs::TelemetryHub hub;
  for (Slot& s : slots_) {
    if (s.telemetry) hub.add(s.label, std::move(*s.telemetry));
  }
  if (!spec_.telemetry_file.empty()) {
    writeFile(spec_.telemetry_file,
              [&](std::ostream& f) { writeDump(f, hub); });
  }
  if (spec_.stats) {
    // Telemetry rows only: the breakdown table above already printed the
    // op rows' category split.
    std::stringstream ss;
    hub.writeCsv(ss);
    out << "\n-- telemetry bottleneck report --\n";
    obs::writeReport(out, obs::analyze(obs::parseTelemetryCsv(ss)));
  }
}

ObservedRun::ObservedRun(const RunSlot& slot, sim::Simulation& sim)
    : slot_(slot) {
  SweepObservation* sweep = slot_.sweep;
  if (sweep == nullptr) return;
  const ObserveSpec& spec = sweep->spec_;
  const bool last = slot_.index + 1 == sweep->slots_.size();
  if (!spec.telemetry_file.empty() || (spec.stats && last)) {
    telemetry_.emplace(spec.telemetry_interval, &sweep->telemetry_samples_);
    telemetry_->attach(sim);
  }
  if (last && sweep->observe_last_) {
    observer_ = &sweep->last_;
  } else if (spec.exemplars > 0) {
    observer_ = &local_.emplace();
  }
  if (observer_ == nullptr) return;
  if (spec.exemplars > 0) {
    observer_->enableExemplars(spec.exemplars,
                               static_cast<std::uint32_t>(slot_.index));
  }
  observer_->attach(sim);
}

void ObservedRun::keepFaultSummary(const FaultInjector& injector) {
  SweepObservation* sweep = slot_.sweep;
  if (sweep == nullptr || !sweep->spec_.stats ||
      slot_.index + 1 != sweep->slots_.size()) {
    return;
  }
  std::ostringstream os;
  injector.writeSummary(os);
  sweep->fault_summary_ = os.str();
}

ObservedRun::~ObservedRun() {
  if (slot_.sweep == nullptr) return;
  SweepObservation::Slot& s = slot_.sweep->slots_[slot_.index];
  if (observer_ != nullptr) {
    observer_->detach();
    s.tail = observer_->takeExemplars();
  }
  if (telemetry_) {
    telemetry_->detach();
    s.label = slot_.label;
    s.telemetry.emplace(std::move(*telemetry_));
  }
}

}  // namespace daosim::apps
