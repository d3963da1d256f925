#include "apps/observe.h"

#include <cstdlib>
#include <filesystem>
#include <limits>
#include <set>
#include <stdexcept>

#include "apps/fault_injector.h"
#include "apps/sweep.h"
#include "obs/telemetry_reader.h"
#include "sim/fault_plan.h"

namespace daosim::apps {

namespace fs = std::filesystem;

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
  // Two outputs that name one file would truncate each other (a metrics
  // file, the telemetry dump streamed before it). An existing file that is
  // not a regular one, such as /dev/null, may be shared.
  std::set<fs::path> files;
  for (const auto& f : {s.trace_file, s.metrics_file, s.telemetry_file}) {
    std::error_code ec;
    const bool special = fs::exists(f, ec) && !fs::is_regular_file(f, ec);
    if (!f.empty() && !special &&
        !files.insert(fs::weakly_canonical(fs::absolute(f, ec), ec)).second) {
      throw std::invalid_argument(
          "the trace, metrics and telemetry outputs must name different "
          "files; '" + f + "' is named twice");
    }
  }
  return s;
}

SweepObservation::SweepObservation(ObserveSpec spec,
                                   std::vector<std::string> labels)
    : spec_(std::move(spec)),
      labels_(std::move(labels)),
      observe_last_(spec_.stats || !spec_.trace_file.empty() ||
                    !spec_.metrics_file.empty() ||
                    !spec_.telemetry_file.empty()),
      slots_(labels_.size()),
      // Without a telemetry file only the last run samples, for --stats.
      next_(spec_.telemetry_file.empty() && !labels_.empty()
                ? labels_.size() - 1
                : 0) {
  if (!spec_.trace_file.empty()) last_.enableTracing();
  if (spec_.stats) obs::writeDumpHeader(stats_rows_);
  if (spec_.telemetry_file.empty()) return;
  dump_.open(spec_.telemetry_file);
  if (!dump_) throw std::runtime_error("cannot write " + spec_.telemetry_file);
  obs::writeDumpHeader(dump_, labels_, spec_.telemetry_interval);
}

SweepObservation::~SweepObservation() {
  std::error_code ec;
  if (dump_.is_open() && fs::is_regular_file(spec_.telemetry_file, ec)) {
    fs::remove(spec_.telemetry_file, ec);
  }
}

void SweepObservation::end(std::size_t index, obs::Telemetry telemetry) {
  const std::lock_guard lock(mu_);
  slots_[index].telemetry.emplace(std::move(telemetry));
  for (; next_ < slots_.size() && slots_[next_].telemetry; ++next_) {
    const obs::Telemetry& t = *slots_[next_].telemetry;
    try {
      const std::string prefix = labels_[next_] + "/";
      if (dump_.is_open()) t.writeCsvRows(dump_, prefix).flush();
      if (spec_.stats) t.writeCsvRows(stats_rows_, prefix);
    } catch (...) {  // from a destructor: finish() rethrows it
      if (error_ == nullptr) error_ = std::current_exception();
    }
    slots_[next_].telemetry.reset();
  }
}

void SweepObservation::finish(std::ostream& out) {
  if (error_ != nullptr) std::rethrow_exception(error_);  // runs have ended
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
    writeFile(spec_.metrics_file, [this](std::ostream& f) {
      obs::writeDumpHeader(f);
      last_.writeOpRows(f);
    });
  }
  if (dump_.is_open()) {
    last_.writeOpRows(dump_);
    if (!dump_.flush()) {
      throw std::runtime_error("cannot write " + spec_.telemetry_file);
    }
    dump_.close();
  }
  if (spec_.stats) {
    // Telemetry rows only: the breakdown table above already printed the
    // op rows' category split.
    out << "\n-- telemetry bottleneck report --\n";
    obs::writeReport(out, obs::analyze(obs::parseTelemetryCsv(stats_rows_)));
  }
}

ObservedRun::ObservedRun(const RunSlot& slot, sim::Simulation& sim)
    : slot_(slot) {
  SweepObservation* sweep = slot_.sweep;
  if (sweep == nullptr) return;
  const ObserveSpec& spec = sweep->spec_;
  const bool last = slot_.index + 1 == sweep->slots_.size();
  if (!spec.telemetry_file.empty() || (spec.stats && last)) {
    telemetry_.emplace(spec.telemetry_interval);
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
  SweepObservation* sweep = slot_.sweep;
  if (sweep == nullptr) return;
  if (observer_ != nullptr) {
    observer_->detach();
    sweep->slots_[slot_.index].tail = observer_->takeExemplars();
  }
  // A run that fails writes nothing: its sweep fails and leaves no dump.
  if (telemetry_ && std::uncaught_exceptions() == uncaught_) {
    telemetry_->finish();  // uninstalls it before it moves
    sweep->end(slot_.index, std::move(*telemetry_));
  }
}

}  // namespace daosim::apps
