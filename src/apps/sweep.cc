#include "apps/sweep.h"

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <cstring>
#include <iomanip>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>

namespace daosim::apps {

std::vector<SweepPoint> clientNodeGrid(int max_clients, int procs_per_node) {
  std::vector<SweepPoint> grid;
  for (int c = 1; c <= max_clients; c *= 2) {
    grid.push_back(SweepPoint{c, procs_per_node});
  }
  if (!grid.empty() && grid.back().client_nodes != max_clients) {
    grid.push_back(SweepPoint{max_clients, procs_per_node});
  }
  return grid;
}

std::vector<SweepPoint> crossGrid(std::vector<int> client_nodes,
                                  std::vector<int> procs_per_node) {
  std::vector<SweepPoint> grid;
  for (int c : client_nodes) {
    for (int n : procs_per_node) grid.push_back(SweepPoint{c, n});
  }
  return grid;
}

std::uint64_t scaledOps(int total_procs, std::uint64_t base_ops,
                        std::uint64_t total_target) {
  if (total_procs <= 0) return base_ops;
  const std::uint64_t per_proc =
      total_target / static_cast<std::uint64_t>(total_procs);
  // Not std::clamp, whose lo <= hi precondition a base below the floor
  // (DAOSIM_OPS=20) breaks; the base wins.
  return std::min(base_ops, std::max<std::uint64_t>(per_proc, 50));
}

namespace {
constexpr auto kIntMax =
    static_cast<std::uint64_t>(std::numeric_limits<int>::max());
}  // namespace

std::uint64_t envCount(const char* name, std::uint64_t def, std::uint64_t lo,
                       std::uint64_t hi) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return def;
  const char* end = v + std::strlen(v);
  std::uint64_t n = 0;
  const auto [ptr, ec] = std::from_chars(v, end, n);
  if (ec != std::errc{} || ptr != end || n < lo || n > hi) {
    std::string want = "a whole number >= " + std::to_string(lo);
    if (hi < kIntMax) want += " and <= " + std::to_string(hi);
    throw std::invalid_argument(std::string(name) + " must be " + want +
                                ", got '" + v + "'");
  }
  return n;
}

std::uint64_t envOps(std::uint64_t def) {
  return envCount("DAOSIM_OPS", def, 1,
                  std::numeric_limits<std::uint64_t>::max());
}

int envReps(int def) {
  return static_cast<int>(
      envCount("DAOSIM_REPS", static_cast<std::uint64_t>(def), 1, kIntMax));
}

int envJobs() {
  const auto jobs = static_cast<int>(envCount("DAOSIM_JOBS", 0, 0, kIntMax));
  if (jobs > 0) return jobs;
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

bool envFullGrid() { return envCount("DAOSIM_FULL_GRID", 0, 0, 1) == 1; }

namespace {
/// Per-op latency columns (p50/p95/p99/p99.9/max), in microseconds.
void printLatCols(std::ostream& os, const obs::Histogram& h) {
  os << std::setprecision(1);
  for (double p : {50.0, 95.0, 99.0, 99.9}) {
    os << std::setw(9) << static_cast<double>(h.percentile(p)) / 1e3;
  }
  os << std::setw(9) << static_cast<double>(h.max()) / 1e3;
  os << std::setprecision(2);
}
}  // namespace

void printSeries(std::ostream& os, const Series& series, bool show_iops) {
  os << "== " << series.name << " ==\n";
  os << std::setw(8) << series.col1 << std::setw(7) << "ppn" << std::setw(7)
     << "procs";
  if (show_iops) {
    os << std::setw(14) << "write kIOPS" << std::setw(9) << "+/-"
       << std::setw(14) << "read kIOPS" << std::setw(9) << "+/-";
  } else {
    os << std::setw(14) << "write GiB/s" << std::setw(9) << "+/-"
       << std::setw(14) << "read GiB/s" << std::setw(9) << "+/-";
  }
  os << std::setw(9) << "w.p50us" << std::setw(9) << "w.p95" << std::setw(9)
     << "w.p99" << std::setw(9) << "w.p999" << std::setw(9) << "w.max"
     << std::setw(9) << "r.p50us" << std::setw(9) << "r.p95" << std::setw(9)
     << "r.p99" << std::setw(9) << "r.p999" << std::setw(9) << "r.max";
  os << "\n";
  for (const auto& m : series.points) {
    os << std::setw(8) << m.point.client_nodes << std::setw(7)
       << m.point.procs_per_node << std::setw(7) << m.point.totalProcs();
    os << std::fixed << std::setprecision(2);
    if (show_iops) {
      os << std::setw(14) << m.write_kiops.mean() << std::setw(9)
         << m.write_kiops.stddev() << std::setw(14) << m.read_kiops.mean()
         << std::setw(9) << m.read_kiops.stddev();
    } else {
      os << std::setw(14) << m.write_gibps.mean() << std::setw(9)
         << m.write_gibps.stddev() << std::setw(14) << m.read_gibps.mean()
         << std::setw(9) << m.read_gibps.stddev();
    }
    printLatCols(os, m.write_lat);
    printLatCols(os, m.read_lat);
    os << "\n";
    os.unsetf(std::ios::fixed);
  }
}

}  // namespace daosim::apps
