#include "obs/telemetry_reader.h"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <iomanip>
#include <istream>
#include <ostream>
#include <stdexcept>

#include "obs/telemetry.h"

namespace daosim::obs {

namespace {

/// Splits one CSV line, honouring RFC-4180 quoting (quoted fields may
/// contain commas; embedded quotes are doubled).
std::vector<std::string> splitCsv(const std::string& line) {
  std::vector<std::string> out;
  std::string cur;
  bool in_quotes = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          cur.push_back('"');
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        cur.push_back(c);
      }
    } else if (c == '"') {
      in_quotes = true;
    } else if (c == ',') {
      out.push_back(std::move(cur));
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  out.push_back(std::move(cur));
  return out;
}

bool allDigits(const std::string& s) {
  if (s.empty()) return false;
  for (char c : s) {
    if (!std::isdigit(static_cast<unsigned char>(c))) return false;
  }
  return true;
}

std::vector<std::string> splitPath(const std::string& path) {
  std::vector<std::string> seg;
  std::string cur;
  for (char c : path) {
    if (c == '/') {
      seg.push_back(std::move(cur));
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  seg.push_back(std::move(cur));
  return seg;
}

}  // namespace

TelemetryDump parseTelemetryCsv(std::istream& is) {
  TelemetryDump dump;
  std::string line;
  if (!std::getline(is, line)) {
    throw std::runtime_error("telemetry dump is empty");
  }
  const std::string magic = "# daosim-metrics schema=";
  if (line.rfind(magic, 0) != 0) {
    throw std::runtime_error(
        "not a daosim metrics/telemetry dump (missing '# daosim-metrics "
        "schema=N' header line)");
  }
  dump.schema = std::atoi(line.c_str() + magic.size());
  if (dump.schema != kMetricsSchemaVersion) {
    throw std::runtime_error(
        "unsupported metrics dump schema " + std::to_string(dump.schema) +
        " (this reader understands schema " +
        std::to_string(kMetricsSchemaVersion) +
        "); re-export the dump with a matching daosim build");
  }
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    if (line[0] == '#') {
      // "# telemetry [run=<label>] interval_ns=<n>"
      std::string label;
      const auto run_pos = line.find("run=");
      const auto int_pos = line.find("interval_ns=");
      if (run_pos != std::string::npos) {
        const auto end = line.find(' ', run_pos);
        label = line.substr(run_pos + 4, end == std::string::npos
                                             ? std::string::npos
                                             : end - (run_pos + 4));
      }
      if (int_pos != std::string::npos) {
        dump.run_intervals[label] = std::strtoull(
            line.c_str() + int_pos + std::string("interval_ns=").size(),
            nullptr, 10);
      }
      continue;
    }
    const auto f = splitCsv(line);
    if (f.size() != 4 || f[0] == "kind") continue;  // column header / junk
    if (f[0] == "series") {
      dump.series[f[1]].emplace_back(std::strtoll(f[2].c_str(), nullptr, 10),
                                     std::strtod(f[3].c_str(), nullptr));
    } else if (f[2] == "total") {
      dump.summary[f[1]] = {f[0], std::strtod(f[3].c_str(), nullptr)};
    } else {
      dump.metrics[f[1]][f[2]] = std::strtod(f[3].c_str(), nullptr);
    }
  }
  return dump;
}

std::string stationClass(const std::string& path) {
  std::vector<std::string> seg = splitPath(path);
  if (seg.size() > 1) seg.pop_back();  // metric leaf
  std::size_t start = seg.size();
  while (start > 0 && !allDigits(seg[start - 1])) --start;
  if (start == seg.size()) start = 0;  // all-numeric path: keep everything
  std::string out;
  for (std::size_t i = start; i < seg.size(); ++i) {
    if (!out.empty()) out.push_back('/');
    out += seg[i];
  }
  return out;
}

Analysis analyze(const TelemetryDump& dump) {
  Analysis a;

  // --- per-unit utilization from */busy_frac series ---------------------
  const std::string leaf = "/busy_frac";
  for (const auto& [path, pts] : dump.series) {
    if (path.size() <= leaf.size() ||
        path.compare(path.size() - leaf.size(), leaf.size(), leaf) != 0) {
      continue;
    }
    UnitUtil u;
    u.unit = path.substr(0, path.size() - leaf.size());
    u.cls = stationClass(path);
    double weighted = 0, total_dt = 0;
    std::int64_t prev_t = 0;
    for (const auto& [t, v] : pts) {
      const double dt = static_cast<double>(t - prev_t);
      if (dt > 0) {
        weighted += v * dt;
        total_dt += dt;
      }
      u.peak = std::max(u.peak, v);
      prev_t = t;
    }
    u.mean = total_dt > 0 ? weighted / total_dt : 0;
    a.units.push_back(std::move(u));
  }
  std::sort(a.units.begin(), a.units.end(),
            [](const UnitUtil& x, const UnitUtil& y) {
              return x.mean != y.mean ? x.mean > y.mean : x.unit < y.unit;
            });

  // --- class aggregation + straggler flags ------------------------------
  std::map<std::string, std::vector<const UnitUtil*>> by_class;
  for (const UnitUtil& u : a.units) by_class[u.cls].push_back(&u);
  for (const auto& [cls, us] : by_class) {
    ClassUtil c;
    c.cls = cls;
    c.units = static_cast<int>(us.size());
    for (const UnitUtil* u : us) {
      c.mean += u->mean;
      if (u->mean > c.max_unit) {
        c.max_unit = u->mean;
        c.hottest_unit = u->unit;
      }
    }
    c.mean /= static_cast<double>(us.size());
    c.imbalance = c.mean > 0 ? c.max_unit / c.mean : 0;
    c.straggler = c.imbalance > kStragglerImbalance && c.mean > 0.02;
    a.classes.push_back(std::move(c));
  }
  std::sort(a.classes.begin(), a.classes.end(),
            [](const ClassUtil& x, const ClassUtil& y) {
              return x.mean != y.mean ? x.mean > y.mean : x.cls < y.cls;
            });
  if (!a.classes.empty()) {
    a.verdict = a.classes.front().cls;
    a.verdict_util = a.classes.front().mean;
  }

  // --- wall-clock share per span layer from op.*_ns counters ------------
  std::map<std::string, double> per_cat;
  double total_ns = 0;
  for (const auto& [name, fields] : dump.metrics) {
    if (name.rfind("op.", 0) != 0) continue;
    if (name.size() < 3 || name.compare(name.size() - 3, 3, "_ns") != 0) {
      continue;
    }
    const auto it = fields.find("value");
    if (it == fields.end()) continue;  // histograms (latency_ns) have none
    const auto dot = name.rfind('.');
    std::string cat = name.substr(dot + 1, name.size() - dot - 1 - 3);
    per_cat[cat] += it->second;
    total_ns += it->second;
  }
  for (const auto& [cat, ns] : per_cat) {
    a.layer_share.emplace_back(cat, total_ns > 0 ? ns / total_ns : 0);
  }
  std::sort(a.layer_share.begin(), a.layer_share.end(),
            [](const auto& x, const auto& y) {
              return x.second != y.second ? x.second > y.second
                                          : x.first < y.first;
            });
  return a;
}

void writeReport(std::ostream& os, const Analysis& a, int top_n) {
  if (a.verdict.empty()) {
    os << "no utilization (busy_frac) series in dump — nothing to "
          "attribute\n";
    return;
  }
  const ClassUtil& top = a.classes.front();
  os << "bottleneck: " << a.verdict << " (mean util "
     << std::fixed << std::setprecision(1) << 100 * a.verdict_util << "%, "
     << top.units << " unit" << (top.units == 1 ? "" : "s") << ", hottest "
     << top.hottest_unit << " @ " << 100 * top.max_unit << "%)\n";

  os << "\nstation class utilization:\n";
  os << "  " << std::left << std::setw(24) << "class" << std::right
     << std::setw(7) << "units" << std::setw(8) << "mean%" << std::setw(8)
     << "max%" << std::setw(11) << "imbalance" << "\n";
  for (const ClassUtil& c : a.classes) {
    os << "  " << std::left << std::setw(24) << c.cls << std::right
       << std::setw(7) << c.units << std::setw(8) << std::setprecision(1)
       << 100 * c.mean << std::setw(8) << 100 * c.max_unit << std::setw(11)
       << std::setprecision(2) << c.imbalance
       << (c.straggler ? "  <-- straggler" : "") << "\n";
  }

  os << "\ntop " << top_n << " hottest components:\n";
  int shown = 0;
  for (const UnitUtil& u : a.units) {
    if (shown++ >= top_n) break;
    os << "  " << std::left << std::setw(44) << u.unit << std::right
       << " mean " << std::setw(5) << std::setprecision(1) << 100 * u.mean
       << "%  peak " << std::setw(5) << 100 * u.peak << "%\n";
  }

  if (!a.layer_share.empty()) {
    os << "\nwall-clock share per span layer (op.* counters):\n";
    for (const auto& [cat, share] : a.layer_share) {
      os << "  " << std::left << std::setw(16) << cat << std::right
         << std::setw(6) << std::setprecision(1) << 100 * share << "%\n";
    }
  }

  bool any_straggler = false;
  for (const ClassUtil& c : a.classes) any_straggler |= c.straggler;
  if (any_straggler) {
    os << "\nstragglers (max/mean > " << std::setprecision(1)
       << kStragglerImbalance << "):\n";
    for (const ClassUtil& c : a.classes) {
      if (!c.straggler) continue;
      os << "  " << c.cls << ": imbalance " << std::setprecision(2)
         << c.imbalance << ", hottest unit " << c.hottest_unit << "\n";
    }
  }
  os.unsetf(std::ios::fixed);
}

}  // namespace daosim::obs
