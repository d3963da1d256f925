#include "obs/telemetry_reader.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdlib>
#include <iomanip>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <type_traits>

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
  std::size_t line_no = 0;
  const auto fail = [&](const std::string& what) {
    throw std::runtime_error("telemetry dump line " +
                             std::to_string(line_no) + ": " + what);
  };
  // Parses all of `s`, in every form the writer prints: nan and inf too,
  // and a double rounded past the range (DBL_MAX at 15 digits) as strtod.
  const auto number = [&]<typename T>(const std::string& s, T& v) {
    const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
    if (ptr != s.data() + s.size() || ec == std::errc::invalid_argument ||
        (ec != std::errc{} && std::is_integral_v<T>)) {
      fail("bad number '" + s + "'");
    }
    if (ec != std::errc{}) v = static_cast<T>(std::strtod(s.c_str(), nullptr));
  };
  const std::string magic = "# daosim-metrics schema=";
  while (std::getline(is, line)) {
    ++line_no;
    // A dump ends in a newline: a last line without one was cut off.
    if (is.eof()) fail("no newline at the end; the dump is truncated");
    if (line_no == 1) {
      if (line.rfind(magic, 0) != 0) {
        throw std::runtime_error(
            "not a daosim metrics/telemetry dump (missing '# daosim-metrics "
            "schema=N' header line)");
      }
      number(line.substr(magic.size()), dump.schema);
      if (dump.schema != kMetricsSchemaVersion) {
        throw std::runtime_error(
            "unsupported metrics dump schema " + std::to_string(dump.schema) +
            " (this reader understands schema " +
            std::to_string(kMetricsSchemaVersion) +
            "); re-export the dump with a matching daosim build");
      }
      continue;
    }
    // Comments (the runs' `# telemetry` lines) and the column header.
    if (line.empty() || line[0] == '#' || line == "kind,name,field,value") {
      continue;
    }
    const auto f = splitCsv(line);
    if (f.size() != 4) fail("want 4 fields, got " + std::to_string(f.size()));
    if (f[0] != "counter" && f[0] != "gauge" && f[0] != "rate" &&
        f[0] != "series" && f[0] != "histogram") {
      fail("unknown kind '" + f[0] + "'");
    }
    double value = 0;
    number(f[3], value);
    if (f[0] == "series") {
      std::int64_t t = 0;
      number(f[2], t);
      dump.series[f[1]].emplace_back(t, value);
    } else if (f[2] == "total") {
      dump.summary[f[1]] = {f[0], value};
    } else {
      dump.metrics[f[1]][f[2]] = value;
    }
  }
  if (line_no == 0) throw std::runtime_error("telemetry dump is empty");
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
