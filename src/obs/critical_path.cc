#include "obs/critical_path.h"

#include <algorithm>
#include <array>
#include <cstddef>
#include <iomanip>
#include <utility>

namespace daosim::obs {

TrackId ExemplarReservoir::internTrack(int pid, std::string_view name) {
  auto key = std::make_pair(pid, std::string(name));
  auto it = track_ids_.find(key);
  if (it != track_ids_.end()) return it->second;
  const TrackId id = static_cast<TrackId>(tracks_.size());
  tracks_.push_back(TrackDesc{pid, std::string(name)});
  track_ids_.emplace(std::move(key), id);
  return id;
}

void ExemplarReservoir::offer(OpRecord op) {
  auto& v = by_type_[op.type];
  auto pos = std::lower_bound(
      v.begin(), v.end(), op,
      [](const OpRecord& a, const OpRecord& b) { return slower(a, b); });
  if (v.size() >= k_ && pos == v.end()) return;
  v.insert(pos, std::move(op));
  if (v.size() > k_) v.pop_back();
}

void ExemplarReservoir::merge(const ExemplarReservoir& other) {
  std::vector<TrackId> remap(other.tracks_.size());
  for (std::size_t i = 0; i < other.tracks_.size(); ++i) {
    remap[i] = internTrack(other.tracks_[i].pid, other.tracks_[i].name);
  }
  for (const auto& [type, ops] : other.by_type_) {
    for (const OpRecord& src : ops) {
      OpRecord op = src;
      op.track = remap[op.track];
      for (TraceEvent& e : op.legs) e.track = remap[e.track];
      offer(std::move(op));
    }
  }
}

std::string trackStationClass(std::string_view track_name) {
  std::string out;
  out.reserve(track_name.size());
  for (char c : track_name) {
    if (c < '0' || c > '9') out.push_back(c);
  }
  return out;
}

std::vector<std::string> stationNames(const std::vector<TrackDesc>& tracks) {
  std::vector<std::string> names;
  names.reserve(tracks.size());
  for (const TrackDesc& t : tracks) names.push_back(trackStationClass(t.name));
  return names;
}

namespace {

// Walks the op span slice by slice and reports each slice's owner: the
// deepest leg active at that instant (ties: latest start, then highest leg
// id, then latest record order), or -1 for the uncovered client residual.
// Slices never straddle a leg boundary or a leg's wait/service split, so
// the callback sees each (owner, kind) run with exact integer bounds.
template <typename Fn>
void forEachSlice(const OpRecord& op, Fn&& fn) {
  const sim::Time lo = op.start;
  const sim::Time hi = op.start + op.dur;
  const auto& legs = op.legs;
  const std::size_t n = legs.size();

  // Depth via the parent chain; unknown parents count as roots (a parent
  // leg may be missing when an op was cut off mid-flight).
  std::map<LegId, std::size_t> by_id;
  for (std::size_t i = 0; i < n; ++i) {
    if (legs[i].leg != 0) by_id.emplace(legs[i].leg, i);
  }
  std::vector<int> depth(n, 1);
  for (std::size_t i = 0; i < n; ++i) {
    LegId p = legs[i].parent;
    int d = 1;
    // Bounded walk: a malformed trace cannot loop more than n steps.
    for (std::size_t steps = 0; p != 0 && steps < n; ++steps) {
      auto it = by_id.find(p);
      if (it == by_id.end()) break;
      ++d;
      p = legs[it->second].parent;
    }
    depth[i] = d;
  }

  std::vector<sim::Time> cuts;
  cuts.reserve(2 + 3 * n);
  cuts.push_back(lo);
  cuts.push_back(hi);
  const auto clip = [&](sim::Time t) {
    if (t > lo && t < hi) cuts.push_back(t);
  };
  for (const TraceEvent& e : legs) {
    clip(e.ts);
    clip(e.ts + e.wait);
    clip(e.ts + e.dur);
  }
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());

  for (std::size_t k = 0; k + 1 < cuts.size(); ++k) {
    const sim::Time a = cuts[k];
    const sim::Time b = cuts[k + 1];
    std::ptrdiff_t owner = -1;
    for (std::size_t i = 0; i < n; ++i) {
      const TraceEvent& e = legs[i];
      if (e.ts > a || a >= e.ts + e.dur) continue;
      if (owner < 0) {
        owner = static_cast<std::ptrdiff_t>(i);
        continue;
      }
      const TraceEvent& o = legs[static_cast<std::size_t>(owner)];
      const int od = depth[static_cast<std::size_t>(owner)];
      if (depth[i] > od ||
          (depth[i] == od &&
           (e.ts > o.ts || (e.ts == o.ts && e.leg >= o.leg)))) {
        owner = static_cast<std::ptrdiff_t>(i);
      }
    }
    bool is_wait = false;
    if (owner >= 0) {
      const TraceEvent& o = legs[static_cast<std::size_t>(owner)];
      is_wait = a < o.ts + o.wait;
    }
    fn(owner, is_wait, b - a);
  }
}

double us(sim::Time ns) { return static_cast<double>(ns) / 1000.0; }

const std::string& trackStation(const std::vector<std::string>& stations,
                                TrackId t) {
  static const std::string kUnknown = "unknown";
  return t < stations.size() ? stations[t] : kUnknown;
}

struct WaitService {
  sim::Time wait = 0;
  sim::Time service = 0;
};

std::map<std::string, WaitService> shareMap(
    const OpRecord& op, const std::vector<std::string>& stations) {
  std::map<std::string, WaitService> acc;
  forEachSlice(op, [&](std::ptrdiff_t owner, bool is_wait, sim::Time dur) {
    const std::string& station =
        owner < 0 ? trackStation(stations, op.track)  // residual: client CPU
                  : trackStation(stations,
                                 op.legs[static_cast<std::size_t>(owner)].track);
    WaitService& ws = acc[owner < 0 ? "client" : station];
    (is_wait ? ws.wait : ws.service) += dur;
  });
  return acc;
}

void printShareRows(std::ostream& os, const std::map<std::string, WaitService>& acc,
                    sim::Time span, const char* indent) {
  os << indent << std::left << std::setw(16) << "station" << std::right
     << std::setw(12) << "wait_us" << std::setw(12) << "service_us"
     << std::setw(12) << "total_us" << std::setw(8) << "share%" << "\n";
  sim::Time sum = 0;
  os << std::fixed;
  for (const auto& [station, ws] : acc) {
    const sim::Time total = ws.wait + ws.service;
    sum += total;
    os << indent << std::left << std::setw(16) << station << std::right
       << std::setprecision(3) << std::setw(12) << us(ws.wait) << std::setw(12)
       << us(ws.service) << std::setw(12) << us(total) << std::setprecision(1)
       << std::setw(8)
       << (span > 0 ? 100.0 * static_cast<double>(total) /
                          static_cast<double>(span)
                    : 0.0)
       << "\n";
  }
  os << indent << std::left << std::setw(16) << "sum" << std::right
     << std::setprecision(3) << std::setw(36) << us(sum) << std::setw(8)
     << (sum == span ? "=span" : "!SPAN") << "\n";
  os.unsetf(std::ios::fixed);
  os << std::setprecision(6);
}

std::map<std::string, std::vector<const OpRecord*>> groupByType(
    const std::vector<OpRecord>& ops) {
  std::map<std::string, std::vector<const OpRecord*>> by_type;
  for (const OpRecord& op : ops) by_type[op.type].push_back(&op);
  for (auto& [type, v] : by_type) {
    std::sort(v.begin(), v.end(), [](const OpRecord* a, const OpRecord* b) {
      if (a->dur != b->dur) return a->dur < b->dur;
      if (a->start != b->start) return a->start < b->start;
      if (a->rep != b->rep) return a->rep < b->rep;
      return a->seq < b->seq;
    });
  }
  return by_type;
}

}  // namespace

std::vector<StationShare> decomposeOp(
    const OpRecord& op, const std::vector<std::string>& stations) {
  std::vector<StationShare> out;
  for (const auto& [station, ws] : shareMap(op, stations)) {
    out.push_back(StationShare{station, ws.wait, ws.service});
  }
  return out;
}

void writeCriticalPath(std::ostream& os, const std::vector<OpRecord>& ops,
                       const std::vector<std::string>& stations) {
  os << "-- critical-path breakdown (wait vs service per station) --\n";
  if (ops.empty()) {
    os << "(no ops recorded)\n";
    return;
  }
  static constexpr std::array<double, 3> kPercentiles = {50.0, 95.0, 99.0};
  for (const auto& [type, v] : groupByType(ops)) {
    os << "== " << type << " (count=" << v.size() << ") ==\n";
    for (double p : kPercentiles) {
      // Nearest-rank percentile: an actual op, so its decomposition sums to
      // its span exactly (no interpolation).
      std::size_t idx = static_cast<std::size_t>(
          p / 100.0 * static_cast<double>(v.size()) + 0.999999);
      if (idx > 0) --idx;
      if (idx >= v.size()) idx = v.size() - 1;
      const OpRecord& ex = *v[idx];
      os << std::fixed << std::setprecision(3) << "  p" << std::setprecision(1)
         << p << ": op " << ex.seq << " rep " << ex.rep << ", latency "
         << std::setprecision(3) << us(ex.dur) << " us, " << ex.legs.size()
         << " legs\n";
      os.unsetf(std::ios::fixed);
      os << std::setprecision(6);
      printShareRows(os, shareMap(ex, stations), ex.dur, "    ");
    }
  }
}

void writeExemplars(std::ostream& os, const std::vector<OpRecord>& ops,
                    const std::vector<std::string>& stations,
                    std::size_t top) {
  os << "-- tail exemplars (slowest ops per type) --\n";
  if (ops.empty()) {
    os << "(no ops recorded)\n";
    return;
  }
  for (const auto& [type, v] : groupByType(ops)) {
    os << "== " << type << " ==\n";
    // groupByType sorts fastest-first; walk from the back for the tail.
    const std::size_t count = std::min(top, v.size());
    for (std::size_t i = 0; i < count; ++i) {
      const OpRecord& ex = *v[v.size() - 1 - i];
      os << std::fixed << std::setprecision(3) << "  #" << (i + 1) << "  op "
         << ex.seq << " rep " << ex.rep << "  latency " << us(ex.dur)
         << " us  [" << trackStation(stations, ex.track) << "]\n";
      // Leg tree: indent by causal depth (full parent-chain walk — legs
      // record when they end, so a parent always follows its children in
      // record order), printed in start-time order.
      std::map<LegId, std::size_t> by_id;
      for (std::size_t j = 0; j < ex.legs.size(); ++j) {
        if (ex.legs[j].leg != 0) by_id.emplace(ex.legs[j].leg, j);
      }
      std::vector<std::size_t> order(ex.legs.size());
      for (std::size_t j = 0; j < order.size(); ++j) order[j] = j;
      std::sort(order.begin(), order.end(),
                [&](std::size_t a, std::size_t b) {
                  if (ex.legs[a].ts != ex.legs[b].ts) {
                    return ex.legs[a].ts < ex.legs[b].ts;
                  }
                  return ex.legs[a].leg < ex.legs[b].leg;
                });
      for (std::size_t j : order) {
        const TraceEvent& e = ex.legs[j];
        int d = 1;
        LegId p = e.parent;
        for (std::size_t steps = 0; p != 0 && steps < ex.legs.size();
             ++steps) {
          auto it = by_id.find(p);
          if (it == by_id.end()) break;
          ++d;
          p = ex.legs[it->second].parent;
        }
        os << "    " << std::string(static_cast<std::size_t>(2 * d), ' ')
           << std::left << std::setw(std::max(1, 24 - 2 * d)) << e.name
           << std::right << " @" << std::setw(11) << us(e.ts - ex.start)
           << "  dur " << std::setw(11) << us(e.dur);
        if (e.wait != 0) os << "  wait " << us(e.wait);
        os << "  (" << trackStation(stations, e.track) << ")\n";
      }
      os.unsetf(std::ios::fixed);
      os << std::setprecision(6);
    }
  }
}

void writeFoldedStacks(std::ostream& os, const std::vector<OpRecord>& ops,
                       const std::vector<std::string>& stations) {
  std::map<std::string, sim::Time> folded;
  std::vector<std::size_t> chain;
  for (const OpRecord& op : ops) {
    // Map leg id -> index once per op for parent-chain walks.
    std::map<LegId, std::size_t> by_id;
    for (std::size_t i = 0; i < op.legs.size(); ++i) {
      if (op.legs[i].leg != 0) by_id.emplace(op.legs[i].leg, i);
    }
    forEachSlice(op, [&](std::ptrdiff_t owner, bool is_wait, sim::Time dur) {
      std::string path = op.type;
      if (owner < 0) {
        path += ";client";
      } else {
        chain.clear();
        std::size_t i = static_cast<std::size_t>(owner);
        chain.push_back(i);
        LegId p = op.legs[i].parent;
        for (std::size_t steps = 0; p != 0 && steps < op.legs.size();
             ++steps) {
          auto it = by_id.find(p);
          if (it == by_id.end()) break;
          chain.push_back(it->second);
          p = op.legs[it->second].parent;
        }
        for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
          const TraceEvent& e = op.legs[*it];
          path += ';';
          path += trackStation(stations, e.track);
          path += ':';
          path += e.name;
        }
        if (is_wait) path += ";[wait]";
      }
      folded[path] += dur;
    });
  }
  for (const auto& [path, ns] : folded) os << path << ' ' << ns << "\n";
}

void writeStationDiff(std::ostream& os, const std::vector<OpRecord>& ops_a,
                      const std::vector<std::string>& stations_a,
                      const std::vector<OpRecord>& ops_b,
                      const std::vector<std::string>& stations_b) {
  const auto totals = [](const std::vector<OpRecord>& ops,
                         const std::vector<std::string>& stations,
                         sim::Time& span_sum) {
    std::map<std::string, WaitService> acc;
    for (const OpRecord& op : ops) {
      span_sum += op.dur;
      for (const auto& [station, ws] : shareMap(op, stations)) {
        acc[station].wait += ws.wait;
        acc[station].service += ws.service;
      }
    }
    return acc;
  };
  sim::Time span_a = 0;
  sim::Time span_b = 0;
  const auto a = totals(ops_a, stations_a, span_a);
  const auto b = totals(ops_b, stations_b, span_b);

  os << "-- per-station diff (A: " << ops_a.size() << " ops, B: "
     << ops_b.size() << " ops) --\n";
  os << std::left << std::setw(16) << "station" << std::right << std::setw(14)
     << "A_us" << std::setw(14) << "B_us" << std::setw(9) << "A_shr%"
     << std::setw(9) << "B_shr%" << std::setw(10) << "delta_pp" << "\n";
  std::map<std::string, int> stations;
  for (const auto& [s, _] : a) stations.emplace(s, 0);
  for (const auto& [s, _] : b) stations.emplace(s, 0);
  os << std::fixed;
  for (const auto& [s, _] : stations) {
    const auto ita = a.find(s);
    const auto itb = b.find(s);
    const sim::Time ta =
        ita != a.end() ? ita->second.wait + ita->second.service : 0;
    const sim::Time tb =
        itb != b.end() ? itb->second.wait + itb->second.service : 0;
    const double sa =
        span_a > 0 ? 100.0 * static_cast<double>(ta) /
                         static_cast<double>(span_a)
                   : 0.0;
    const double sb =
        span_b > 0 ? 100.0 * static_cast<double>(tb) /
                         static_cast<double>(span_b)
                   : 0.0;
    os << std::left << std::setw(16) << s << std::right << std::setprecision(3)
       << std::setw(14) << us(ta) << std::setw(14) << us(tb)
       << std::setprecision(1) << std::setw(9) << sa << std::setw(9) << sb
       << std::showpos << std::setw(10) << (sb - sa) << std::noshowpos
       << "\n";
  }
  os.unsetf(std::ios::fixed);
  os << std::setprecision(6);
}

void writeTailReport(std::ostream& os, const ExemplarReservoir& r) {
  const std::vector<OpRecord> ops = reservoirOps(r);
  const std::vector<std::string> stations = stationNames(r.tracks());
  writeExemplars(os, ops, stations, r.k());
  writeCriticalPath(os, ops, stations);
}

}  // namespace daosim::obs
