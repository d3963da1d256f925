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

std::ptrdiff_t CriticalPath::indexOf(LegId id) const noexcept {
  if (id == 0) return -1;
  if (id < by_id_.size()) return by_id_[id];
  // Ids past the dense table, sparser than any the observer allocates,
  // can only come from an edited trace.
  for (std::size_t i = 0; i < legs_->size(); ++i) {
    if ((*legs_)[i].leg == id) return static_cast<std::ptrdiff_t>(i);
  }
  return -1;
}

const std::vector<PathSlice>& CriticalPath::walk(
    const std::vector<TraceEvent>& legs, sim::Time lo, sim::Time hi) {
  legs_ = &legs;
  const std::size_t n = legs.size();
  LegId max_id = 0;
  for (const TraceEvent& e : legs) max_id = std::max(max_id, e.leg);
  by_id_.assign(std::min<std::size_t>(max_id, 2 * n + 16) + 1, -1);
  for (std::size_t i = 0; i < n; ++i) {
    const LegId id = legs[i].leg;
    if (id != 0 && id < by_id_.size() && by_id_[id] < 0) {
      by_id_[id] = static_cast<std::ptrdiff_t>(i);
    }
  }
  // Depth via the parent chain. Bounded walk: a malformed trace cannot
  // loop more than n steps.
  depth_.assign(n, 1);
  for (std::size_t i = 0; i < n; ++i) {
    LegId p = legs[i].parent;
    for (std::size_t steps = 0; p != 0 && steps < n; ++steps) {
      const std::ptrdiff_t j = indexOf(p);
      if (j < 0) break;
      ++depth_[i];
      p = legs[static_cast<std::size_t>(j)].parent;
    }
  }

  // Sweep the span in time order, keeping the set of active legs: a slice
  // ends where the next leg starts or where its owner ends or stops waiting.
  order_.clear();
  for (std::size_t i = 0; i < n; ++i) {
    const TraceEvent& e = legs[i];
    if (e.dur > 0 && e.ts < hi && e.ts + e.dur > lo) order_.push_back(i);
  }
  const auto from = [&](std::size_t i) { return std::max(legs[i].ts, lo); };
  std::sort(order_.begin(), order_.end(),
            [&](std::size_t a, std::size_t b) { return from(a) < from(b); });
  // The owner is the maximum of (depth, start, leg id, record index).
  const auto beats = [&](std::size_t i, std::size_t o) {
    if (depth_[i] != depth_[o]) return depth_[i] > depth_[o];
    if (legs[i].ts != legs[o].ts) return legs[i].ts > legs[o].ts;
    if (legs[i].leg != legs[o].leg) return legs[i].leg > legs[o].leg;
    return i > o;
  };
  slices_.clear();
  active_.clear();
  std::size_t next = 0;
  for (sim::Time a = lo; a < hi;) {
    while (next < order_.size() && from(order_[next]) <= a) {
      active_.push_back(order_[next++]);
    }
    std::ptrdiff_t owner = -1;
    for (std::size_t j = 0; j < active_.size();) {
      const std::size_t i = active_[j];
      if (legs[i].ts + legs[i].dur <= a) {  // ended: drop it
        active_[j] = active_.back();
        active_.pop_back();
        continue;
      }
      if (owner < 0 || beats(i, static_cast<std::size_t>(owner))) {
        owner = static_cast<std::ptrdiff_t>(i);
      }
      ++j;
    }
    sim::Time b = next < order_.size() ? from(order_[next]) : hi;
    bool wait = false;
    if (owner >= 0) {
      const TraceEvent& o = legs[static_cast<std::size_t>(owner)];
      b = std::min(b, o.ts + o.dur);
      wait = a < o.ts + o.wait;
      if (wait) b = std::min(b, o.ts + o.wait);
    }
    if (!slices_.empty() && slices_.back().owner == owner &&
        slices_.back().wait == wait) {
      slices_.back().dur += b - a;
    } else {
      slices_.push_back(PathSlice{owner, wait, b - a});
    }
    a = b;
  }
  return slices_;
}

namespace {

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
  CriticalPath walker;
  for (const PathSlice& s :
       walker.walk(op.legs, op.start, op.start + op.dur)) {
    // The residual (owner -1) is client CPU.
    const std::size_t i = static_cast<std::size_t>(s.owner);
    WaitService& ws =
        acc[s.owner < 0 ? "client" : trackStation(stations, op.legs[i].track)];
    (s.wait ? ws.wait : ws.service) += s.dur;
  }
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
  CriticalPath walker;
  for (const auto& [type, v] : groupByType(ops)) {
    os << "== " << type << " ==\n";
    // groupByType sorts fastest-first; walk from the back for the tail.
    const std::size_t count = std::min(top, v.size());
    for (std::size_t i = 0; i < count; ++i) {
      const OpRecord& ex = *v[v.size() - 1 - i];
      os << std::fixed << std::setprecision(3) << "  #" << (i + 1) << "  op "
         << ex.seq << " rep " << ex.rep << "  latency " << us(ex.dur)
         << " us  [" << trackStation(stations, ex.track) << "]\n";
      // Leg tree: indent by causal depth, printed in start-time order.
      walker.walk(ex.legs, ex.start, ex.start + ex.dur);
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
        const int d = walker.depth(j);
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
  CriticalPath walker;
  for (const OpRecord& op : ops) {
    for (const PathSlice& s :
         walker.walk(op.legs, op.start, op.start + op.dur)) {
      std::string path = op.type;
      if (s.owner < 0) {
        path += ";client";
      } else {
        chain.clear();
        std::ptrdiff_t i = s.owner;
        for (int d = walker.depth(static_cast<std::size_t>(i)); d > 0; --d) {
          chain.push_back(static_cast<std::size_t>(i));
          i = walker.indexOf(op.legs[static_cast<std::size_t>(i)].parent);
        }
        for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
          const TraceEvent& e = op.legs[*it];
          path += ';';
          path += trackStation(stations, e.track);
          path += ':';
          path += e.name;
        }
        if (s.wait) path += ";[wait]";
      }
      folded[path] += s.dur;
    }
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
