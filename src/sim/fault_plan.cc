#include "sim/fault_plan.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <climits>
#include <cstdio>
#include <stdexcept>

#include "sim/rng.h"

namespace daosim::sim {

namespace {

std::string trim(const std::string& s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b])) != 0) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])) != 0) --e;
  return s.substr(b, e - b);
}

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      out.push_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

/// Parses all of `s` as a number in [lo, hi] (a whole decimal number for
/// integral T): no sign, blank or trailing character is accepted. Throws
/// std::invalid_argument(`err`) otherwise.
template <typename T>
T parseNumber(const std::string& s, T lo, T hi, const std::string& err) {
  T v{};
  const char* end = s.data() + s.size();
  const auto [p, ec] = std::from_chars(s.data(), end, v);
  if (ec != std::errc() || p != end || !(v >= lo && v <= hi)) {
    throw std::invalid_argument(err);
  }
  return v;
}

FaultKind kindFromName(const std::string& name) {
  if (name == "fail") return FaultKind::kTargetFail;
  if (name == "recover") return FaultKind::kTargetRecover;
  if (name == "exclude") return FaultKind::kTargetExclude;
  if (name == "slow") return FaultKind::kTargetSlow;
  if (name == "flap") return FaultKind::kNicFlap;
  if (name == "stall") return FaultKind::kEngineStall;
  throw std::invalid_argument("FaultPlan: unknown fault kind: " + name);
}

/// Subject letter each kind addresses ('t'arget, 'n'ode, 'e'ngine).
char subjectPrefix(FaultKind k) noexcept {
  switch (k) {
    case FaultKind::kNicFlap:
      return 'n';
    case FaultKind::kEngineStall:
      return 'e';
    default:
      return 't';
  }
}

int parseSubject(const std::string& tok, FaultKind kind) {
  const char want = subjectPrefix(kind);
  if (tok.size() < 2 || tok[0] != want) {
    throw std::invalid_argument(std::string("FaultPlan: ") +
                                faultKindName(kind) + " takes a '" + want +
                                "N' subject, got: " + tok);
  }
  return parseNumber<int>(tok.substr(1), 0, INT_MAX,
                         "FaultPlan: bad subject: " + tok);
}

void checkRange(FaultKind kind, int subject, const FaultTopology& topo) {
  int limit = 0;
  const char* what = "target";
  switch (kind) {
    case FaultKind::kNicFlap:
      limit = topo.nodes;
      what = "node";
      break;
    case FaultKind::kEngineStall:
      limit = topo.engines;
      what = "engine";
      break;
    default:
      limit = topo.targets;
      break;
  }
  if (limit > 0 && subject >= limit) {
    throw std::out_of_range("FaultPlan: " + std::string(what) + " " +
                            std::to_string(subject) + " out of range [0, " +
                            std::to_string(limit) + ")");
  }
}

FaultEvent parseEvent(const std::string& raw, const FaultTopology& topo) {
  const std::string s = trim(raw);
  const std::size_t at = s.find('@');
  const std::size_t colon = s.find(':', at == std::string::npos ? 0 : at);
  if (at == std::string::npos || colon == std::string::npos) {
    throw std::invalid_argument("FaultPlan: expected kind@time:args, got: " +
                                s);
  }
  FaultEvent e;
  e.kind = kindFromName(trim(s.substr(0, at)));
  e.at = parseDuration(trim(s.substr(at + 1, colon - at - 1)));
  const std::vector<std::string> args = split(s.substr(colon + 1), ',');
  if (args.empty() || args[0].empty()) {
    throw std::invalid_argument("FaultPlan: missing subject in: " + s);
  }
  e.subject = parseSubject(trim(args[0]), e.kind);
  checkRange(e.kind, e.subject, topo);

  switch (e.kind) {
    case FaultKind::kTargetSlow: {
      if (args.size() != 2) {
        throw std::invalid_argument("FaultPlan: slow takes tN,xF: " + s);
      }
      const std::string f = trim(args[1]);
      if (f.size() < 2 || f[0] != 'x') {
        throw std::invalid_argument("FaultPlan: slow factor must be xF: " + s);
      }
      e.factor = parseNumber<double>(
          f.substr(1), 1.0, 1e6,
          "FaultPlan: slow factor must be a number in [1, 1e6]: " + s);
      break;
    }
    case FaultKind::kNicFlap:
    case FaultKind::kEngineStall:
      if (args.size() != 2) {
        throw std::invalid_argument(std::string("FaultPlan: ") +
                                    faultKindName(e.kind) +
                                    " takes subject,DURATION: " + s);
      }
      e.duration = parseDuration(trim(args[1]));
      break;
    default:
      if (args.size() != 1) {
        throw std::invalid_argument(std::string("FaultPlan: ") +
                                    faultKindName(e.kind) +
                                    " takes only a subject: " + s);
      }
      break;
  }
  return e;
}

FaultPlan parseRandom(const std::string& spec, const FaultTopology& topo) {
  std::uint64_t seed = 1;
  int events = 4;
  Time horizon = 500 * kMillisecond;
  const std::string err = "FaultPlan: bad random field in: " + spec;
  for (const std::string& raw : split(spec.substr(7), ',')) {
    const std::string kv = trim(raw);
    const std::string value = trim(kv.substr(kv.find('=') + 1));
    if (kv.rfind("seed=", 0) == 0) {
      seed = parseNumber<std::uint64_t>(value, 0, UINT64_MAX, err);
    } else if (kv.rfind("events=", 0) == 0) {
      events = parseNumber<int>(value, 1, 1000000, err);
    } else if (kv.rfind("horizon=", 0) == 0) {
      horizon = parseDuration(value);
    } else {
      throw std::invalid_argument("FaultPlan: unknown random field in: " +
                                  spec);
    }
  }
  return FaultPlan::random(seed, topo, events, horizon);
}

std::string formatTime(Time t) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%lluns",
                static_cast<unsigned long long>(t));
  return buf;
}

}  // namespace

const char* faultKindName(FaultKind k) noexcept {
  switch (k) {
    case FaultKind::kTargetFail:
      return "fail";
    case FaultKind::kTargetRecover:
      return "recover";
    case FaultKind::kTargetExclude:
      return "exclude";
    case FaultKind::kTargetSlow:
      return "slow";
    case FaultKind::kNicFlap:
      return "flap";
    case FaultKind::kEngineStall:
      return "stall";
  }
  return "?";
}

void FaultPlan::add(const FaultEvent& e) {
  auto it = std::upper_bound(
      events_.begin(), events_.end(), e,
      [](const FaultEvent& a, const FaultEvent& b) { return a.at < b.at; });
  events_.insert(it, e);
}

void FaultPlan::sortByTime() {
  std::stable_sort(
      events_.begin(), events_.end(),
      [](const FaultEvent& a, const FaultEvent& b) { return a.at < b.at; });
}

FaultPlan FaultPlan::parse(const std::string& spec,
                           const FaultTopology& topo) {
  FaultPlan plan;
  const std::string trimmed = trim(spec);
  if (trimmed.empty()) return plan;
  if (trimmed.rfind("random:", 0) == 0) return parseRandom(trimmed, topo);
  for (const std::string& ev : split(trimmed, ';')) {
    if (trim(ev).empty()) continue;
    plan.events_.push_back(parseEvent(ev, topo));
  }
  plan.sortByTime();
  return plan;
}

FaultPlan FaultPlan::random(std::uint64_t seed, const FaultTopology& topo,
                            int events, Time horizon) {
  FaultPlan plan;
  if (events <= 0 || horizon == 0) return plan;
  Rng rng(seed);
  const Time lo = std::max<Time>(1, horizon / 8);
  // The single target that is ever allowed to die (fail or exclude): this
  // is what keeps generated plans within a one-failure redundancy bound.
  int victim = -1;
  bool excluded = false;
  auto pickVictim = [&]() {
    if (victim < 0) {
      victim = topo.targets > 0
                   ? static_cast<int>(rng.uniform(
                         0, static_cast<std::uint64_t>(topo.targets) - 1))
                   : 0;
    }
    return victim;
  };
  for (int i = 0; i < events; ++i) {
    FaultEvent e;
    e.at = rng.uniform(lo, horizon);
    switch (rng.uniform(0, 3)) {
      case 0: {  // slowdown window with restore
        e.kind = FaultKind::kTargetSlow;
        e.subject = topo.targets > 1
                        ? static_cast<int>(rng.uniform(
                              0, static_cast<std::uint64_t>(topo.targets) - 1))
                        : 0;
        e.factor = 2.0 + static_cast<double>(rng.uniform(0, 6));
        plan.events_.push_back(e);
        FaultEvent restore = e;
        restore.at = e.at + rng.uniform(horizon / 16 + 1, horizon / 4 + 1);
        restore.factor = 1.0;
        plan.events_.push_back(restore);
        break;
      }
      case 1: {  // NIC flap
        e.kind = FaultKind::kNicFlap;
        e.subject = topo.nodes > 1
                        ? static_cast<int>(rng.uniform(
                              0, static_cast<std::uint64_t>(topo.nodes) - 1))
                        : 0;
        e.duration = rng.uniform(horizon / 32 + 1, horizon / 8 + 1);
        plan.events_.push_back(e);
        break;
      }
      case 2: {  // engine stall
        e.kind = FaultKind::kEngineStall;
        e.subject = topo.engines > 1
                        ? static_cast<int>(rng.uniform(
                              0, static_cast<std::uint64_t>(topo.engines) - 1))
                        : 0;
        e.duration = rng.uniform(horizon / 64 + 1, horizon / 16 + 1);
        plan.events_.push_back(e);
        break;
      }
      default: {  // victim fail window, or a one-time exclusion
        if (!excluded && rng.uniform(0, 1) == 0) {
          excluded = true;
          e.kind = FaultKind::kTargetExclude;
          e.subject = pickVictim();
          // An exclusion never recovers; pin it after every fail window so
          // the single-dead-target invariant holds trivially.
          e.at = horizon + rng.uniform(1, horizon / 4 + 1);
          plan.events_.push_back(e);
        } else if (!excluded) {
          e.kind = FaultKind::kTargetFail;
          e.subject = pickVictim();
          plan.events_.push_back(e);
          FaultEvent rec = e;
          rec.kind = FaultKind::kTargetRecover;
          rec.at = e.at + rng.uniform(horizon / 32 + 1, horizon / 8 + 1);
          plan.events_.push_back(rec);
        }
        break;
      }
    }
  }
  // Overlapping fail/recover windows on the victim could recover it early;
  // sort guarantees ordering, and a trailing recover restores the device
  // before any exclusion-triggered rebuild reads survivors.
  plan.sortByTime();
  return plan;
}

std::string FaultPlan::describe() const {
  std::string out;
  for (const FaultEvent& e : events_) {
    if (!out.empty()) out += ';';
    out += faultKindName(e.kind);
    out += '@';
    out += formatTime(e.at);
    out += ':';
    out += subjectPrefix(e.kind);
    out += std::to_string(e.subject);
    if (e.kind == FaultKind::kTargetSlow) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), ",x%g", e.factor);
      out += buf;
    } else if (e.kind == FaultKind::kNicFlap ||
               e.kind == FaultKind::kEngineStall) {
      out += ',';
      out += formatTime(e.duration);
    }
  }
  return out;
}

Time parseDuration(const std::string& s) {
  if (s.empty()) throw std::invalid_argument("empty duration");
  std::size_t pos = 0;
  double v = 0;
  try {
    v = std::stod(s, &pos);
  } catch (const std::exception&) {
    throw std::invalid_argument("bad duration: " + s);
  }
  const std::string unit = s.substr(pos);
  double scale = 1;  // bare number = nanoseconds
  if (unit == "s") {
    scale = 1e9;
  } else if (unit == "ms") {
    scale = 1e6;
  } else if (unit == "us") {
    scale = 1e3;
  } else if (!unit.empty() && unit != "ns") {
    throw std::invalid_argument("bad duration unit in: " + s);
  }
  const double ns = v * scale;
  if (!(ns >= 1)) {
    throw std::invalid_argument("duration must be >= 1ns: " + s);
  }
  // Anything from 2^63 ns (~292 years) up, inf included, would overflow
  // the cast to Time or a later sum of times.
  if (!(ns < 9223372036854775808.0)) {
    throw std::invalid_argument("duration must be below 2^63 ns: " + s);
  }
  return static_cast<Time>(ns);
}

}  // namespace daosim::sim
