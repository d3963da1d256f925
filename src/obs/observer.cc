#include "obs/observer.h"

#include <atomic>
#include <iomanip>
#include <string>

#include "obs/telemetry.h"

namespace daosim::obs {

namespace {
std::atomic<std::uint64_t> g_epoch{0};
}  // namespace

Observer::Observer() : epoch_(++g_epoch) {}

Observer::~Observer() { detach(); }

void Observer::attach(sim::Simulation& sim) {
  detach();
  sim_ = &sim;
  sim.setObserver(this);
}

void Observer::detach() {
  if (sim_ != nullptr && sim_->observer() == this) sim_->setObserver(nullptr);
  sim_ = nullptr;
}

void Observer::enableTracing() {
  if (tracer_ == nullptr) tracer_ = std::make_unique<Tracer>();
  tracing_ = true;
}

void Observer::enableExemplars(std::size_t k, std::uint32_t rep) {
  if (reservoir_ == nullptr) {
    reservoir_ = std::make_unique<ExemplarReservoir>(k);
  }
  rep_ = rep;
}

sim::Time Observer::now() const noexcept {
  return sim_ != nullptr ? sim_->now() : 0;
}

TrackId Observer::track(int pid, std::string_view name) {
  // The tracer hosts the track registry even when event recording is off.
  if (tracer_ == nullptr) tracer_ = std::make_unique<Tracer>();
  return tracer_->track(pid, name);
}

TrackId Observer::reservoirTrack(TrackId t) {
  constexpr TrackId kUnmapped = ~TrackId{0};
  if (t >= reservoir_track_.size()) {
    reservoir_track_.resize(tracer_->trackCount(), kUnmapped);
  }
  if (reservoir_track_[t] == kUnmapped) {
    reservoir_track_[t] =
        reservoir_->internTrack(tracer_->trackPid(t), tracer_->trackName(t));
  }
  return reservoir_track_[t];
}

OpId Observer::beginOp(const char* /*type*/, TrackId /*track*/) {
  const OpId op = next_op_++;
  OpenOp& o = open_[op];
  if (!spare_legs_.empty()) {
    o.legs = std::move(spare_legs_.back());
    spare_legs_.pop_back();
  }
  return op;
}

void Observer::endOp(OpId op, const char* type, TrackId track,
                     sim::Time start) {
  const sim::Time end = now();
  const sim::Time total = end - start;
  const OpId seq = opSeq(op);
  auto open_it = open_.find(seq);
  OpTypeAgg& agg = op_types_[type];
  ++agg.count;
  agg.latency.add(total);
  if (open_it != open_.end()) {
    std::vector<TraceEvent>& legs = open_it->second.legs;
    for (const PathSlice& s : path_.walk(legs, start, end)) {
      const Cat c = s.owner < 0 ? Cat::kClient
                    : s.wait    ? Cat::kServerQueue
                                : legs[static_cast<std::size_t>(s.owner)].cat;
      agg.cat_ns[static_cast<int>(c)] += s.dur;
    }
    if (reservoir_ != nullptr && tracer_ != nullptr) {
      OpRecord rec;
      rec.type = type;
      rec.seq = seq;
      rec.rep = rep_;
      rec.track = reservoirTrack(track);
      rec.start = start;
      rec.dur = total;
      rec.legs = std::move(legs);
      for (TraceEvent& e : rec.legs) e.track = reservoirTrack(e.track);
      reservoir_->offer(std::move(rec));
    } else {
      legs.clear();
      spare_legs_.push_back(std::move(legs));
    }
    open_.erase(open_it);
  } else {
    agg.cat_ns[static_cast<int>(Cat::kClient)] += total;
  }

  if (tracing_) tracer_->span(track, seq, type, start, end);
}

LegId Observer::leg(OpId op, Cat cat, TrackId track, const char* name,
                    sim::Time start, sim::Time wait, LegId id) {
  const OpId seq = opSeq(op);
  if (seq == 0) return 0;
  const sim::Time dur = now() - start;
  if (wait > dur) wait = dur;
  auto it = open_.find(seq);
  LegId lid = id;
  if (it != open_.end() && lid == 0) lid = ++it->second.next_leg;
  const TraceEvent e{.ts = start,
                     .dur = dur,
                     .op = seq,
                     .track = track,
                     .name = name,
                     .cat = cat,
                     .is_span = false,
                     .leg = lid,
                     .parent = opParent(op),
                     .wait = wait};
  if (tracing_) tracer_->push(e);
  if (it != open_.end()) it->second.legs.push_back(e);
  return lid;
}

LegId Observer::openLeg(OpId op) {
  const OpId seq = opSeq(op);
  if (seq == 0) return 0;
  auto it = open_.find(seq);
  if (it == open_.end()) return 0;
  return ++it->second.next_leg;
}

void Observer::writeOpRows(std::ostream& os) const {
  // Rows sort by full name (not by op type) within each kind.
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, const Histogram*> latencies;
  for (const auto& [type, agg] : op_types_) {
    const std::string p = "op." + type + ".";
    counters[p + "count"] = agg.count;
    for (int c = 0; c < kCatCount; ++c) {
      if (agg.cat_ns[c] == 0) continue;
      counters[p + catName(static_cast<Cat>(c)) + "_ns"] = agg.cat_ns[c];
    }
    latencies[p + "latency_ns"] = &agg.latency;
  }
  for (const auto& [name, v] : counters) {
    os << "counter," << csvField(name) << ",value," << v << "\n";
  }
  for (const auto& [name, h] : latencies) {
    const std::string n = "histogram," + csvField(name) + ",";
    os << n << "count," << h->count() << "\n";
    os << n << "min," << h->min() << "\n";
    os << n << "max," << h->max() << "\n";
    os << n << "mean," << h->mean() << "\n";
    os << n << "p50," << h->percentile(50) << "\n";
    os << n << "p95," << h->percentile(95) << "\n";
    os << n << "p99," << h->percentile(99) << "\n";
  }
}

void Observer::writeChromeTrace(std::ostream& os) const {
  if (tracer_ != nullptr) {
    tracer_->writeChromeTrace(os);
  } else {
    os << "{\"schema\": " << kTraceSchemaVersion << ", \"traceEvents\": []}\n";
  }
}

void Observer::writeBreakdown(std::ostream& os) const {
  if (op_types_.empty()) return;
  os << "-- per-op latency and layer breakdown --\n";
  os << std::left << std::setw(18) << "op" << std::right << std::setw(8)
     << "count" << std::setw(10) << "mean_us" << std::setw(9) << "p50_us"
     << std::setw(9) << "p95_us" << std::setw(9) << "p99_us" << std::setw(9)
     << "max_us";
  for (int c = 0; c < kCatCount; ++c) {
    os << std::setw(14) << (std::string(catName(static_cast<Cat>(c))) + "%");
  }
  os << "\n";
  const auto us = [](double ns) { return ns / 1000.0; };
  for (const auto& [type, agg] : op_types_) {
    os << std::left << std::setw(18) << type << std::right << std::setw(8)
       << agg.count << std::fixed << std::setprecision(1) << std::setw(10)
       << us(agg.latency.mean()) << std::setw(9)
       << us(agg.latency.percentile(50)) << std::setw(9)
       << us(agg.latency.percentile(95)) << std::setw(9)
       << us(agg.latency.percentile(99)) << std::setw(9)
       << us(static_cast<double>(agg.latency.max()));
    std::uint64_t total = 0;
    for (int c = 0; c < kCatCount; ++c) total += agg.cat_ns[c];
    for (int c = 0; c < kCatCount; ++c) {
      const double pct =
          total > 0 ? 100.0 * static_cast<double>(agg.cat_ns[c]) /
                          static_cast<double>(total)
                    : 0.0;
      os << std::setw(14) << std::setprecision(1) << pct;
    }
    os << "\n";
    os.unsetf(std::ios::fixed);
    os << std::setprecision(6);
  }
}

}  // namespace daosim::obs
