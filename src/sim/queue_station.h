// FIFO queueing station: the basic contention model of the simulator.
//
// A QueueStation has `servers` identical servers. exec(service) queues the
// calling coroutine FIFO, occupies one server for `service` simulated time,
// and returns. Saturation throughput is servers/service; under low load the
// station contributes pure latency. NVMe devices, NIC directions, target
// xstreams, the Lustre MDS, Ceph OSD op threads and the DFUSE daemon are all
// instances of this model with different parameters.
#pragma once

#include <cstdint>
#include <string>

#include "obs/observer.h"
#include "sim/simulation.h"
#include "sim/stats.h"
#include "sim/sync.h"
#include "sim/task.h"
#include "sim/time.h"

namespace daosim::sim {

class QueueStation {
 public:
  QueueStation(Simulation& sim, std::string name, int servers)
      : sim_(&sim), name_(std::move(name)), sem_(sim, servers) {}

  /// Occupies one server for `service` time, FIFO-queued. `op` (if nonzero
  /// and an observer is attached) gets one station leg of category `cat`
  /// recorded, with its queue wait as the leg's wait prefix.
  Task<void> exec(Time service, obs::OpId op = 0,
                  obs::Cat cat = obs::Cat::kService) {
    const Time queued_at = sim_->now();
    co_await sem_.acquire();
    const Time acquired_at = sim_->now();
    wait_ns_ += acquired_at - queued_at;
    startService(acquired_at);
    co_await sim_->delay(service);
    sem_.release();
    endService(acquired_at);
    ++ops_;
    if (op != 0) {
      if (obs::Observer* o = sim_->observer()) {
        o->leg(op, cat, obsTrack(o), "service", queued_at,
               acquired_at - queued_at);
      }
    }
  }

  /// Manually occupies a server for work whose duration is not known up
  /// front (e.g. a FUSE thread held across a backend operation). Returns the
  /// acquisition time; pass it to leave() so the hold is accumulated into
  /// busy time. Prefer exec() where possible.
  sim::Task<Time> enter(obs::OpId op = 0) {
    const Time queued_at = sim_->now();
    co_await sem_.acquire();
    const Time acquired_at = sim_->now();
    wait_ns_ += acquired_at - queued_at;
    startService(acquired_at);
    ++ops_;
    if (op != 0) {
      if (obs::Observer* o = sim_->observer()) {
        // Pure-wait leg: the whole duration is queueing.
        o->leg(op, obs::Cat::kServerQueue, obsTrack(o), "queue", queued_at,
               acquired_at - queued_at);
      }
    }
    co_return acquired_at;
  }

  /// Releases a server taken with enter(), accumulating the hold duration
  /// into busy time (`acquired_at` is enter()'s return value).
  void leave(Time acquired_at, obs::OpId op = 0) {
    sem_.release();
    endService(acquired_at);
    if (op != 0) {
      if (obs::Observer* o = sim_->observer()) {
        o->leg(op, obs::Cat::kService, obsTrack(o), "service", acquired_at);
      }
    }
  }

  /// Accounts payload bytes moved through this station (NIC directions get
  /// this from Cluster::send); feeds the telemetry bytes/s series.
  void noteBytes(std::uint64_t b) noexcept { bytes_ += b; }
  std::uint64_t bytes() const noexcept { return bytes_; }

  const std::string& name() const noexcept { return name_; }
  std::uint64_t ops() const noexcept { return ops_; }
  /// Server time spent so far, including the elapsed part of services
  /// still running (so a busy fraction sampled mid-service stays <= 1).
  Time busyTime() const noexcept {
    return busy_ns_ + in_service_ * sim_->now() - start_sum_;
  }
  Time totalWait() const noexcept { return wait_ns_; }
  std::size_t queueLength() const noexcept { return sem_.waiting(); }

  /// Node id used as the chrome-trace pid for this station's track.
  void setTracePid(int pid) noexcept { trace_pid_ = pid; }

  /// Mean queueing delay per operation, in ns.
  double meanWait() const noexcept {
    return ops_ ? static_cast<double>(wait_ns_) / static_cast<double>(ops_)
                : 0.0;
  }

  /// Busy fraction of one server-equivalent over [0, horizon].
  double utilization(Time horizon) const noexcept {
    return horizon ? static_cast<double>(busyTime()) /
                         static_cast<double>(horizon)
                   : 0.0;
  }

 private:
  void startService(Time at) noexcept {
    ++in_service_;
    start_sum_ += at;
  }
  void endService(Time started_at) noexcept {
    --in_service_;
    start_sum_ -= started_at;
    busy_ns_ += sim_->now() - started_at;
  }

  /// Track id for this station, cached per observer epoch so a fresh
  /// observer (e.g. a new rep) never sees a stale id.
  obs::TrackId obsTrack(obs::Observer* o) {
    if (track_epoch_ != o->epoch()) {
      track_ = o->track(trace_pid_, name_);
      track_epoch_ = o->epoch();
    }
    return track_;
  }

  Simulation* sim_;
  std::string name_;
  Semaphore sem_;
  std::uint64_t ops_ = 0;
  Time busy_ns_ = 0;               // completed services
  std::uint64_t in_service_ = 0;   // services running now
  Time start_sum_ = 0;             // sum of their start times
  Time wait_ns_ = 0;
  std::uint64_t bytes_ = 0;
  int trace_pid_ = 0;
  obs::TrackId track_ = 0;
  std::uint64_t track_epoch_ = 0;
};

}  // namespace daosim::sim
