// NVMe SSD model: a virtual-clock rate limiter with burst completion.
//
// Modern NVMe behaviour that matters for the paper's experiments:
//   * an individual I/O completes quickly (controller/cache burst rate plus
//     access latency) as long as the device is not backlogged;
//   * sustained throughput is capped at the device's rate — a virtual
//     drain clock advances by bytes/rate per op, and requests stall once
//     the backlog exceeds a small absorption window (write-cache depth /
//     internal queue depth);
//   * small I/O is bounded by per-op service (IOPS cap), not bandwidth.
//
// Unlike a single-server FIFO, this keeps utilization near 1.0 when the
// number of synchronous client processes is comparable to the number of
// devices — which is how the paper's IOR runs saturate 256 targets with a
// few hundred processes.
#pragma once

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "hw/spec.h"
#include "obs/observer.h"
#include "sim/simulation.h"
#include "sim/task.h"

namespace daosim::hw {

/// Thrown by I/O to a failed device (used by EC/replication degraded-mode
/// tests; DAOS clients catch this and fall back to surviving shards).
class DeviceFailed : public std::runtime_error {
 public:
  explicit DeviceFailed(const std::string& name)
      : std::runtime_error("device failed: " + name) {}
};

class NvmeDevice {
 public:
  NvmeDevice(sim::Simulation& sim, NvmeSpec spec, std::string name)
      : sim_(&sim), spec_(spec), name_(std::move(name)) {}

  sim::Task<void> write(std::uint64_t bytes, obs::OpId op = 0) {
    throwIfFailed();
    bytes_written_ += bytes;
    ++write_ops_;
    co_await io(std::max(transferTime(bytes, spec_.write_gibps),
                         spec_.write_op_service),
                spec_.write_latency + transferTime(bytes, spec_.burst_gibps),
                op);
    throwIfFailed();  // failure may have been injected while queued
  }

  sim::Task<void> read(std::uint64_t bytes, obs::OpId op = 0) {
    throwIfFailed();
    bytes_read_ += bytes;
    ++read_ops_;
    co_await io(std::max(transferTime(bytes, spec_.read_gibps),
                         spec_.read_op_service),
                spec_.read_latency + transferTime(bytes, spec_.burst_gibps),
                op);
    throwIfFailed();
  }

  // Failure semantics ("fail-at-dequeue"): fail() takes effect immediately
  // for new submissions (throwIfFailed at op entry) AND for ops already in
  // flight — each op re-checks when its completion event is dequeued, so an
  // op queued before the failure still observes it. At the exact fail
  // timestamp the outcome follows the kernel's FIFO (time, seq) order: a
  // completion event scheduled before the fail event resumes first and the
  // op succeeds; one scheduled after observes the failure. Spawn order
  // therefore fully determines the outcome — there is no nondeterminism at
  // the boundary (covered by tests/hw_test.cc).
  void fail() noexcept { failed_ = true; }
  void recover() noexcept { failed_ = false; }
  bool failed() const noexcept { return failed_; }

  /// Scales both the sustained service time and the completion latency of
  /// subsequent ops by `f` (>= 1; 1.0 restores full speed). Fault plans use
  /// this to model a degraded ("gray failure") device. Values below 1 clamp
  /// to 1.
  void setSlowdown(double f) noexcept { slowdown_ = f < 1.0 ? 1.0 : f; }
  double slowdown() const noexcept { return slowdown_; }

  const NvmeSpec& spec() const noexcept { return spec_; }
  const std::string& name() const noexcept { return name_; }
  std::uint64_t bytesWritten() const noexcept { return bytes_written_; }
  std::uint64_t bytesRead() const noexcept { return bytes_read_; }
  std::uint64_t writeOps() const noexcept { return write_ops_; }
  std::uint64_t readOps() const noexcept { return read_ops_; }
  /// I/Os admitted but not yet acknowledged (the device queue depth a
  /// telemetry gauge samples).
  std::uint32_t queueDepth() const noexcept { return inflight_; }
  /// Device time consumed on the sustained-rate clock up to now: the
  /// service booked at admission minus the backlog not yet drained, so it
  /// never runs ahead of the clock.
  sim::Time busyTime() const noexcept {
    const sim::Time now = sim_->now();
    return virtual_end_ > now ? busy_ - (virtual_end_ - now) : busy_;
  }

  /// Node id used as the chrome-trace pid for this device's track.
  void setTracePid(int pid) noexcept { trace_pid_ = pid; }

 private:
  sim::Task<void> io(sim::Time service, sim::Time completion_latency,
                     obs::OpId op) {
    if (slowdown_ != 1.0) {  // gated so the default path stays bit-exact
      service = static_cast<sim::Time>(static_cast<double>(service) *
                                       slowdown_);
      completion_latency = static_cast<sim::Time>(
          static_cast<double>(completion_latency) * slowdown_);
    }
    const sim::Time now = sim_->now();
    virtual_end_ = std::max(virtual_end_, now) + service;
    busy_ += service;
    ++inflight_;
    // Ack when the burst transfer completes AND the backlog fits the
    // absorption window; the two overlap (cache fill proceeds while the
    // medium drains), so the wait is the max, not the sum.
    sim::Time wait = completion_latency;
    if (virtual_end_ > now + spec_.backlog_window) {
      wait = std::max(wait, virtual_end_ - now - spec_.backlog_window);
    }
    co_await sim_->delay(wait);
    --inflight_;
    if (op != 0) {
      if (obs::Observer* o = sim_->observer()) {
        if (track_epoch_ != o->epoch()) {
          track_ = o->track(trace_pid_, name_);
          track_epoch_ = o->epoch();
        }
        // Backlog stall beyond the intrinsic completion latency is the
        // leg's queue wait.
        const sim::Time stall =
            wait > completion_latency ? wait - completion_latency : 0;
        o->leg(op, obs::Cat::kDevice, track_, "io", now, stall);
      }
    }
  }

  void throwIfFailed() const {
    if (failed_) throw DeviceFailed(name_);
  }

  sim::Simulation* sim_;
  NvmeSpec spec_;
  std::string name_;
  sim::Time virtual_end_ = 0;
  sim::Time busy_ = 0;
  std::uint32_t inflight_ = 0;
  int trace_pid_ = 0;
  obs::TrackId track_ = 0;
  std::uint64_t track_epoch_ = 0;
  bool failed_ = false;
  double slowdown_ = 1.0;
  std::uint64_t bytes_written_ = 0;
  std::uint64_t bytes_read_ = 0;
  std::uint64_t write_ops_ = 0;
  std::uint64_t read_ops_ = 0;
};

}  // namespace daosim::hw
