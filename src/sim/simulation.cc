#include "sim/simulation.h"

#include <cstddef>
#include <stdexcept>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "obs/telemetry.h"

namespace daosim::sim {

namespace detail {

void JoinState::complete(std::exception_ptr e) {
  done = true;
  error = std::move(e);
  // Resume joiners through the scheduler (never inline) so completion order
  // stays FIFO-deterministic and stacks stay shallow.
  waiters.wakeAll(*sim);
}

}  // namespace detail

Simulation::~Simulation() {
  while (roots_ != nullptr) {
    std::coroutine_handle<detail::Root::promise_type>::from_promise(*roots_)
        .destroy();
  }
#if defined(__GLIBC__)
  // A testbed's members die before its Simulation and free ~10^5 small
  // blocks, which glibc parks in fastbins until some later free or request
  // is large. Whether teardown happens to make one depends on the heap
  // layout; if it does not, the free heap stays in pieces and every later
  // deploy in the process slows down (a perfbench fdb_kv deploy ~2x, an
  // ior_scale deploy ~4x). mallopt merges the main arena's fastbins before
  // it sets anything, and the value it sets is glibc's default.
  mallopt(M_MXFAST, static_cast<int>(64 * sizeof(std::size_t) / 4));
#endif
}

detail::Root Simulation::runRoot(detail::JoinRef state, Task<void> task) {
  std::exception_ptr error;
  try {
    co_await std::move(task);
  } catch (...) {
    error = std::current_exception();
  }
  state->complete(std::move(error));
}

ProcHandle Simulation::spawn(Task<void> task) {
  detail::JoinRef state(new detail::JoinState(*this));
  runRoot(state, std::move(task));  // the root frame holds its own reference
  return ProcHandle(std::move(state));
}

std::size_t Simulation::run(std::size_t max_events) {
  std::size_t n = 0;
  while (!queue_.empty()) {
    if (n >= max_events) {
      throw std::runtime_error(
          "Simulation::run: event budget exhausted (possible livelock)");
    }
    const EventQueue::Item e = queue_.pop();
    assert(e.t >= now_);
    // Sample the telemetry tree at every boundary this event steps over
    // (strictly below e.t: events at exactly the boundary run first, so a
    // sample at B reflects all state changes with timestamps <= B). With no
    // telemetry attached telemetry_due_ is kNever and this is one compare.
    if (e.t > telemetry_due_) [[unlikely]] telemetrySample(e.t);
    now_ = e.t;
    ++n;
    ++processed_;
    e.h.resume();
  }
  return n;
}

std::size_t Simulation::runUntil(Time t) {
  std::size_t n = 0;
  while (!queue_.empty() && queue_.nextTime() <= t) {
    const EventQueue::Item e = queue_.pop();
    if (e.t > telemetry_due_) [[unlikely]] telemetrySample(e.t);
    now_ = e.t;
    ++n;
    ++processed_;
    e.h.resume();
  }
  if (now_ < t) {
    if (t > telemetry_due_) [[unlikely]] telemetrySample(t);
    now_ = t;
  }
  return n;
}

void Simulation::telemetrySample(Time t) {
  // The clock stands at each boundary while its probes are read, so a
  // probe that depends on now() (the NVMe backlog) sees the sample time.
  // No event runs in between, so no simulated outcome moves.
  while (telemetry_due_ < t) {
    now_ = telemetry_due_;
    telemetry_due_ = telemetry_->sampleDue();
  }
}

}  // namespace daosim::sim
