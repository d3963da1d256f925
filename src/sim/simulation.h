// Discrete-event simulation kernel.
//
// The Simulation owns a time-ordered event queue of coroutine resumptions.
// Simulated activities are coroutines (sim::Task) which suspend on awaitables
// (delay, synchronization primitives, queueing stations) and are resumed by
// the kernel at the appropriate simulated instant. Events at equal times are
// processed in FIFO scheduling order, which makes runs fully deterministic.
//
// Hot-path notes: coroutine frames and spawn join-states come from the
// per-thread FramePool (sim/pool.h), the event queue is a now-FIFO plus one
// (time, seq) heap (sim/event_queue.h), and independent simulations (sweep
// points, repetitions) can execute concurrently via sim::parallelMap — a
// Simulation itself is strictly single-threaded.
#pragma once

#include <cassert>
#include <coroutine>
#include <cstdint>
#include <exception>
#include <utility>

#include "sim/event_queue.h"
#include "sim/pool.h"
#include "sim/rng.h"
#include "sim/task.h"
#include "sim/time.h"

namespace daosim::obs {
class Observer;
class Telemetry;
}  // namespace daosim::obs

namespace daosim::sim {

class Simulation;

namespace detail {

/// Intrusive FIFO of suspended coroutines. Each entry is a Waiter member
/// of the awaiter that suspended its coroutine, so it lives in that
/// coroutine's frame until the coroutine resumes: queueing allocates
/// nothing. A list never owns its entries, and neither destroying a list
/// nor destroying a waiting frame touches the other.
class WaitList {
 public:
  struct Waiter {
    std::coroutine_handle<> handle;
    Waiter* next = nullptr;
  };

  bool empty() const noexcept { return head_ == nullptr; }
  std::size_t size() const noexcept { return size_; }

  /// Queues `h` behind every earlier waiter, using `w` as its entry.
  void push(Waiter& w, std::coroutine_handle<> h) noexcept {
    w.handle = h;
    w.next = nullptr;
    if (tail_ != nullptr) {
      tail_->next = &w;
    } else {
      head_ = &w;
    }
    tail_ = &w;
    ++size_;
  }

  /// Removes and returns the oldest waiter (the list must not be empty).
  std::coroutine_handle<> pop() noexcept {
    assert(head_ != nullptr);
    Waiter* w = head_;
    head_ = w->next;
    if (head_ == nullptr) tail_ = nullptr;
    --size_;
    return w->handle;
  }

  /// Schedules every waiter at sim's current time, oldest first, and
  /// empties the list.
  void wakeAll(Simulation& sim);

 private:
  Waiter* head_ = nullptr;
  Waiter* tail_ = nullptr;
  std::size_t size_ = 0;
};

/// Shared completion state of a spawned process. Intrusively refcounted and
/// pool-allocated so spawning is allocation-free in steady state; a
/// Simulation and all its handles live on one thread, so the count is plain.
struct JoinState {
  explicit JoinState(Simulation& s) : sim(&s) {}

  static void* operator new(std::size_t n) { return FramePool::allocate(n); }
  static void operator delete(void* p, std::size_t n) noexcept {
    FramePool::deallocate(p, n);
  }

  Simulation* sim;
  std::uint32_t refs = 1;  // the creating JoinRef adopts this count
  bool done = false;
  std::exception_ptr error;
  WaitList waiters;  // joiners of an unfinished process

  void complete(std::exception_ptr e);
};

/// Intrusive reference to a JoinState.
class JoinRef {
 public:
  JoinRef() noexcept = default;
  /// Adopts `s` (which must carry one reference for this JoinRef).
  explicit JoinRef(JoinState* s) noexcept : s_(s) {}
  JoinRef(const JoinRef& o) noexcept : s_(o.s_) {
    if (s_ != nullptr) ++s_->refs;
  }
  JoinRef(JoinRef&& o) noexcept : s_(std::exchange(o.s_, nullptr)) {}
  JoinRef& operator=(JoinRef o) noexcept {
    std::swap(s_, o.s_);
    return *this;
  }
  ~JoinRef() { reset(); }

  void reset() noexcept {
    if (s_ != nullptr && --s_->refs == 0) delete s_;
    s_ = nullptr;
  }

  JoinState* get() const noexcept { return s_; }
  JoinState* operator->() const noexcept { return s_; }
  explicit operator bool() const noexcept { return s_ != nullptr; }

 private:
  JoinState* s_ = nullptr;
};

/// Self-starting, self-destroying root coroutine wrapping a spawned task.
/// While it lives, its promise is linked into its Simulation's list of live
/// roots, so ~Simulation can destroy a process that never finished.
struct Root {
  struct promise_type {
    static void* operator new(std::size_t n) { return FramePool::allocate(n); }
    static void operator delete(void* p, std::size_t n) noexcept {
      FramePool::deallocate(p, n);
    }

    /// Receives the coroutine's arguments (Simulation::runRoot's).
    promise_type(const JoinRef& state, const Task<void>& task) noexcept;
    ~promise_type();
    promise_type(const promise_type&) = delete;
    promise_type& operator=(const promise_type&) = delete;

    Root get_return_object() noexcept { return {}; }
    std::suspend_never initial_suspend() noexcept { return {}; }
    std::suspend_never final_suspend() noexcept { return {}; }
    void return_void() noexcept {}
    void unhandled_exception() noexcept { std::terminate(); }

    Simulation* sim;
    promise_type* prev = nullptr;  // intrusive list of live roots
    promise_type* next = nullptr;
  };
};

}  // namespace detail

/// Handle to a spawned simulated process; join() awaits its completion and
/// rethrows any exception the process terminated with.
class ProcHandle {
 public:
  ProcHandle() = default;
  explicit ProcHandle(detail::JoinRef s) : state_(std::move(s)) {}

  bool valid() const noexcept { return static_cast<bool>(state_); }
  bool done() const noexcept { return state_ && state_->done; }
  bool failed() const noexcept {
    return state_ && state_->done && state_->error;
  }
  /// The exception a completed process failed with (null if none).
  std::exception_ptr error() const noexcept {
    return state_ ? state_->error : nullptr;
  }

  /// Awaitable that completes when the process finishes.
  auto join() const noexcept {
    struct Awaiter {
      detail::JoinState* state;
      detail::WaitList::Waiter entry{};

      bool await_ready() const noexcept { return state->done; }
      void await_suspend(std::coroutine_handle<> h) noexcept {
        state->waiters.push(entry, h);
      }
      void await_resume() const {
        if (state->error) std::rethrow_exception(state->error);
      }
    };
    assert(state_ && "joining an empty process handle");
    return Awaiter{state_.get()};
  }

 private:
  detail::JoinRef state_;
};

class Simulation {
 public:
  /// "No telemetry sample due" sentinel; larger than any real time.
  static constexpr Time kNever = ~Time{0};

  explicit Simulation(std::uint64_t seed = 1) : rng_(seed) {}
  /// Destroys every process still suspended (a livelock cut by run()'s
  /// event budget, a waiter nobody wakes). Each root frame owns its task
  /// chain, so every frame-local destructor runs once. Those destructors
  /// must not resume anything; obs scopes whose observer has detached
  /// record nothing.
  ~Simulation();

  // Neither copyable nor movable: queue stations, nodes and engines hold
  // stable pointers to their Simulation.
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;
  Simulation(Simulation&&) = delete;
  Simulation& operator=(Simulation&&) = delete;

  Time now() const noexcept { return now_; }
  Rng& rng() noexcept { return rng_; }

  /// Schedules `h` to resume at absolute simulated time `t` (>= now). A
  /// past `t` is a bug in the caller; rather than silently corrupting the
  /// timeline in release builds (the assert is compiled out) it is clamped
  /// to now and counted — see pastScheduleClamps().
  void scheduleAt(Time t, std::coroutine_handle<> h) {
    assert(t >= now_ && "scheduleAt into the past");
    if (t < now_) {
      t = now_;
      ++past_clamps_;
    }
    queue_.push(now_, t, seq_++, h);
  }

  void scheduleAfter(Time d, std::coroutine_handle<> h) {
    scheduleAt(now_ + d, h);
  }

  /// Number of scheduleAt calls that targeted the past and were clamped to
  /// the current time (always 0 in a correct model).
  std::uint64_t pastScheduleClamps() const noexcept { return past_clamps_; }

  /// Awaitable suspending the current coroutine for `d` simulated time.
  auto delay(Time d) noexcept {
    struct Awaiter {
      Simulation* sim;
      Time d;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) const {
        sim->scheduleAfter(d, h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{this, d};
  }

  /// Reschedules the current coroutine at the current time (fair yield).
  auto yield() noexcept { return delay(0); }

  /// Starts a detached simulated process. The process begins running
  /// immediately (until its first suspension point).
  ProcHandle spawn(Task<void> task);

  /// Runs until the event queue drains; returns the number of events
  /// processed. `max_events` guards against runaway simulations.
  std::size_t run(std::size_t max_events = ~std::size_t{0});

  /// Runs events with timestamps <= t, then sets now to t.
  std::size_t runUntil(Time t);

  bool empty() const noexcept { return queue_.empty(); }
  std::size_t pendingEvents() const noexcept { return queue_.size(); }
  std::size_t processedEvents() const noexcept { return processed_; }

  /// Observability sink; null (the default) disables all instrumentation.
  /// Every instrumentation site guards on this one pointer, so a run without
  /// an observer pays a single predictable branch per potential event.
  obs::Observer* observer() const noexcept { return observer_; }
  void setObserver(obs::Observer* o) noexcept { observer_ = o; }

  /// Telemetry sampler; null (the default) disables periodic sampling.
  /// Installed by obs::Telemetry::attach(), which supplies the first sample
  /// boundary. With no telemetry the kernel pays one integer compare per
  /// event (telemetry_due_ stays at kNever) and allocates nothing; push
  /// instrument sites guard on this pointer like observer sites do.
  obs::Telemetry* telemetry() const noexcept { return telemetry_; }
  void setTelemetry(obs::Telemetry* t, Time next_due) noexcept {
    telemetry_ = t;
    telemetry_due_ = t != nullptr ? next_due : kNever;
  }

 private:
  /// Cold path: snapshots the telemetry tree at every sample boundary
  /// strictly below `t`, with the clock set to each boundary in turn (out
  /// of line; see simulation.cc).
  void telemetrySample(Time t);
  static detail::Root runRoot(detail::JoinRef state, Task<void> task);

  EventQueue queue_;
  Time now_ = 0;
  std::uint64_t seq_ = 0;
  std::size_t processed_ = 0;
  std::uint64_t past_clamps_ = 0;
  Rng rng_;
  obs::Observer* observer_ = nullptr;
  obs::Telemetry* telemetry_ = nullptr;
  Time telemetry_due_ = kNever;
  detail::Root::promise_type* roots_ = nullptr;  // live spawned processes

  friend struct detail::Root::promise_type;
};

namespace detail {

inline void WaitList::wakeAll(Simulation& sim) {
  while (!empty()) sim.scheduleAt(sim.now(), pop());
}

inline Root::promise_type::promise_type(const JoinRef& state,
                                        const Task<void>& /*task*/) noexcept
    : sim(state->sim), next(sim->roots_) {
  if (next != nullptr) next->prev = this;
  sim->roots_ = this;
}

inline Root::promise_type::~promise_type() {
  if (prev != nullptr) {
    prev->next = next;
  } else {
    sim->roots_ = next;
  }
  if (next != nullptr) next->prev = prev;
}

}  // namespace detail

}  // namespace daosim::sim
