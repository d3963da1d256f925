// Synchronization primitives for simulated coroutines.
//
// All primitives resume waiters *through the scheduler* (at the current
// simulated time) rather than inline, which keeps resumption order FIFO and
// deterministic and bounds native stack depth. Semaphore uses hand-off
// semantics: release() grants the permit directly to the oldest waiter, so
// queueing is strictly fair (no barging) — important for the queueing-station
// models built on top of it. Waiters queue in a detail::WaitList linked
// through their awaiters, so no primitive allocates, to build or to wait.
#pragma once

#include <cassert>
#include <coroutine>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/simulation.h"
#include "sim/task.h"

namespace daosim::sim {

/// One-shot event: waiters block until set() is called; waits after set()
/// complete immediately. set() is idempotent.
class Event {
 public:
  explicit Event(Simulation& sim) : sim_(&sim) {}

  Event(const Event&) = delete;
  Event& operator=(const Event&) = delete;

  bool isSet() const noexcept { return set_; }

  void set() {
    if (set_) return;
    set_ = true;
    waiters_.wakeAll(*sim_);
  }

  auto wait() noexcept {
    struct Awaiter {
      Event* ev;
      detail::WaitList::Waiter entry{};
      bool await_ready() const noexcept { return ev->set_; }
      void await_suspend(std::coroutine_handle<> h) noexcept {
        ev->waiters_.push(entry, h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{this};
  }

 private:
  Simulation* sim_;
  bool set_ = false;
  detail::WaitList waiters_;
};

/// Counting semaphore with FIFO hand-off.
class Semaphore {
 public:
  Semaphore(Simulation& sim, std::int64_t count)
      : sim_(&sim), count_(count) {
    assert(count >= 0);
  }

  Semaphore(const Semaphore&) = delete;
  Semaphore& operator=(const Semaphore&) = delete;

  std::size_t waiting() const noexcept { return waiters_.size(); }

  auto acquire() noexcept {
    struct Awaiter {
      Semaphore* sem;
      detail::WaitList::Waiter entry{};
      bool await_ready() const noexcept {
        if (sem->count_ > 0) {
          --sem->count_;
          return true;
        }
        return false;
      }
      void await_suspend(std::coroutine_handle<> h) noexcept {
        sem->waiters_.push(entry, h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{this};
  }

  /// Returns a permit; if a coroutine is queued, hands it over directly.
  void release() {
    if (!waiters_.empty()) {
      sim_->scheduleAt(sim_->now(), waiters_.pop());
    } else {
      ++count_;
    }
  }

 private:
  Simulation* sim_;
  std::int64_t count_;
  detail::WaitList waiters_;
};

/// Cyclic barrier for a fixed number of participants.
class Barrier {
 public:
  Barrier(Simulation& sim, std::size_t parties)
      : sim_(&sim), parties_(parties) {
    assert(parties > 0);
  }

  Barrier(const Barrier&) = delete;
  Barrier& operator=(const Barrier&) = delete;

  auto arriveAndWait() noexcept {
    struct Awaiter {
      Barrier* b;
      detail::WaitList::Waiter entry{};
      bool await_ready() const noexcept { return b->parties_ == 1; }
      bool await_suspend(std::coroutine_handle<> h) {
        if (b->waiters_.size() + 1 == b->parties_) {
          // Last arrival releases everyone; it does not suspend.
          b->waiters_.wakeAll(*b->sim_);
          ++b->generation_;
          return false;
        }
        b->waiters_.push(entry, h);
        return true;
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{this};
  }

  std::uint64_t generation() const noexcept { return generation_; }

 private:
  Simulation* sim_;
  std::size_t parties_;
  std::uint64_t generation_ = 0;
  detail::WaitList waiters_;
};

/// Runs tasks concurrently, one spawned process each (even for a single
/// task: running it inline would reorder same-instant events), and
/// completes when all finish. If any task fails, the failure of the lowest
/// index is rethrown after all complete.
Task<void> whenAll(Simulation& sim, std::vector<Task<void>> tasks);

namespace detail {

template <typename T>
Task<void> storeResult(Task<T> task, T* out) {
  *out = co_await std::move(task);
}

}  // namespace detail

/// As above, returning each task's result in task order; the lowest-index
/// failure is rethrown after all complete.
template <typename T>
  requires(!std::is_void_v<T>)
Task<std::vector<T>> whenAll(Simulation& sim, std::vector<Task<T>> tasks) {
  std::vector<T> results(tasks.size());
  std::vector<Task<void>> stores;
  stores.reserve(tasks.size());
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    stores.push_back(detail::storeResult(std::move(tasks[i]), &results[i]));
  }
  tasks.clear();
  co_await whenAll(sim, std::move(stores));
  co_return results;
}

}  // namespace daosim::sim
