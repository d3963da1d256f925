// Lazy coroutine task type used by every simulated activity.
//
// Task<T> is a single-awaiter, lazily-started coroutine: creating one does
// not run any code; awaiting it transfers control into the child coroutine
// (symmetric transfer, so arbitrarily deep await chains use O(1) stack), and
// completion transfers control back to the awaiter. Exceptions propagate to
// the awaiter at `co_await`.
//
// Detached execution (simulated processes) is provided by
// Simulation::spawn(), see simulation.h.
#pragma once

#include <cassert>
#include <coroutine>
#include <exception>
#include <optional>
#include <type_traits>
#include <utility>

#include "sim/pool.h"

namespace daosim::sim {

template <typename T>
class Task;

namespace detail {

class TaskPromiseBase {
 public:
  // Coroutine frames are allocated through the per-thread FramePool, so a
  // task creation in steady state touches no global allocator. The sized
  // delete gets the frame's size back, which names its pool bucket.
  static void* operator new(std::size_t n) { return FramePool::allocate(n); }
  static void operator delete(void* p, std::size_t n) noexcept {
    FramePool::deallocate(p, n);
  }

  struct FinalAwaiter {
    bool await_ready() const noexcept { return false; }

    template <typename Promise>
    std::coroutine_handle<> await_suspend(
        std::coroutine_handle<Promise> h) noexcept {
      auto continuation = h.promise().continuation_;
      return continuation ? continuation : std::noop_coroutine();
    }

    void await_resume() const noexcept {}
  };

  std::suspend_always initial_suspend() noexcept { return {}; }
  FinalAwaiter final_suspend() noexcept { return {}; }

  void setContinuation(std::coroutine_handle<> c) noexcept {
    continuation_ = c;
  }

 private:
  std::coroutine_handle<> continuation_;
};

template <typename T>
class TaskPromise final : public TaskPromiseBase {
 public:
  Task<T> get_return_object() noexcept;

  void return_value(T value) noexcept(
      std::is_nothrow_move_constructible_v<T>) {
    value_.emplace(std::move(value));
  }

  void unhandled_exception() noexcept { error_ = std::current_exception(); }

  T takeResult() {
    if (error_) std::rethrow_exception(error_);
    assert(value_.has_value() && "task completed without a value");
    return std::move(*value_);
  }

 private:
  std::optional<T> value_;
  std::exception_ptr error_;
};

template <>
class TaskPromise<void> final : public TaskPromiseBase {
 public:
  Task<void> get_return_object() noexcept;

  void return_void() noexcept {}
  void unhandled_exception() noexcept { error_ = std::current_exception(); }

  void takeResult() {
    if (error_) std::rethrow_exception(error_);
  }

 private:
  std::exception_ptr error_;
};

}  // namespace detail

/// A lazily-started coroutine returning T. Move-only; owns the frame.
template <typename T = void>
class [[nodiscard]] Task {
 public:
  using promise_type = detail::TaskPromise<T>;
  using Handle = std::coroutine_handle<promise_type>;

  Task() noexcept = default;
  explicit Task(Handle h) noexcept : handle_(h) {}

  Task(Task&& other) noexcept : handle_(std::exchange(other.handle_, {})) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      destroy();
      handle_ = std::exchange(other.handle_, {});
    }
    return *this;
  }

  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;

  ~Task() { destroy(); }

  bool valid() const noexcept { return static_cast<bool>(handle_); }

  /// Awaiting starts the task and resumes the awaiter on completion.
  auto operator co_await() && noexcept {
    struct Awaiter {
      Handle handle;

      bool await_ready() const noexcept { return false; }

      std::coroutine_handle<> await_suspend(
          std::coroutine_handle<> awaiting) noexcept {
        handle.promise().setContinuation(awaiting);
        return handle;  // symmetric transfer into the child
      }

      T await_resume() { return handle.promise().takeResult(); }
    };
    assert(handle_ && "awaiting an empty task");
    return Awaiter{handle_};
  }

  /// Releases ownership of the coroutine frame (used by Simulation::spawn).
  Handle release() noexcept { return std::exchange(handle_, {}); }

 private:
  void destroy() noexcept {
    if (handle_) {
      handle_.destroy();
      handle_ = {};
    }
  }

  Handle handle_;
};

namespace detail {

template <typename T>
Task<T> TaskPromise<T>::get_return_object() noexcept {
  return Task<T>(std::coroutine_handle<TaskPromise<T>>::from_promise(*this));
}

inline Task<void> TaskPromise<void>::get_return_object() noexcept {
  return Task<void>(
      std::coroutine_handle<TaskPromise<void>>::from_promise(*this));
}

}  // namespace detail

}  // namespace daosim::sim
