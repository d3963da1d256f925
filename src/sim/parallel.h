// ParallelRunner: executes independent simulations across a worker pool.
//
// A sim::Simulation is strictly single-threaded, but a sweep is many
// simulations — one per (sweep point × repetition), each self-contained and
// seed-deterministic. ParallelRunner runs such jobs across std::thread
// workers. Determinism contract: a job's result depends only on its inputs
// (testbed options + seed), never on scheduling, so serial (jobs == 1) and
// parallel executions produce bitwise-identical results as long as callers
// aggregate in submission order — which submit()/map() make natural.
//
// Failure contract: the first job that throws poisons the pool — jobs that
// have not started yet are skipped and their futures carry JobCancelled
// instead (fail fast: a thousand-cell sweep stops within one job of the
// first failure rather than running to completion). Jobs already running
// finish normally. map() translates this for you, rethrowing the first real
// error in submission-index order; callers holding raw futures can fall
// back to firstError().
//
// This is the simulator's only parallelism: whole independent simulations
// run side by side, and each one runs on a single thread.
//
// DAOSIM_JOBS selects the sweep worker count (default: hardware
// concurrency; 1 restores fully serial, inline execution with no threads).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <type_traits>
#include <vector>

namespace daosim::sim {

/// DAOSIM_JOBS (sweep cells), clamped to >= 1; unset or 0 means hardware
/// concurrency.
int envJobs();

/// Carried by the futures of jobs skipped after an earlier job failed; the
/// originating error is ParallelRunner::firstError().
class JobCancelled : public std::runtime_error {
 public:
  JobCancelled()
      : std::runtime_error("job skipped: an earlier pool job failed") {}
};

class ParallelRunner {
 public:
  explicit ParallelRunner(int jobs = envJobs());

  /// Drains the queue and joins the workers.
  ~ParallelRunner();

  ParallelRunner(const ParallelRunner&) = delete;
  ParallelRunner& operator=(const ParallelRunner&) = delete;

  int jobs() const noexcept { return jobs_; }

  /// The first failure (in wall-clock order) any job reported; null while
  /// all jobs have succeeded. Stable once set.
  std::exception_ptr firstError() const {
    std::lock_guard<std::mutex> lock(err_mu_);
    return first_error_;
  }

  /// Enqueues `fn` and returns its future. With jobs() == 1 the job runs
  /// inline before returning (exactly the serial behavior, no threads).
  template <typename Fn>
  auto submit(Fn fn) -> std::future<std::invoke_result_t<Fn&>> {
    using R = std::invoke_result_t<Fn&>;
    auto task = std::make_shared<std::packaged_task<R()>>(
        [this, fn = std::move(fn)]() mutable -> R {
          if (failed_.load(std::memory_order_acquire)) throw JobCancelled();
          try {
            return fn();
          } catch (...) {
            noteFailure(std::current_exception());
            throw;
          }
        });
    std::future<R> future = task->get_future();
    enqueue([task] { (*task)(); });
    return future;
  }

  /// Runs fn(0) .. fn(n-1) across the pool and returns the results in index
  /// order (so aggregation order never depends on completion order). On
  /// failure, rethrows the first real (non-cancellation) error by index.
  template <typename Fn>
  auto map(std::size_t n, Fn&& fn)
      -> std::vector<std::invoke_result_t<Fn&, std::size_t>> {
    using R = std::invoke_result_t<Fn&, std::size_t>;
    std::vector<std::future<R>> futures;
    futures.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      futures.push_back(submit([&fn, i] { return fn(i); }));
    }
    std::vector<R> out;
    out.reserve(n);
    std::exception_ptr error;
    for (auto& f : futures) {
      try {
        out.push_back(f.get());
      } catch (const JobCancelled&) {
        // A skipped job: the real error lives in another future (or, if
        // that future is also being skipped over, in first_error_).
      } catch (...) {
        if (error == nullptr) error = std::current_exception();
      }
    }
    if (error == nullptr && out.size() != n) error = firstError();
    if (error != nullptr) std::rethrow_exception(error);
    if (out.size() != n) throw JobCancelled();  // defensive: never silently short
    return out;
  }

 private:
  void enqueue(std::function<void()> job);
  void workerLoop();
  void noteFailure(std::exception_ptr e);

  int jobs_;
  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::atomic<bool> failed_{false};
  mutable std::mutex err_mu_;
  std::exception_ptr first_error_;
};

}  // namespace daosim::sim
