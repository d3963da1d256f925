// parallelMap: runs independent simulations side by side.
//
// A sim::Simulation is strictly single-threaded, but a sweep is many
// simulations — one per (sweep point × repetition), each self-contained and
// seed-deterministic. parallelMap(n, jobs, fn) calls fn(0) .. fn(n-1) on
// `jobs` threads, the calling thread among them, and returns the results in
// index order. With jobs == 1 the caller runs every index in order itself,
// so there is no separate serial path. A result depends only on its index,
// never on scheduling, so any `jobs` gives bitwise-identical results.
//
// Failure contract: threads claim indices in increasing order, and once a
// call has thrown no further index starts (calls already running finish).
// Every index below a failing one has therefore started, and the error of
// the lowest failing index is rethrown — the same error a serial run gives.
//
// This is the simulator's only parallelism: whole independent simulations
// run side by side, and each one runs on a single thread.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <optional>
#include <thread>
#include <type_traits>
#include <vector>

namespace daosim::sim {

template <typename Fn>
auto parallelMap(std::size_t n, int jobs, Fn&& fn)
    -> std::vector<std::invoke_result_t<Fn&, std::size_t>> {
  using R = std::invoke_result_t<Fn&, std::size_t>;
  std::vector<std::optional<R>> results(n);
  std::vector<std::exception_ptr> errors(n);
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  const auto work = [&] {
    while (!failed) {
      const std::size_t i = next++;
      if (i >= n) return;
      try {
        results[i].emplace(fn(i));
      } catch (...) {
        errors[i] = std::current_exception();
        failed = true;
      }
    }
  };
  {
    const std::size_t helpers =
        std::min(static_cast<std::size_t>(std::max(jobs, 1)) - 1,
                 n > 0 ? n - 1 : 0);
    std::vector<std::jthread> threads;  // joined at the end of this scope
    threads.reserve(helpers);
    for (std::size_t t = 0; t < helpers; ++t) threads.emplace_back(work);
    work();
  }
  for (const std::exception_ptr& e : errors) {
    if (e != nullptr) std::rethrow_exception(e);
  }
  std::vector<R> out;
  out.reserve(n);
  for (std::optional<R>& r : results) out.push_back(std::move(*r));
  return out;
}

}  // namespace daosim::sim
