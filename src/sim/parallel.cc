#include "sim/parallel.h"

#include <cstdlib>

namespace daosim::sim {

int envJobs() {
  int jobs = 0;
  if (const char* v = std::getenv("DAOSIM_JOBS")) {
    jobs = std::atoi(v);
  }
  if (jobs <= 0) {
    jobs = static_cast<int>(std::thread::hardware_concurrency());
  }
  return jobs > 0 ? jobs : 1;
}

ParallelRunner::ParallelRunner(int jobs) : jobs_(jobs > 0 ? jobs : 1) {
  if (jobs_ > 1) {
    workers_.reserve(static_cast<std::size_t>(jobs_));
    for (int i = 0; i < jobs_; ++i) {
      workers_.emplace_back([this] { workerLoop(); });
    }
  }
}

ParallelRunner::~ParallelRunner() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ParallelRunner::noteFailure(std::exception_ptr e) {
  std::lock_guard<std::mutex> lock(err_mu_);
  if (first_error_ == nullptr) first_error_ = std::move(e);
  failed_.store(true, std::memory_order_release);
}

void ParallelRunner::enqueue(std::function<void()> job) {
  if (jobs_ <= 1) {
    job();  // serial mode: run inline, deterministically, on this thread
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(job));
  }
  cv_.notify_one();
}

void ParallelRunner::workerLoop() {
  for (;;) {
    std::function<void()> job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and nothing left to drain
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    job();  // packaged_task captures any exception into its future
  }
}

}  // namespace daosim::sim
