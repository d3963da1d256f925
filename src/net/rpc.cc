#include "net/rpc.h"

#include <exception>
#include <memory>

#include "sim/simulation.h"
#include "sim/sync.h"

namespace daosim::net {

namespace {

/// Shared state of one attempt/timeout race. Heap-held via shared_ptr so
/// the losing leg (a transfer still in flight, or the pending timer) can
/// outlive the retry loop's iteration safely. A shared_ptr is a plain data
/// coroutine parameter, so this stays within the GCC-12 closure-parameter
/// rule (see rpc.h).
struct AttemptState {
  explicit AttemptState(sim::Simulation& s) : done(s) {}
  sim::Event done;
  bool completed = false;  // the transfer finished (ok or error)
  std::exception_ptr error;
};

sim::Task<void> attemptLeg(std::shared_ptr<AttemptState> st,
                           hw::Cluster* cluster, hw::NodeId src,
                           hw::NodeId dst, std::uint64_t bytes, obs::OpId op,
                           obs::Cat cat) {
  std::exception_ptr err;  // co_await is not allowed inside a handler
  try {
    co_await cluster->send(src, dst, bytes, op, cat);
  } catch (...) {
    err = std::current_exception();
  }
  st->error = err;
  st->completed = true;
  st->done.set();
}

sim::Task<void> attemptTimer(std::shared_ptr<AttemptState> st,
                             sim::Simulation* sim, sim::Time d) {
  co_await sim->delay(d);
  st->done.set();
}

/// Only transient network faults are worth resending.
bool retryable(const std::exception_ptr& err) {
  try {
    std::rethrow_exception(err);
  } catch (const hw::NetworkDown&) {
    return true;
  } catch (...) {
    return false;
  }
}

}  // namespace

sim::Time backoffDelay(const RetryPolicy& p, int attempt, sim::Rng& rng) {
  sim::Time b = p.backoff_base;
  for (int i = 0; i < attempt && b < p.backoff_cap; ++i) b *= 2;
  if (b > p.backoff_cap) b = p.backoff_cap;
  if (b < 2) return b;
  return b / 2 + rng.uniform(0, b / 2);
}

namespace {

sim::Task<void> retryLoop(hw::Cluster* cluster, hw::NodeId src,
                          hw::NodeId dst, std::uint64_t wire_bytes,
                          RetryPolicy policy, obs::OpId op, obs::Cat cat) {
  sim::Simulation& sim = cluster->sim();
  for (int attempt = 0;; ++attempt) {
    bool timed_out = false;
    std::exception_ptr error;
    if (policy.timeout == 0) {
      try {
        co_await cluster->send(src, dst, wire_bytes, op, cat);
      } catch (...) {
        error = std::current_exception();
      }
    } else {
      auto st = std::make_shared<AttemptState>(sim);
      sim.spawn(attemptLeg(st, cluster, src, dst, wire_bytes, op, cat));
      sim.spawn(attemptTimer(st, &sim, policy.timeout));
      co_await st->done.wait();
      timed_out = !st->completed;
      error = st->error;
    }
    if (!timed_out && !error) co_return;
    if (timed_out) cluster->noteRpcTimeout();
    if (error && !retryable(error)) std::rethrow_exception(error);
    if (attempt >= policy.max_retries) {
      throw RetryExhausted(attempt + 1, timed_out);
    }
    cluster->noteRpcRetry();
    const sim::Time pause = backoffDelay(policy, attempt, sim.rng());
    if (pause > 0) co_await sim.delay(pause);
  }
}

}  // namespace

sim::Task<void> sendWithRetry(hw::Cluster* cluster, hw::NodeId src,
                              hw::NodeId dst, std::uint64_t wire_bytes,
                              RetryPolicy policy, obs::OpId op,
                              obs::Cat cat) {
  // Zero-retry fast path: the send's own task, with no frame of ours, no
  // timer and no RNG draw.
  if (!policy.enabled()) return cluster->send(src, dst, wire_bytes, op, cat);
  return retryLoop(cluster, src, dst, wire_bytes, policy, op, cat);
}

}  // namespace daosim::net
