// RPC retry policy: per-attempt timeouts with capped exponential backoff.
//
// Kept in its own small header so daos::DaosConfig can embed a policy
// without pulling in the full cluster model. The policy is plain data; all
// jitter is drawn from the owning simulation's kernel PRNG (never the wall
// clock), so retry schedules are bit-reproducible serially and under
// --jobs N.
#pragma once

#include <stdexcept>
#include <string>

#include "sim/rng.h"
#include "sim/time.h"

namespace daosim::net {

struct RetryPolicy {
  /// Per-attempt timeout; 0 waits forever (pre-fault-injection behaviour).
  sim::Time timeout = 0;
  /// Resends after the first attempt; 0 disables retrying entirely.
  int max_retries = 0;
  /// Backoff before resend k is in [base*2^k / 2, base*2^k], capped.
  sim::Time backoff_base = 500 * sim::kMicrosecond;
  sim::Time backoff_cap = 50 * sim::kMillisecond;

  /// A disabled policy (the net::request / net::respond default) takes
  /// the fast path: Cluster::send's own task, no timer race, no RNG draw.
  bool enabled() const noexcept { return timeout != 0 || max_retries != 0; }

  /// The chaos default daosim_run --faults enables: rides through NIC
  /// flaps of up to ~50ms and queue stalls of a few ms.
  static RetryPolicy chaosDefault() noexcept {
    RetryPolicy p;
    p.timeout = 5 * sim::kMillisecond;
    p.max_retries = 8;
    return p;
  }
};

/// Typed error surfaced when the retry budget is exhausted: the caller
/// knows how many attempts were made and whether the last one timed out
/// (vs. failing fast on a downed link).
class RetryExhausted : public std::runtime_error {
 public:
  RetryExhausted(int attempts, bool timed_out)
      : std::runtime_error(
            "rpc failed after " + std::to_string(attempts) +
            (timed_out ? " attempts (last: timeout)"
                       : " attempts (last: network down)")),
        attempts_(attempts),
        timed_out_(timed_out) {}

  int attempts() const noexcept { return attempts_; }
  bool timedOut() const noexcept { return timed_out_; }

 private:
  int attempts_;
  bool timed_out_;
};

/// Backoff before resend `attempt` (0-based): capped exponential with
/// half-jitter from `rng` — deterministic for a given kernel RNG state,
/// and never synchronizing concurrent retriers into lockstep.
sim::Time backoffDelay(const RetryPolicy& p, int attempt, sim::Rng& rng);

}  // namespace daosim::net
