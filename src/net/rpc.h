// Minimal unary RPC model over hw::Cluster.
//
// An RPC is written inline at the call site as two legs around the server
// work:
//
//   co_await net::request(cluster, client, server, request_bytes);
//   <server-side work: engine coroutines charging CPU/device stations>
//   co_await net::respond(cluster, server, client, response_bytes);
//
// The response leg charges the bulk payload on the return path, as a real
// RDMA-read/bulk-put transport would.
//
// NOTE (coroutine discipline): we deliberately do NOT offer a
// callback-taking `call(work)` helper. GCC 12 miscompiles lambda-closure
// types passed by value as coroutine parameters (the synthesized move into
// the coroutine frame reads from a wrong member offset and the closure is
// destroyed twice — verified in this repo's history). Every coroutine in
// this codebase therefore takes only plain data parameters.
#pragma once

#include <cstdint>

#include "hw/cluster.h"
#include "net/retry.h"
#include "obs/observer.h"
#include "sim/task.h"

namespace daosim::net {

/// Typical request/metadata message sizes (bytes) shared by protocol layers.
inline constexpr std::uint64_t kSmallRequest = 384;
inline constexpr std::uint64_t kSmallResponse = 256;

// One send with `policy` semantics: a per-attempt timeout races the
// transfer (the losing transfer keeps charging the wire — the message is
// already in flight, only the caller's wait is bounded), failed/timed-out
// attempts are resent after a capped exponential backoff with half-jitter
// from the kernel PRNG, and an exhausted budget surfaces RetryExhausted.
// Only transient network faults (hw::NetworkDown, timeouts) are retried;
// anything else propagates immediately. With a disabled policy it returns
// `cluster->send(...)`'s own task — the zero-retry fast path the
// conformance suite pins byte-for-byte, which adds no coroutine frame.
sim::Task<void> sendWithRetry(hw::Cluster* cluster, hw::NodeId src,
                              hw::NodeId dst, std::uint64_t wire_bytes,
                              RetryPolicy policy, obs::OpId op, obs::Cat cat);

/// Request leg: client -> server carrying `payload_bytes` of request body on
/// top of the protocol header (`kSmallRequest`, added here — callers pass
/// only the payload, symmetric with `respond`). A nonzero `op` records the
/// transfer as a net-request leg of that op. `policy` (disabled by default)
/// bounds and resends the transfer, as in sendWithRetry.
inline sim::Task<void> request(hw::Cluster& cluster, hw::NodeId src,
                               hw::NodeId dst, std::uint64_t payload_bytes,
                               obs::OpId op = 0, RetryPolicy policy = {}) {
  return sendWithRetry(&cluster, src, dst, payload_bytes + kSmallRequest,
                       policy, op, obs::Cat::kNetRequest);
}

/// Response leg: server -> client carrying `payload_bytes` of response body
/// plus the status header.
inline sim::Task<void> respond(hw::Cluster& cluster, hw::NodeId src,
                               hw::NodeId dst, std::uint64_t payload_bytes,
                               obs::OpId op = 0, RetryPolicy policy = {}) {
  return sendWithRetry(&cluster, src, dst, payload_bytes + kSmallResponse,
                       policy, op, obs::Cat::kNetResponse);
}

}  // namespace daosim::net
