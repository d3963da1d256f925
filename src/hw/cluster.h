// Node and Cluster: the simulated machine room.
//
// A Node owns a full-duplex NIC (two queueing stations) and local NVMe
// devices. The Cluster owns all nodes and the fabric model and provides the
// point-to-point `send` primitive every protocol layer uses.
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "hw/device.h"
#include "hw/spec.h"
#include "obs/observer.h"
#include "sim/queue_station.h"
#include "sim/simulation.h"
#include "sim/task.h"

namespace daosim::hw {

using NodeId = int;

/// Thrown by Cluster::send when an endpoint's NIC is administratively down
/// (fault injection): the attempt is charged one fabric latency and then
/// fails. net::sendWithRetry treats this as a transient, retryable fault.
class NetworkDown : public std::runtime_error {
 public:
  explicit NetworkDown(const std::string& what)
      : std::runtime_error("network down: " + what) {}
};

class Node {
 public:
  Node(sim::Simulation& sim, NodeId id, const NodeSpec& spec)
      : id_(id),
        spec_(spec),
        tx_(sim, "node" + std::to_string(id) + ".tx", 1),
        rx_(sim, "node" + std::to_string(id) + ".rx", 1) {
    tx_.setTracePid(id);
    rx_.setTracePid(id);
    drives_.reserve(static_cast<std::size_t>(spec.nvme_count));
    for (int i = 0; i < spec.nvme_count; ++i) {
      drives_.push_back(std::make_unique<NvmeDevice>(
          sim, spec.nvme,
          "node" + std::to_string(id) + ".nvme" + std::to_string(i)));
      drives_.back()->setTracePid(id);
    }
  }

  NodeId id() const noexcept { return id_; }
  const NodeSpec& spec() const noexcept { return spec_; }

  sim::QueueStation& tx() noexcept { return tx_; }
  sim::QueueStation& rx() noexcept { return rx_; }

  std::size_t driveCount() const noexcept { return drives_.size(); }
  NvmeDevice& drive(std::size_t i) noexcept {
    assert(i < drives_.size());
    return *drives_[i];
  }
  const NvmeDevice& drive(std::size_t i) const noexcept {
    assert(i < drives_.size());
    return *drives_[i];
  }

 private:
  NodeId id_;
  NodeSpec spec_;
  sim::QueueStation tx_;
  sim::QueueStation rx_;
  std::vector<std::unique_ptr<NvmeDevice>> drives_;
};

class Cluster {
 public:
  explicit Cluster(sim::Simulation& sim, FabricSpec fabric = {})
      : sim_(&sim), fabric_(fabric) {}

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  NodeId addNode(const NodeSpec& spec) {
    const NodeId id = static_cast<NodeId>(nodes_.size());
    nodes_.push_back(std::make_unique<Node>(*sim_, id, spec));
    return id;
  }

  std::vector<NodeId> addNodes(const NodeSpec& spec, int count) {
    std::vector<NodeId> ids;
    ids.reserve(static_cast<std::size_t>(count));
    for (int i = 0; i < count; ++i) ids.push_back(addNode(spec));
    return ids;
  }

  sim::Simulation& sim() noexcept { return *sim_; }
  const FabricSpec& fabric() const noexcept { return fabric_; }
  std::size_t nodeCount() const noexcept { return nodes_.size(); }

  Node& node(NodeId id) noexcept {
    assert(id >= 0 && static_cast<std::size_t>(id) < nodes_.size());
    return *nodes_[static_cast<std::size_t>(id)];
  }

  /// Moves one message of `bytes` payload from `src` to `dst` and completes
  /// when it is fully received. The link is cut-through: the receive-side
  /// occupancy overlaps the transmit-side serialization, offset by the
  /// fabric latency, so a single stream achieves full NIC bandwidth while
  /// both endpoints still contend at their NICs. Same-node messages skip the
  /// NIC (loopback). A nonzero `op` records the whole transfer as one leg of
  /// category `cat` on the sender's "net" track, parent of the NIC tx/rx
  /// legs.
  sim::Task<void> send(NodeId src, NodeId dst, std::uint64_t bytes,
                       obs::OpId op = 0, obs::Cat cat = obs::Cat::kOther) {
    // A flapped NIC drops the message after one fabric latency (loopback
    // does not traverse the NIC). Messages already past this check when
    // the link goes down complete normally — they are on the wire.
    if (src != dst && (linkDown(src) || linkDown(dst))) {
      ++send_failures_;
      co_await sim_->delay(fabric_.latency);
      throw NetworkDown("node" + std::to_string(linkDown(src) ? src : dst));
    }
    messages_ += 1;
    bytes_sent_ += bytes;
    if (cat == obs::Cat::kNetRequest) ++rpc_requests_;
    if (cat == obs::Cat::kNetResponse) ++rpc_responses_;
    ++inflight_sends_;
    const sim::Time started = sim_->now();
    // Pre-open the "send" leg so the NIC tx/rx station legs can name it as
    // their causal parent; the leg itself is recorded in finishSend.
    obs::LegId send_leg = 0;
    obs::OpId ctx = op;
    if (op != 0) {
      if (obs::Observer* o = sim_->observer()) {
        send_leg = o->openLeg(op);
        if (send_leg != 0) ctx = obs::withParent(op, send_leg);
      }
    }
    if (src == dst) {
      co_await sim_->delay(2 * sim::kMicrosecond);  // loopback hop
      finishSend(src, op, cat, started, send_leg);
      co_return;
    }
    const std::uint64_t wire = bytes + fabric_.header_bytes;
    Node& s = node(src);
    Node& d = node(dst);
    s.tx().noteBytes(wire);
    d.rx().noteBytes(wire);
    const sim::Time tx_time =
        s.spec().nic.per_message + transferTime(wire, s.spec().nic.gibps);
    const sim::Time rx_time =
        d.spec().nic.per_message + transferTime(wire, d.spec().nic.gibps);
    auto receive = [](sim::Simulation& sm, sim::QueueStation& rx,
                      sim::Time lat, sim::Time ser, obs::OpId op,
                      obs::Cat cat) -> sim::Task<void> {
      co_await sm.delay(lat);
      co_await rx.exec(ser, op, cat);
    };
    auto delivery = sim_->spawn(
        receive(*sim_, d.rx(), fabric_.latency, rx_time, ctx, cat));
    co_await s.tx().exec(tx_time, ctx, cat);
    co_await delivery.join();
    finishSend(src, op, cat, started, send_leg);
  }

  std::uint64_t messages() const noexcept { return messages_; }
  std::uint64_t bytesSent() const noexcept { return bytes_sent_; }

  // --- telemetry feed (see obs/telemetry.h) ---------------------------
  /// Messages currently between send() entry and delivery.
  std::uint64_t inflightSends() const noexcept { return inflight_sends_; }
  /// Cumulative wall time of completed sends (per-leg latency: divide the
  /// per-bin delta by the message-rate delta).
  sim::Time totalSendTime() const noexcept { return send_ns_; }
  /// RPC legs by direction (net::request / net::respond pass the category).
  std::uint64_t rpcRequests() const noexcept { return rpc_requests_; }
  std::uint64_t rpcResponses() const noexcept { return rpc_responses_; }

  // --- fault injection (see sim/fault_plan.h, net/retry.h) ------------
  /// Administratively takes a node's NIC down/up (fault-plan flaps). The
  /// state vector is allocated lazily, so clusters that never flap pay
  /// one empty-vector check per send.
  void setLinkDown(NodeId id, bool down) {
    if (link_down_.size() < nodes_.size()) link_down_.resize(nodes_.size(), 0);
    link_down_[static_cast<std::size_t>(id)] = down ? 1 : 0;
  }
  bool linkDown(NodeId id) const noexcept {
    return static_cast<std::size_t>(id) < link_down_.size() &&
           link_down_[static_cast<std::size_t>(id)] != 0;
  }

  /// Retry accounting, incremented by net::sendWithRetry and sampled by
  /// telemetry (net/rpc_retry_per_s, net/rpc_timeout_per_s,
  /// net/send_fail_per_s).
  void noteRpcRetry() noexcept { ++rpc_retries_; }
  void noteRpcTimeout() noexcept { ++rpc_timeouts_; }
  std::uint64_t rpcRetries() const noexcept { return rpc_retries_; }
  std::uint64_t rpcTimeouts() const noexcept { return rpc_timeouts_; }
  /// Sends dropped on a downed link.
  std::uint64_t sendFailures() const noexcept { return send_failures_; }

 private:
  void finishSend(NodeId src, obs::OpId op, obs::Cat cat, sim::Time started,
                  obs::LegId leg) {
    --inflight_sends_;
    send_ns_ += sim_->now() - started;
    if (op == 0) return;
    if (obs::Observer* o = sim_->observer()) {
      o->leg(op, cat, o->track(src, "net"), "send", started, 0, leg);
    }
  }

  sim::Simulation* sim_;
  FabricSpec fabric_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::uint64_t messages_ = 0;
  std::uint64_t bytes_sent_ = 0;
  std::uint64_t inflight_sends_ = 0;
  sim::Time send_ns_ = 0;
  std::uint64_t rpc_requests_ = 0;
  std::uint64_t rpc_responses_ = 0;
  std::vector<std::uint8_t> link_down_;  // empty until the first flap
  std::uint64_t rpc_retries_ = 0;
  std::uint64_t rpc_timeouts_ = 0;
  std::uint64_t send_failures_ = 0;
};

}  // namespace daosim::hw
