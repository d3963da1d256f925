// Hardware specifications, calibrated to the paper's test system (§II-B,
// §III-A):
//   * server VMs: n2-custom-36-153600 — 16 local NVMe SSDs per node with
//     3.86 GiB/s aggregate write and 7.0 GiB/s aggregate read bandwidth,
//     50 Gbps (6.25 GiB/s) NIC;
//   * client VMs: n2-highcpu-32 — 32 logical cores, 50 Gbps NIC.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/time.h"

namespace daosim::hw {

inline constexpr std::uint64_t kKiB = 1024;
inline constexpr std::uint64_t kMiB = 1024 * kKiB;
inline constexpr std::uint64_t kGiB = 1024 * kMiB;

/// Time to move `bytes` at `gibps` GiB/s.
constexpr sim::Time transferTime(std::uint64_t bytes, double gibps) noexcept {
  if (gibps <= 0.0) return 0;
  const double seconds =
      static_cast<double>(bytes) / (gibps * static_cast<double>(kGiB));
  return static_cast<sim::Time>(seconds * 1e9 + 0.5);
}

/// One local NVMe SSD. Defaults: 1/16 of the measured per-node aggregate
/// (3.86 GiB/s write, 7.0 GiB/s read over 16 devices). See hw/device.h for
/// the rate-limiter semantics of these fields.
struct NvmeSpec {
  double write_gibps = 3.86 / 16.0;   // sustained write rate
  double read_gibps = 7.0 / 16.0;     // sustained read rate
  sim::Time write_latency = 20 * sim::kMicrosecond;  // access latency
  sim::Time read_latency = 15 * sim::kMicrosecond;
  /// Controller/cache burst rate for individual-op completion.
  double burst_gibps = 2.0;
  /// Per-op service floor on the sustained clock (small-I/O IOPS caps:
  /// 100k write / 125k read IOPS).
  sim::Time write_op_service = 10 * sim::kMicrosecond;
  sim::Time read_op_service = 8 * sim::kMicrosecond;
  /// Backlog the device absorbs (cache/queue depth) before stalling
  /// submitters; sustained throughput is exact beyond this window.
  sim::Time backlog_window = 30 * sim::kMillisecond;
  std::uint64_t capacity_bytes = 384 * kGiB;  // 6 TiB over 16 devices
};

/// One network adaptor direction pair. 50 Gbps = 6.25 GiB/s full duplex.
struct NicSpec {
  double gibps = 6.25;
  /// Per-message processing cost charged on each NIC direction, modelling
  /// per-RPC packetization/interrupt work.
  sim::Time per_message = 1 * sim::kMicrosecond + 500;
};

struct NodeSpec {
  NicSpec nic;
  int nvme_count = 0;  // clients have no local NVMe
  NvmeSpec nvme;

  static NodeSpec server(int drives = 16) {
    NodeSpec s;
    s.nvme_count = drives;
    return s;
  }
  static NodeSpec client() { return NodeSpec{}; }
};

struct FabricSpec {
  /// One-way propagation + switching latency between any two nodes. The GCP
  /// fabric is modelled as full-bisection (no core contention); endpoints
  /// contend only at their NICs.
  sim::Time latency = 8 * sim::kMicrosecond;
  /// Wire/protocol overhead added to every message.
  std::uint64_t header_bytes = 512;
};

}  // namespace daosim::hw
