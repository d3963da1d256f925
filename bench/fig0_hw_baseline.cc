// E0 — §III-A hardware baselines.
//
// Reproduces the paper's raw measurements on the simulated hardware:
//   * dd-style parallel writes/reads of 100 MiB blocks to all 16 NVMe
//     drives of one server node (paper: 3.86 GiB/s write, 7 GiB/s read);
//   * iperf-style streaming between two nodes (paper: 50 Gbps = 6.25 GiB/s
//     each direction).
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "hw/cluster.h"
#include "sim/simulation.h"
#include "sim/sync.h"

namespace {

using namespace daosim;
using hw::kMiB;
using sim::Task;

double ddAggregate(bool read_phase) {
  sim::Simulation sim;
  std::vector<std::unique_ptr<hw::NvmeDevice>> drives;
  for (int i = 0; i < 16; ++i) {
    drives.push_back(std::make_unique<hw::NvmeDevice>(
        sim, hw::NvmeSpec{}, "d" + std::to_string(i)));
  }
  const std::uint64_t block = 100 * kMiB;
  const int blocks = 1000;  // the paper's dd block count
  for (auto& d : drives) {
    sim.spawn([](hw::NvmeDevice& dev, int n, std::uint64_t b,
                 bool rd) -> Task<void> {
      for (int i = 0; i < n; ++i) {
        if (rd) {
          co_await dev.read(b);
        } else {
          co_await dev.write(b);
        }
      }
    }(*d, blocks, block, read_phase));
  }
  sim.run();
  return 16.0 * blocks * static_cast<double>(block) / (1ULL << 30) /
         sim::toSeconds(sim.now());
}

double iperfGibps() {
  sim::Simulation sim;
  hw::Cluster cluster(sim);
  auto a = cluster.addNode(hw::NodeSpec::client());
  auto b = cluster.addNode(hw::NodeSpec::client());
  const int msgs = 2000;
  const std::uint64_t sz = 8 * kMiB;
  sim.spawn([](hw::Cluster& c, hw::NodeId s, hw::NodeId d, int n,
               std::uint64_t sz) -> Task<void> {
    for (int i = 0; i < n; ++i) co_await c.send(s, d, sz);
  }(cluster, a, b, msgs, sz));
  sim.run();
  return static_cast<double>(msgs) * static_cast<double>(sz) / (1ULL << 30) /
         sim::toSeconds(sim.now());
}

}  // namespace

int main(int argc, char** argv) {
  bench::noArguments(argc, argv);
  std::cerr << "\n#### E0 / §III-A hardware baselines ####\n"
            << "dd 16-drive aggregate write: " << ddAggregate(false)
            << " GiB/s (paper: 3.86)\n"
            << "dd 16-drive aggregate read:  " << ddAggregate(true)
            << " GiB/s (paper: 7.0)\n"
            << "iperf point-to-point:        " << iperfGibps()
            << " GiB/s (paper: 6.25)\n";
  return 0;
}
