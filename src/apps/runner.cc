#include "apps/runner.h"

#include <exception>

namespace daosim::apps {

RunResult runSpmd(sim::Simulation& sim, const std::vector<hw::NodeId>& nodes,
                  int procs_per_node, SpmdBenchmark& bench) {
  const int procs = static_cast<int>(nodes.size()) * procs_per_node;
  RunResult result;
  result.procs = procs;
  sim::Barrier barrier(sim, static_cast<std::size_t>(procs));

  std::vector<sim::ProcHandle> handles;
  handles.reserve(static_cast<std::size_t>(procs));
  for (int r = 0; r < procs; ++r) {
    ProcContext ctx;
    ctx.rank = r;
    ctx.nprocs = procs;
    ctx.node = nodes[static_cast<std::size_t>(r / procs_per_node)];
    ctx.sim = &sim;
    ctx.barrier = &barrier;
    ctx.result = &result;
    handles.push_back(sim.spawn(bench.process(ctx)));
  }
  sim.run();

  for (auto& h : handles) {
    if (h.failed()) std::rethrow_exception(h.error());
  }
  return result;
}

}  // namespace daosim::apps
