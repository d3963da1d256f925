#include "apps/runner.h"

#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <mutex>
#include <string>

#include "obs/observer.h"

namespace daosim::apps {

namespace {

sim::Task<void> runProcess(SpmdBenchmark* bench, ProcContext ctx) {
  co_await bench->process(ctx);
}

bool endsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

std::string envFile(const char* name) {
  const char* v = std::getenv(name);
  return v == nullptr ? std::string() : std::string(v);
}

}  // namespace

RunResult runSpmd(sim::Simulation& sim, const std::vector<hw::NodeId>& nodes,
                  int procs_per_node, SpmdBenchmark& bench) {
  // DAOSIM_TRACE / DAOSIM_METRICS: attach an observer for this run if the
  // caller has not installed one, and export when the run completes. Each
  // runSpmd call overwrites the files, so a sweep leaves the last run's
  // trace — attach an observer around the point of interest for more. The
  // observer itself is local to this run (no state shared across runs);
  // under a parallel sweep (DAOSIM_JOBS > 1) file writes are serialized
  // below and "last" means last to complete, which is scheduling-dependent.
  const std::string trace_file = envFile("DAOSIM_TRACE");
  const std::string metrics_file = envFile("DAOSIM_METRICS");
  int exemplars = 0;  // DAOSIM_EXEMPLARS: K slowest ops per type
  if (const char* v = std::getenv("DAOSIM_EXEMPLARS")) {
    exemplars = std::atoi(v);
  }
  obs::Observer local;
  const bool attach =
      (!trace_file.empty() || !metrics_file.empty() || exemplars > 0) &&
      sim.observer() == nullptr;
  if (attach) {
    local.attach(sim);
    if (!trace_file.empty()) local.enableTracing();
    if (exemplars > 0) {
      local.enableExemplars(static_cast<std::size_t>(exemplars));
    }
  }

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
    handles.push_back(sim.spawn(runProcess(&bench, ctx)));
  }
  sim.run();

  if (attach) {
    static std::mutex export_mu;  // concurrent runs share the export files
    std::lock_guard<std::mutex> lock(export_mu);
    if (!trace_file.empty()) {
      std::ofstream f(trace_file);
      local.writeChromeTrace(f);
    }
    if (!metrics_file.empty()) {
      local.exportMetrics();
      std::ofstream f(metrics_file);
      if (endsWith(metrics_file, ".json")) {
        local.metrics().writeJson(f);
      } else {
        local.metrics().writeCsv(f);
      }
    }
    if (exemplars > 0) local.writeTailReport(std::cout);
    local.detach();
  }

  for (auto& h : handles) {
    if (h.failed()) std::rethrow_exception(h.error());
  }
  return result;
}

}  // namespace daosim::apps
