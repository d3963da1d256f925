// Ablation — DFUSE client caching.
//
// The paper ran DFUSE with all caching disabled (§III-B); dfuse itself
// offers attr/dentry/data caches. This ablation quantifies what the knobs
// do for a re-read-heavy POSIX workload: each process writes a file once,
// then reads the same blocks repeatedly. With the data cache on, repeat
// reads are served from the client page cache without touching the servers.
// Its re-read benchmark is not an apps benchmark, so it deploys and observes
// its own testbed instead of going through apps::run.
#include "apps/runner.h"
#include "apps/testbed.h"
#include "bench_util.h"
#include "posix/dfuse.h"

namespace {

using namespace daosim;
using apps::DaosTestbed;
using apps::SweepPoint;

class RereadBench final : public apps::SpmdBenchmark {
 public:
  RereadBench(DaosTestbed& tb, std::uint64_t ops, int passes)
      : tb_(&tb), ops_(ops), passes_(passes) {}

  sim::Task<void> process(apps::ProcContext ctx) override {
    posix::DfuseVfs vfs(tb_->daemon(ctx.node));
    const std::string path = "/bench/reread." + std::to_string(ctx.rank);
    posix::Fd fd = co_await vfs.open(path, posix::OpenFlags::writeCreate());

    co_await ctx.barrier->arriveAndWait();
    for (std::uint64_t i = 0; i < ops_; ++i) {
      const sim::Time t0 = ctx.sim->now();
      co_await vfs.pwrite(fd, i << 20, vos::Payload::synthetic(1 << 20));
      ctx.record(apps::kWrite, 1 << 20, t0);
    }
    co_await ctx.barrier->arriveAndWait();
    for (int pass = 0; pass < passes_; ++pass) {
      for (std::uint64_t i = 0; i < ops_; ++i) {
        const sim::Time t0 = ctx.sim->now();
        (void)co_await vfs.pread(fd, i << 20, 1 << 20);
        ctx.record(apps::kRead, 1 << 20, t0);
      }
    }
    co_await vfs.close(fd);
  }

 private:
  DaosTestbed* tb_;
  std::uint64_t ops_;
  int passes_;
};

apps::RunResult runPoint(bool caches, SweepPoint pt, std::uint64_t seed,
                         const apps::RunSlot& slot) {
  DaosTestbed::Options opt;
  opt.server_nodes = 16;
  opt.client_nodes = pt.client_nodes;
  opt.seed = seed;
  opt.dfuse.attr_cache = caches;
  opt.dfuse.dentry_cache = caches;
  opt.dfuse.data_cache = caches;
  DaosTestbed tb(opt);
  apps::ObservedRun observed(slot, tb);

  RereadBench bench(tb,
                    apps::scaledOps(pt.totalProcs(), apps::envOps(200), 8000),
                    /*passes=*/3);
  return apps::runSpmd(tb.sim(), tb.clientSubset(pt.client_nodes),
                       pt.procs_per_node, bench);
}

}  // namespace

int main(int argc, char** argv) {
  const auto grid = apps::crossGrid({4, 16}, {8});
  for (const bool caches : {false, true}) {
    bench::registerSweep(
        caches ? "dfuse-all-caches" : "dfuse-no-cache(paper)", grid,
        [caches](SweepPoint pt, std::uint64_t seed,
                 const apps::RunSlot& slot) {
          return runPoint(caches, pt, seed, slot);
        });
  }
  return bench::benchMain(
      argc, argv, "Ablation: DFUSE caching on a re-read workload (3 passes)");
}
