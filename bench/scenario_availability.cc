// Fixed-seed availability scenario: the documented chaos walkthrough for
// the fault-injection subsystem (see DESIGN.md, "Fault model").
//
// Act 1 — chaos IOR: a replicated IOR run rides through a fixed fault
//   schedule (device slowdown, engine stall, NIC flap) under the chaos
//   retry policy. The run must complete with every fault applied and the
//   retry machinery visibly engaged.
//
// Act 2 — durability walkthrough: writes are paced over a target exclusion
//   chosen from the array's own layout, so the degraded read path and the
//   background rebuild both provably engage. Every acknowledged write must
//   read back bit-for-bit through the old (degraded) layout and through a
//   fresh open after rebuild.
//
// Prints a "health: OK" verdict and exits 0 only if every check holds —
// CI greps for the verdict line.
#include <cstdint>
#include <exception>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "apps/fault_injector.h"
#include "apps/ior.h"
#include "apps/runner.h"
#include "apps/testbed.h"
#include "daos/array.h"
#include "daos/client.h"
#include "daos/system.h"
#include "net/retry.h"
#include "sim/fault_plan.h"
#include "vos/payload.h"

namespace {

using namespace daosim;
using sim::FaultPlan;
using sim::FaultTopology;
using namespace sim::literals;

int g_failures = 0;

void check(bool ok, const std::string& what) {
  std::cout << (ok ? "  [ok] " : "  [FAIL] ") << what << "\n";
  if (!ok) ++g_failures;
}

// --- Act 1: chaos IOR ------------------------------------------------------

void chaosIor() {
  std::cout << "== act 1: replicated IOR under a fixed fault schedule ==\n";
  apps::DaosTestbed::Options opt;
  opt.server_nodes = 4;
  opt.client_nodes = 4;
  opt.seed = 42;
  opt.with_dfuse = false;
  opt.daos.rpc_retry = net::RetryPolicy::chaosDefault();
  apps::DaosTestbed tb(opt);

  const FaultTopology topo{
      .targets = 4 * opt.daos.targets_per_engine, .engines = 4, .nodes = 8};
  FaultPlan plan = FaultPlan::parse(
      "slow@40ms:t7,x8; stall@80ms:e1,10ms; flap@120ms:n5,15ms;"
      "slow@160ms:t7,x1",
      topo);
  apps::FaultInjector injector(tb, plan);
  injector.install();

  apps::IorConfig cfg;
  cfg.transfer = 256 * hw::kKiB;
  cfg.ops = 100;
  cfg.oclass = placement::ObjClass::RP_2GX;
  apps::Ior bench(tb.ioEnv(), "daos-array", cfg);
  apps::RunResult r = apps::runSpmd(tb.sim(), tb.clients(), 4, bench);
  injector.rethrowIfFailed();
  injector.writeSummary(std::cout);

  const std::uint64_t expected_bytes =
      std::uint64_t(16) * cfg.ops * cfg.transfer;
  check(r.write().bytes == expected_bytes, "all writes completed");
  check(r.read().bytes == expected_bytes, "all reads completed");
  check(injector.stats().events_applied == plan.size(),
        "every fault event applied");
  check(tb.cluster().rpcRetries() > 0, "retry machinery engaged");
  check(tb.cluster().sendFailures() > 0, "NIC flap produced failed sends");
}

// --- Act 2: durability walkthrough ----------------------------------------

constexpr std::uint64_t kRecord = 64 * hw::kKiB;
constexpr int kRecords = 16;

struct Act2State {
  daos::Client* client = nullptr;
  daos::Container cont;
  std::optional<daos::Array> array;
  std::vector<std::uint8_t> acked = std::vector<std::uint8_t>(kRecords, 0);
  int degraded_mismatches = 0;
  int rebuilt_mismatches = 0;
};

sim::Task<void> createArray(std::shared_ptr<Act2State> st) {
  st->array = co_await daos::Array::create(
      *st->client, st->cont, st->client->nextOid(placement::ObjClass::RP_2G1),
      {.cell_size = 1, .chunk_size = 1 << 20});
}

sim::Task<void> pacedWriter(std::shared_ptr<Act2State> st) {
  for (int i = 0; i < kRecords; ++i) {
    vos::Payload rec = vos::patternPayload(kRecord, std::uint64_t(i) + 1);
    bool ok = true;
    try {
      co_await st->array->write(std::uint64_t(i) * kRecord, rec);
    } catch (const std::exception&) {
      ok = false;
    }
    st->acked[std::size_t(i)] = ok ? 1 : 0;
    co_await st->client->sim().delay(4_ms);
  }
}

sim::Task<void> verifier(std::shared_ptr<Act2State> st) {
  // Old layout first: the victim replica is gone, so these reads take the
  // surviving-replica (degraded) path.
  for (int i = 0; i < kRecords; ++i) {
    if (st->acked[std::size_t(i)] == 0) continue;
    vos::Payload want = vos::patternPayload(kRecord, std::uint64_t(i) + 1);
    vos::Payload got =
        co_await st->array->read(std::uint64_t(i) * kRecord, kRecord);
    if (!(got == want)) ++st->degraded_mismatches;
  }
  // Fresh open computes the post-exclusion layout: rebuild must have
  // repopulated the spare replica.
  daos::Array reopened = co_await daos::Array::open(
      *st->client, st->cont, st->array->oid());
  for (int i = 0; i < kRecords; ++i) {
    if (st->acked[std::size_t(i)] == 0) continue;
    vos::Payload want = vos::patternPayload(kRecord, std::uint64_t(i) + 1);
    vos::Payload got =
        co_await reopened.read(std::uint64_t(i) * kRecord, kRecord);
    if (!(got == want)) ++st->rebuilt_mismatches;
  }
}

void durabilityWalkthrough() {
  std::cout << "\n== act 2: acked writes survive a target exclusion ==\n";
  apps::DaosTestbed::Options opt;
  opt.server_nodes = 3;
  opt.client_nodes = 1;
  opt.seed = 42;
  opt.daos.retain_data = true;
  opt.with_dfuse = false;
  opt.daos.rpc_retry = net::RetryPolicy::chaosDefault();
  apps::DaosTestbed tb(opt);

  daos::Client client(tb.daos(), tb.clients()[0], 7);
  auto st = std::make_shared<Act2State>();
  st->client = &client;
  st->cont = tb.container();
  auto ch = tb.sim().spawn(createArray(st));
  tb.sim().run();
  if (ch.failed()) std::rethrow_exception(ch.error());

  // Kill a replica the array actually uses, mid-write.
  const int victim =
      tb.daos().layout(st->array->oid()).target(/*group=*/0, /*member=*/0);
  FaultPlan plan;
  plan.add({.at = tb.sim().now() + 30_ms,
            .kind = sim::FaultKind::kTargetExclude,
            .subject = victim});
  std::cout << "  excluding target t" << victim
            << " (replica 0 of the array) at +30ms\n";
  apps::FaultInjector injector(tb, plan);
  injector.install();

  auto wh = tb.sim().spawn(pacedWriter(st));
  tb.sim().run();  // drains the writer, the exclusion and the rebuild
  if (wh.failed()) std::rethrow_exception(wh.error());
  injector.rethrowIfFailed();

  auto vh = tb.sim().spawn(verifier(st));
  tb.sim().run();
  if (vh.failed()) std::rethrow_exception(vh.error());
  injector.writeSummary(std::cout);

  int acked = 0;
  for (std::uint8_t a : st->acked) acked += a;
  const apps::FaultStats& stats = injector.stats();
  check(acked > 0, "some writes acknowledged (" + std::to_string(acked) +
                       "/" + std::to_string(kRecords) + ")");
  check(acked < kRecords || tb.daos().degradedReads() > 0,
        "exclusion landed mid-workload");
  check(st->degraded_mismatches == 0,
        "degraded reads return every acked byte");
  check(st->rebuilt_mismatches == 0,
        "post-rebuild reads return every acked byte");
  check(stats.rebuilds_completed == 1, "background rebuild completed");
  check(stats.records_unrecoverable == 0, "no unrecoverable records");
  check(tb.daos().degradedReads() > 0, "degraded read path engaged");
}

}  // namespace

int main() {
  try {
    chaosIor();
    durabilityWalkthrough();
  } catch (const std::exception& e) {
    std::cout << "unexpected exception: " << e.what() << "\n";
    ++g_failures;
  }
  std::cout << "\nhealth: " << (g_failures == 0 ? "OK" : "DEGRADED") << " ("
            << g_failures << " failed checks)\n";
  return g_failures == 0 ? 0 : 1;
}
