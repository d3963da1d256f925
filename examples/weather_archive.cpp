// Weather-field archive with data protection and failure recovery.
//
//   $ ./build/examples/weather_archive
//
// Models the paper's motivating workload (ECMWF numerical weather
// prediction): several writer processes archive forecast fields — each
// field a separate erasure-coded Array (EC 2+1), indexed in replicated
// Key-Values (RP_2). We then *fail a storage device* and show that every
// field is still retrieved bit-exact through degraded reads (XOR
// reconstruction for arrays, replica failover for the index) — the paper's
// contribution C3 in action.
#include <cstdio>
#include <string>
#include <vector>

#include "daos/array.h"
#include "daos/client.h"
#include "daos/kv.h"
#include "daos/rebuild.h"
#include "daos/system.h"
#include "hw/cluster.h"
#include "sim/simulation.h"
#include "sim/sync.h"

using namespace daosim;
using daos::Array;
using daos::Client;
using daos::Container;
using daos::KeyValue;
using placement::ObjClass;
using placement::ObjectId;
using sim::Task;
using vos::Payload;

namespace {

constexpr int kWriters = 4;
constexpr int kFieldsPerWriter = 6;
constexpr std::uint64_t kFieldBytes = 1 << 20;

Payload fieldData(int writer, int f) {
  return vos::patternPayload(
      kFieldBytes, sim::hashCombine(static_cast<std::uint64_t>(writer),
                                    static_cast<std::uint64_t>(f)));
}

std::string fieldKey(int writer, int f) {
  return "stream=oper,writer=" + std::to_string(writer) +
         ",step=" + std::to_string(f * 6) + ",param=t850";
}

ObjectId indexOid() {
  return placement::makeOid(ObjClass::RP_2G1, 0x1D,  0xfffffff0u);
}

Task<void> archive(Client client, Container cont, int writer,
                   std::vector<ObjectId>* oids) {
  KeyValue index(client, cont, indexOid());
  for (int f = 0; f < kFieldsPerWriter; ++f) {
    Array field = co_await Array::create(
        client, cont, client.nextOid(ObjClass::EC_2P1G1),
        {.cell_size = 1, .chunk_size = kFieldBytes});
    co_await field.write(0, fieldData(writer, f));
    co_await index.put(fieldKey(writer, f),
                       Payload::fromString("len=1048576"));
    oids->push_back(field.oid());
  }
}

Task<void> retrieveAll(Client& client, Container cont,
                       const std::vector<std::vector<ObjectId>>& oids,
                       int* verified) {
  KeyValue index(client, cont, indexOid());
  for (int w = 0; w < kWriters; ++w) {
    for (int f = 0; f < kFieldsPerWriter; ++f) {
      auto meta = co_await index.get(fieldKey(w, f));
      Array field = Array::openWithAttrs(
          client, cont, oids[static_cast<std::size_t>(w)][static_cast<std::size_t>(f)],
          {.cell_size = 1, .chunk_size = kFieldBytes});
      Payload data = co_await field.read(0, kFieldBytes);
      if (meta.has_value() && data == fieldData(w, f)) ++(*verified);
    }
  }
}

Task<void> run(daos::DaosSystem& system, std::vector<Client>& clients,
               bool& ok) {
  Client& admin = clients.front();
  co_await admin.poolConnect();
  Container cont = co_await admin.contCreate("weather");

  // Archive phase: four concurrent writers.
  std::vector<std::vector<ObjectId>> oids(kWriters);
  std::vector<sim::Task<void>> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.push_back(archive(clients[static_cast<std::size_t>(w)], cont, w,
                              &oids[static_cast<std::size_t>(w)]));
  }
  co_await sim::whenAll(admin.sim(), std::move(writers));
  std::printf("archived %d fields (%d writers x %d), stored %.1f MiB "
              "(1.5x EC overhead on %.1f MiB of data)\n",
              kWriters * kFieldsPerWriter, kWriters, kFieldsPerWriter,
              static_cast<double>(system.bytesStored()) / (1 << 20),
              kWriters * kFieldsPerWriter * 1.0);

  // Healthy retrieval.
  int verified = 0;
  co_await retrieveAll(admin, cont, oids, &verified);
  std::printf("healthy retrieve: %d/%d fields verified\n", verified,
              kWriters * kFieldsPerWriter);
  ok = verified == kWriters * kFieldsPerWriter;

  // Fail the device behind the first field's first data shard and retrieve
  // everything again: EC reconstruction + KV replica failover take over.
  const int victim = system.layout(oids[0][0]).target(0, 0);
  system.failTarget(victim);
  std::printf("injected failure on target %d\n", victim);
  verified = 0;
  co_await retrieveAll(admin, cont, oids, &verified);
  std::printf("degraded retrieve: %d/%d fields verified\n", verified,
              kWriters * kFieldsPerWriter);
  ok = ok && verified == kWriters * kFieldsPerWriter;

  // Now restore full redundancy: exclude the dead target from the pool map
  // and rebuild its shards onto spares from the surviving redundancy. The
  // device stays dead; subsequent reads use the normal path again.
  system.excludeTarget(victim);
  daos::RebuildStats stats = co_await daos::rebuild(system, victim);
  std::printf("rebuild: %llu objects scanned, %llu slots repaired, "
              "%.1f MiB moved in %.1f ms (simulated)\n",
              static_cast<unsigned long long>(stats.objects_scanned),
              static_cast<unsigned long long>(stats.slots_repaired),
              static_cast<double>(stats.bytes_moved) / (1 << 20),
              sim::toSeconds(stats.duration) * 1e3);
  verified = 0;
  co_await retrieveAll(admin, cont, oids, &verified);
  std::printf("post-rebuild retrieve: %d/%d fields verified\n", verified,
              kWriters * kFieldsPerWriter);
  ok = ok && verified == kWriters * kFieldsPerWriter;
}

}  // namespace

int main() {
  sim::Simulation sim;
  hw::Cluster cluster(sim);
  auto servers = cluster.addNodes(hw::NodeSpec::server(), 4);
  auto client_nodes = cluster.addNodes(hw::NodeSpec::client(), 2);
  daos::DaosSystem system(cluster, servers);

  std::vector<Client> clients;
  for (int i = 0; i < kWriters; ++i) {
    clients.emplace_back(system, client_nodes[static_cast<std::size_t>(i % 2)],
                         static_cast<std::uint32_t>(i + 1));
  }

  bool ok = false;
  auto proc = sim.spawn(run(system, clients, ok));
  sim.run();
  if (proc.failed() || !ok) {
    std::fprintf(stderr, "weather_archive FAILED\n");
    return 1;
  }
  std::printf("weather_archive OK\n");
  return 0;
}
