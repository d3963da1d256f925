#include "daos/rebuild.h"

#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "net/rpc.h"
#include "vos/target_store.h"

namespace daosim::daos {

namespace {

/// A record captured from a source target for migration.
struct RecordCopy {
  std::string dkey;
  std::string akey;
  std::optional<Payload> value;                          // single-value
  std::vector<std::pair<std::uint64_t, Payload>> extents;  // extent tree

  std::uint64_t bytes() const {
    std::uint64_t n = value ? value->size() : 0;
    for (const auto& [_, p] : extents) n += p.size();
    return n;
  }
};

std::vector<RecordCopy> captureRecords(vos::TargetStore& store, ContId cont,
                                       const ObjectId& oid) {
  std::vector<RecordCopy> out;
  store.forEachRecord(cont, oid, [&](vos::TargetStore::RecordView v) {
    out.push_back({std::string(v.dkey), std::string(v.akey),
                   v.value != nullptr ? std::optional(*v.value) : std::nullopt,
                   std::move(v.extents)});
  });
  return out;
}

/// Charges a read of `bytes` on the source target and the transfer to the
/// destination node.
sim::Task<void> chargeMove(DaosSystem& sys, int src, int dst,
                           std::uint64_t bytes) {
  auto [src_engine, src_local] = sys.locateTarget(src);
  auto [dst_engine, dst_local] = sys.locateTarget(dst);
  const auto& cost = sys.config().engine;
  co_await src_engine->target(src_local).xstream().exec(cost.rpc_cpu);
  co_await src_engine->target(src_local).device().read(bytes);
  co_await sys.cluster().send(src_engine->node(), dst_engine->node(),
                              bytes + net::kSmallRequest);
  co_await dst_engine->target(dst_local).xstream().exec(cost.rpc_cpu);
}

/// Installs a captured record on the destination target (charging the
/// device writes).
sim::Task<void> installRecord(DaosSystem& sys, int dst, ContId cont,
                              ObjectId oid, RecordCopy rc,
                              RebuildStats* stats) {
  auto [engine, local] = sys.locateTarget(dst);
  Target& t = engine->target(local);
  if (rc.value) {
    co_await t.device().write(
        std::max<std::uint64_t>(sys.config().engine.wal_bytes,
                                rc.value->size()));
    t.store().valuePut(cont, oid, rc.dkey, rc.akey, *rc.value);
    stats->bytes_moved += rc.value->size();
  }
  for (auto& [off, p] : rc.extents) {
    co_await t.device().write(p.size());
    stats->bytes_moved += p.size();
    t.store().extentWrite(cont, oid, rc.dkey, rc.akey, off, std::move(p));
  }
  stats->records_restored += 1;
}

/// Replication repair: copy every record of the object's shard from a
/// surviving replica to the spare.
sim::Task<void> repairReplicatedSlot(DaosSystem& sys, ContId cont,
                                     ObjectId oid, int source, int dst,
                                     RebuildStats* stats) {
  auto [engine, local] = sys.locateTarget(source);
  std::vector<RecordCopy> records =
      captureRecords(engine->target(local).store(), cont, oid);
  for (auto& rc : records) {
    const std::uint64_t bytes = rc.bytes();
    co_await chargeMove(sys, source, dst, bytes);
    co_await installRecord(sys, dst, cont, oid, std::move(rc), stats);
  }
}

/// Erasure-code repair: regenerate member `m`'s cells for every chunk from
/// the surviving cells and the XOR parity.
sim::Task<void> repairEcSlot(DaosSystem& sys, ContId cont, ObjectId oid,
                             const placement::Layout& old_layout, int group,
                             int m, int victim, int dst,
                             RebuildStats* stats) {
  const auto& spec = old_layout.spec;
  const int k = spec.ec_data;

  // Chunk dkeys from the first surviving data member.
  int witness = -1;
  for (int m2 = 0; m2 < k; ++m2) {
    if (old_layout.target(group, m2) != victim) {
      witness = old_layout.target(group, m2);
      break;
    }
  }
  if (witness < 0) co_return;  // cannot happen with a single failure
  auto [wit_engine, wit_local] = sys.locateTarget(witness);
  auto [dst_engine, dst_local] = sys.locateTarget(dst);
  Target& dst_target = dst_engine->target(dst_local);

  const std::vector<std::string> dkeys =
      wit_engine->target(wit_local).store().listDkeys(cont, oid);

  // Single-value records (array attributes etc.) are replicated across the
  // group, so the spare gets a copy from the witness.
  {
    std::vector<RecordCopy> records =
        captureRecords(wit_engine->target(wit_local).store(), cont, oid);
    for (auto& rc : records) {
      if (!rc.value) continue;
      const std::uint64_t bytes = rc.bytes();
      co_await chargeMove(sys, witness, dst, bytes);
      co_await installRecord(sys, dst, cont, oid, std::move(rc), stats);
    }
  }

  for (const std::string& dkey : dkeys) {
    if (dkey.size() != 8) continue;  // chunk dkeys only
    // Gather surviving data cells and the XOR parity for this chunk.
    std::vector<Payload> parts;
    std::uint64_t cell_len = 0;
    bool regular = true;
    for (int m2 = 0; m2 < k && regular; ++m2) {
      if (m2 == m) continue;
      const int src = old_layout.target(group, m2);
      auto [e, l] = sys.locateTarget(src);
      // A regular cell is the member's (dkey, "0") record with one extent.
      const auto cell = e->target(l).store().extents(cont, oid, dkey, "0");
      if (cell.size() != 1) {
        regular = false;
        break;
      }
      const Payload& p = cell.front().second;
      if (cell_len == 0) cell_len = p.size();
      if (p.size() != cell_len) regular = false;
      parts.push_back(p);
      co_await chargeMove(sys, src, dst, p.size());
    }
    if (m != k) {  // data cell or secondary parity: need parity0 too
      const int psrc = old_layout.target(group, k);
      if (psrc != victim) {
        auto [e, l] = sys.locateTarget(psrc);
        auto r = e->target(l).store().extentRead(cont, oid, dkey, "p", 0,
                                                 cell_len);
        if (r.bytes_found != cell_len) regular = false;
        parts.push_back(r.data);
        co_await chargeMove(sys, psrc, dst, cell_len);
      }
    }
    if (!regular || cell_len == 0) {
      stats->records_unrecoverable += 1;
      continue;
    }
    // Reconstruction CPU on the destination, then the write.
    co_await sys.cluster().sim().delay(sys.config().engine.ec_reconstruct_cpu);
    co_await dst_target.device().write(cell_len);
    stats->bytes_moved += cell_len;
    if (m < k) {
      Payload rebuilt = vos::xorPayloads(parts, cell_len);
      dst_target.store().extentWrite(
          cont, oid, dkey, "0",
          static_cast<std::uint64_t>(m) * cell_len, std::move(rebuilt));
    } else if (m == k) {
      // First parity cell: recompute the XOR of the data cells.
      Payload parity = vos::xorPayloads(parts, cell_len);
      dst_target.store().extentWrite(cont, oid, dkey, "p", 0,
                                     std::move(parity));
    } else {
      dst_target.store().extentWrite(cont, oid, dkey, "p", 0,
                                     Payload::synthetic(cell_len));
    }
    stats->records_restored += 1;
  }
}

}  // namespace

sim::Task<RebuildStats> rebuild(DaosSystem& sys, int victim) {
  RebuildStats stats;
  sim::Simulation& sim = sys.cluster().sim();
  const sim::Time t0 = sim.now();

  // The pool map as it was before the exclusion.
  std::vector<std::uint8_t> old_alive = sys.aliveMap();
  old_alive[static_cast<std::size_t>(victim)] = 1;

  // Global object census (surviving shards only; the victim is not read).
  std::set<std::pair<ContId, ObjectId>> objects;
  for (int e = 0; e < sys.engineCount(); ++e) {
    Engine& engine = sys.engine(e);
    for (int t = 0; t < engine.targetCount(); ++t) {
      const int global = e * sys.config().targets_per_engine + t;
      if (global == victim) continue;
      for (auto& co : engine.target(t).store().listObjects()) {
        objects.insert(co);
      }
    }
  }

  for (const auto& [cont, oid] : objects) {
    stats.objects_scanned += 1;
    const placement::Layout old_layout = sys.layoutUnder(oid, old_alive);
    const placement::Layout new_layout = sys.layout(oid);
    const auto& spec = old_layout.spec;

    for (std::size_t j = 0; j < old_layout.targets.size(); ++j) {
      const int src = old_layout.targets[j];
      const int dst = new_layout.targets[j];
      if (src == dst) continue;  // surviving slots never move
      const int group = static_cast<int>(j) / old_layout.group_size;
      const int m = static_cast<int>(j) % old_layout.group_size;

      if (spec.erasureCoded()) {
        co_await repairEcSlot(sys, cont, oid, old_layout, group, m, victim,
                              dst, &stats);
        stats.slots_repaired += 1;
      } else if (spec.replicated()) {
        int source = -1;
        for (int m2 = 0; m2 < old_layout.group_size; ++m2) {
          const int t = old_layout.target(group, m2);
          if (t != victim) {
            source = t;
            break;
          }
        }
        if (source >= 0) {
          co_await repairReplicatedSlot(sys, cont, oid, source, dst, &stats);
          stats.slots_repaired += 1;
        }
      } else {
        stats.objects_lost += 1;  // no redundancy: the shard is gone
      }
    }
  }

  stats.duration = sim.now() - t0;
  co_return stats;
}

}  // namespace daosim::daos
