#include "apps/telemetry_probes.h"

#include <unordered_map>

#include "daos/engine.h"
#include "daos/pool_service.h"
#include "daos/system.h"
#include "hw/cluster.h"
#include "hw/device.h"
#include "lustre/lustre.h"
#include "rados/rados.h"
#include "sim/queue_station.h"
#include "vos/target_store.h"

namespace daosim::apps {

namespace {

using obs::Telemetry;
using Kind = obs::Telemetry::Kind;

/// busy_frac: cumulative busy seconds under kRate == per-bin utilization.
/// `servers` > 1 normalizes a pooled station to per-thread utilization.
void stationProbes(Telemetry& t, const std::string& prefix,
                   const sim::QueueStation& st, int servers = 1) {
  t.addProbe(prefix + "/busy_frac", Kind::kRate,
             [&st, servers] {
               return sim::toSeconds(st.busyTime()) / servers;
             });
  t.addProbe(prefix + "/queue_len", Kind::kGauge,
             [&st] { return static_cast<double>(st.queueLength()); });
}

void nicProbes(Telemetry& t, const std::string& prefix, hw::Node& node) {
  for (const char* dir : {"tx", "rx"}) {
    sim::QueueStation& st = dir[0] == 't' ? node.tx() : node.rx();
    const std::string p = prefix + "/nic/" + dir;
    t.addProbe(p + "/busy_frac", Kind::kRate,
               [&st] { return sim::toSeconds(st.busyTime()); });
    t.addProbe(p + "/bytes_per_s", Kind::kRate,
               [&st] { return static_cast<double>(st.bytes()); });
  }
}

void deviceProbes(Telemetry& t, const std::string& prefix,
                  const hw::NvmeDevice& dev) {
  t.addProbe(prefix + "/busy_frac", Kind::kRate,
             [&dev] { return sim::toSeconds(dev.busyTime()); });
  t.addProbe(prefix + "/queue_depth", Kind::kGauge,
             [&dev] { return static_cast<double>(dev.queueDepth()); });
  t.addProbe(prefix + "/bytes_per_s", Kind::kRate, [&dev] {
    return static_cast<double>(dev.bytesWritten() + dev.bytesRead());
  });
}

void vosProbes(Telemetry& t, const std::string& prefix,
               const vos::TargetStore& store) {
  t.addProbe(prefix + "/ops_per_s", Kind::kRate,
             [&store] { return static_cast<double>(store.recordOps()); });
}

void netProbes(Telemetry& t, hw::Cluster& cluster) {
  t.addProbe("net/inflight", Kind::kGauge, [&cluster] {
    return static_cast<double>(cluster.inflightSends());
  });
  t.addProbe("net/msgs_per_s", Kind::kRate, [&cluster] {
    return static_cast<double>(cluster.messages());
  });
  t.addProbe("net/bytes_per_s", Kind::kRate, [&cluster] {
    return static_cast<double>(cluster.bytesSent());
  });
  // Time-integral of in-flight messages: per-bin value is the mean number
  // of concurrent sends (Little's law), a direct read on per-leg latency
  // pressure.
  t.addProbe("net/inflight_avg", Kind::kRate, [&cluster] {
    return sim::toSeconds(cluster.totalSendTime());
  });
  t.addProbe("net/rpc_req_per_s", Kind::kRate, [&cluster] {
    return static_cast<double>(cluster.rpcRequests());
  });
  t.addProbe("net/rpc_resp_per_s", Kind::kRate, [&cluster] {
    return static_cast<double>(cluster.rpcResponses());
  });
  // Retry-policy health (flat zero unless a fault plan / retry policy is
  // active — see net::sendWithRetry, hw::Cluster::setLinkDown).
  t.addProbe("net/rpc_retry_per_s", Kind::kRate, [&cluster] {
    return static_cast<double>(cluster.rpcRetries());
  });
  t.addProbe("net/rpc_timeout_per_s", Kind::kRate, [&cluster] {
    return static_cast<double>(cluster.rpcTimeouts());
  });
  t.addProbe("net/send_fail_per_s", Kind::kRate, [&cluster] {
    return static_cast<double>(cluster.sendFailures());
  });
}

void clientNicProbes(Telemetry& t, hw::Cluster& cluster,
                     const std::vector<hw::NodeId>& clients) {
  for (std::size_t i = 0; i < clients.size(); ++i) {
    nicProbes(t, "client/" + std::to_string(i), cluster.node(clients[i]));
  }
}

}  // namespace

void registerProbes(obs::Telemetry& t, DaosTestbed& tb) {
  daos::DaosSystem& sys = tb.daos();
  for (int e = 0; e < sys.engineCount(); ++e) {
    daos::Engine& engine = sys.engine(e);
    const std::string sp = "server/" + std::to_string(e);
    nicProbes(t, sp, tb.cluster().node(engine.node()));
    for (int tg = 0; tg < engine.targetCount(); ++tg) {
      daos::Target& target = engine.target(tg);
      const std::string tp = sp + "/target/" + std::to_string(tg);
      deviceProbes(t, tp + "/nvme", target.device());
      stationProbes(t, tp + "/xs", target.xstream());
      vosProbes(t, tp + "/vos", target.store());
    }
  }
  {
    const sim::QueueStation& ps = sys.poolService().station();
    t.addProbe("server/ps/busy_frac", Kind::kRate,
               [&ps] { return sim::toSeconds(ps.busyTime()); });
  }
  // Pool health: degraded-read rate and fail/exclusion gauges (flat zero
  // on a healthy run; driven by apps::FaultInjector).
  t.addProbe("daos/degraded_read_per_s", Kind::kRate,
             [&sys] { return static_cast<double>(sys.degradedReads()); });
  t.addProbe("daos/targets_failed", Kind::kGauge,
             [&sys] { return static_cast<double>(sys.failedTargets()); });
  t.addProbe("daos/targets_excluded", Kind::kGauge,
             [&sys] { return static_cast<double>(sys.excludedTargets()); });
  clientNicProbes(t, tb.cluster(), tb.clients());
  std::unordered_map<hw::NodeId, std::size_t> client_index;
  for (std::size_t i = 0; i < tb.clients().size(); ++i) {
    client_index[tb.clients()[i]] = i;
  }
  for (const auto& [node, daemon] : tb.daemons()) {
    const auto it = client_index.find(node);
    if (it == client_index.end()) continue;
    const std::string dp = "client/" + std::to_string(it->second) + "/dfuse";
    stationProbes(t, dp, daemon->threads(), daemon->config().fuse_threads);
    posix::DfuseDaemon* d = daemon.get();
    t.addProbe(dp + "/cache_hit_frac", Kind::kGauge, [d] {
      const std::uint64_t lookups = d->cacheLookups();
      return lookups ? static_cast<double>(d->cacheHits()) /
                           static_cast<double>(lookups)
                     : 0.0;
    });
  }
  netProbes(t, tb.cluster());
}

void registerProbes(obs::Telemetry& t, LustreTestbed& tb) {
  lustre::LustreSystem& sys = tb.lustre();
  for (int i = 0; i < sys.ostCount(); ++i) {
    const std::string op = "ost/" + std::to_string(i);
    deviceProbes(t, op + "/nvme", *sys.ost(i).device);
    stationProbes(t, op + "/cpu", sys.ost(i).cpu);
    vosProbes(t, op + "/vos", sys.ost(i).store);
  }
  stationProbes(t, "mds", sys.mdsStation(), sys.config().mds_threads);
  clientNicProbes(t, tb.cluster(), tb.clients());
  netProbes(t, tb.cluster());
}

void registerProbes(obs::Telemetry& t, CephTestbed& tb) {
  rados::CephCluster& sys = tb.ceph();
  for (int i = 0; i < sys.osdCount(); ++i) {
    const std::string op = "osd/" + std::to_string(i);
    deviceProbes(t, op + "/nvme", *sys.osd(i).device);
    stationProbes(t, op + "/threads", sys.osd(i).op_threads,
                  sys.config().osd_op_threads);
    vosProbes(t, op + "/vos", sys.osd(i).store);
  }
  clientNicProbes(t, tb.cluster(), tb.clients());
  netProbes(t, tb.cluster());
}

}  // namespace daosim::apps
