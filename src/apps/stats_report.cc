#include "apps/stats_report.h"

#include <algorithm>
#include <iomanip>

namespace daosim::apps {

namespace {

struct Agg {
  double busy_total = 0;  // seconds
  double busy_max = 0;
  int count = 0;

  void add(sim::Time busy) {
    const double s = sim::toSeconds(busy);
    busy_total += s;
    busy_max = std::max(busy_max, s);
    ++count;
  }
};

void printRow(std::ostream& os, const char* name, const Agg& a,
              double horizon_s) {
  if (a.count == 0 || horizon_s <= 0) return;
  os << "  " << std::left << std::setw(22) << name << std::right
     << std::fixed << std::setprecision(1) << std::setw(6)
     << 100.0 * a.busy_total / a.count / horizon_s << "% avg  "
     << std::setw(6) << 100.0 * a.busy_max / horizon_s << "% max  ("
     << a.count << " units)\n";
  os.unsetf(std::ios::fixed);
}

/// Queue-wait percentiles for a station class; the histograms are only
/// populated while an observer is attached (--stats attaches one).
void printWaitRow(std::ostream& os, const char* name,
                  const obs::Histogram& hist) {
  if (hist.count() == 0) return;
  os << "  " << std::left << std::setw(22) << name << std::right
     << std::fixed << std::setprecision(1) << "wait p50 "
     << static_cast<double>(hist.percentile(50)) / 1e3 << " us  p95 "
     << static_cast<double>(hist.percentile(95)) / 1e3 << " us  p99 "
     << static_cast<double>(hist.percentile(99)) / 1e3 << " us\n";
  os.unsetf(std::ios::fixed);
}

void printClientNics(std::ostream& os, hw::Cluster& cluster,
                     const std::vector<hw::NodeId>& clients,
                     double horizon_s) {
  Agg tx, rx;
  for (hw::NodeId n : clients) {
    tx.add(cluster.node(n).tx().busyTime());
    rx.add(cluster.node(n).rx().busyTime());
  }
  printRow(os, "client NIC tx", tx, horizon_s);
  printRow(os, "client NIC rx", rx, horizon_s);
}

}  // namespace

void reportUtilization(std::ostream& os, DaosTestbed& tb,
                       sim::Time horizon) {
  const double h = sim::toSeconds(horizon);
  os << "-- utilization over " << std::fixed << std::setprecision(3) << h
     << " s (DAOS) --\n";
  os.unsetf(std::ios::fixed);
  Agg dev, xs, srv_tx, srv_rx;
  obs::Histogram xs_wait;
  daos::DaosSystem& sys = tb.daos();
  for (int e = 0; e < sys.engineCount(); ++e) {
    daos::Engine& engine = sys.engine(e);
    srv_tx.add(tb.cluster().node(engine.node()).tx().busyTime());
    srv_rx.add(tb.cluster().node(engine.node()).rx().busyTime());
    for (int t = 0; t < engine.targetCount(); ++t) {
      dev.add(engine.target(t).device().busyTime());
      xs.add(engine.target(t).xstream().busyTime());
      xs_wait.merge(engine.target(t).xstream().waitHistogram());
    }
  }
  printRow(os, "NVMe device", dev, h);
  printRow(os, "target xstream", xs, h);
  printWaitRow(os, "xstream queue wait", xs_wait);
  printRow(os, "server NIC tx", srv_tx, h);
  printRow(os, "server NIC rx", srv_rx, h);
  Agg leader;
  leader.add(sys.poolService().station().busyTime());
  printRow(os, "pool-service leader", leader, h);
  if (!tb.daemons().empty()) {
    // Meaningful now that enter/leave accounts held time as busy.
    Agg dfuse;
    int threads = 1;
    for (const auto& kv : tb.daemons()) {
      dfuse.add(kv.second->threads().busyTime());
      threads = kv.second->config().fuse_threads;
    }
    dfuse.busy_total /= threads;
    dfuse.busy_max /= threads;
    printRow(os, "DFUSE (per thread)", dfuse, h);
  }
  printClientNics(os, tb.cluster(), tb.clients(), h);
}

void reportUtilization(std::ostream& os, LustreTestbed& tb,
                       sim::Time horizon) {
  const double h = sim::toSeconds(horizon);
  os << "-- utilization over " << std::fixed << std::setprecision(3) << h
     << " s (Lustre) --\n";
  os.unsetf(std::ios::fixed);
  lustre::LustreSystem& sys = tb.lustre();
  Agg dev, cpu;
  for (int i = 0; i < sys.ostCount(); ++i) {
    dev.add(sys.ost(i).device->busyTime());
    cpu.add(sys.ost(i).cpu.busyTime());
  }
  printRow(os, "OST device", dev, h);
  printRow(os, "OST cpu", cpu, h);
  Agg mds;
  mds.add(sys.mdsStation().busyTime());
  // The MDS station has config().mds_threads servers; report per-server.
  mds.busy_total /= sys.config().mds_threads;
  mds.busy_max /= sys.config().mds_threads;
  printRow(os, "MDS (per thread)", mds, h);
  printWaitRow(os, "MDS queue wait", sys.mdsStation().waitHistogram());
  printClientNics(os, tb.cluster(), tb.clients(), h);
}

void reportUtilization(std::ostream& os, CephTestbed& tb,
                       sim::Time horizon) {
  const double h = sim::toSeconds(horizon);
  os << "-- utilization over " << std::fixed << std::setprecision(3) << h
     << " s (Ceph) --\n";
  os.unsetf(std::ios::fixed);
  rados::CephCluster& sys = tb.ceph();
  Agg dev, threads;
  obs::Histogram osd_wait;
  for (int i = 0; i < sys.osdCount(); ++i) {
    dev.add(sys.osd(i).device->busyTime());
    threads.add(sys.osd(i).op_threads.busyTime());
    osd_wait.merge(sys.osd(i).op_threads.waitHistogram());
  }
  printRow(os, "OSD device", dev, h);
  printRow(os, "OSD op threads", threads, h);
  printWaitRow(os, "OSD queue wait", osd_wait);
  printClientNics(os, tb.cluster(), tb.clients(), h);
}

}  // namespace daosim::apps
