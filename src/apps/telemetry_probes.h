// Telemetry wiring for the testbeds: walks a deployed system and registers
// one pull probe per hot component under a topology-mirroring path, e.g.
//
//   server/<e>/target/<t>/nvme/busy_frac      server/<e>/nic/tx/bytes_per_s
//   server/<e>/target/<t>/xs/queue_len        client/<i>/dfuse/cache_hit_frac
//   ost/<i>/cpu/busy_frac                     osd/<i>/threads/busy_frac
//   net/inflight                              net/rpc_req_per_s
//
// Busy-fraction probes return cumulative busy *seconds* under Kind::kRate,
// so each sampled bin is the dimensionless utilization over that bin.
// Multi-server stations (DFUSE, MDS, OSD op threads) divide by the thread
// count to report per-thread utilization. apps::ObservedRun (apps/observe.h)
// registers them on every run it observes with telemetry.
#pragma once

#include "apps/testbed.h"
#include "obs/telemetry.h"

namespace daosim::apps {

void registerProbes(obs::Telemetry& t, DaosTestbed& tb);
void registerProbes(obs::Telemetry& t, LustreTestbed& tb);
void registerProbes(obs::Telemetry& t, CephTestbed& tb);

}  // namespace daosim::apps
