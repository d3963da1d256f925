// Post-run utilization reports: where did the time go?
//
// After a benchmark run these print, per resource class, the busy time and
// utilization over a horizon — the first tool one reaches for when a curve
// flattens (is it the SSDs, a NIC, the MDS, the pool-service leader?). The
// bench binaries honour DAOSIM_STATS=1 and the CLI exposes --stats.
#pragma once

#include <ostream>

#include "apps/testbed.h"

namespace daosim::apps {

/// DAOS: devices, NICs, target xstreams, pool-service leader.
void reportUtilization(std::ostream& os, DaosTestbed& tb,
                       sim::Time horizon);

/// Lustre: OST devices, MDS threads, NICs.
void reportUtilization(std::ostream& os, LustreTestbed& tb,
                       sim::Time horizon);

/// Ceph: OSD devices and op threads, NICs.
void reportUtilization(std::ostream& os, CephTestbed& tb, sim::Time horizon);

}  // namespace daosim::apps
