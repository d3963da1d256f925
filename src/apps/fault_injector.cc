#include "apps/fault_injector.h"

#include <ostream>
#include <stdexcept>
#include <string>

#include "daos/rebuild.h"
#include "obs/observer.h"
#include "obs/telemetry.h"

namespace daosim::apps {

namespace {

void checkSubject(int subject, int limit, const char* what) {
  if (subject < 0 || subject >= limit) {
    throw std::out_of_range(std::string("FaultInjector: ") + what + " " +
                            std::to_string(subject) + " out of range [0, " +
                            std::to_string(limit) + ")");
  }
}

}  // namespace

FaultInjector::FaultInjector(DaosTestbed& testbed, sim::FaultPlan plan)
    : testbed_(&testbed), plan_(std::move(plan)) {
  const int targets = testbed_->daos().totalTargets();
  const int engines = testbed_->daos().engineCount();
  const int nodes = static_cast<int>(testbed_->cluster().nodeCount());
  for (const sim::FaultEvent& e : plan_.events()) {
    switch (e.kind) {
      case sim::FaultKind::kNicFlap:
        checkSubject(e.subject, nodes, "node");
        break;
      case sim::FaultKind::kEngineStall:
        checkSubject(e.subject, engines, "engine");
        break;
      default:
        checkSubject(e.subject, targets, "target");
        break;
    }
  }
}

void FaultInjector::install() {
  if (plan_.empty() || installed_) return;
  installed_ = true;
  procs_.push_back(testbed_->sim().spawn(drive(this)));
}

void FaultInjector::registerTelemetry(obs::Telemetry& telemetry) {
  if (plan_.empty()) return;
  using Kind = obs::Telemetry::Kind;
  const FaultStats* st = &stats_;
  telemetry.addProbe("faults/events_applied", Kind::kCounter, [st] {
    return static_cast<double>(st->events_applied);
  });
  telemetry.addProbe("faults/rebuilds_started", Kind::kCounter, [st] {
    return static_cast<double>(st->rebuilds_started);
  });
  telemetry.addProbe("faults/rebuilds_completed", Kind::kCounter, [st] {
    return static_cast<double>(st->rebuilds_completed);
  });
  telemetry.addProbe("faults/rebuild_bytes_moved", Kind::kCounter, [st] {
    return static_cast<double>(st->rebuild_bytes_moved);
  });
  telemetry.addProbe("faults/objects_lost", Kind::kCounter, [st] {
    return static_cast<double>(st->objects_lost);
  });
  telemetry.addProbe("faults/records_unrecoverable", Kind::kCounter, [st] {
    return static_cast<double>(st->records_unrecoverable);
  });
}

void FaultInjector::rethrowIfFailed() const {
  for (const sim::ProcHandle& h : procs_) {
    if (h.failed()) std::rethrow_exception(h.error());
  }
}

void FaultInjector::writeSummary(std::ostream& os) const {
  os << "fault injection summary\n"
     << "  plan events          " << plan_.size() << "\n"
     << "  events applied       " << stats_.events_applied << "\n"
     << "  rebuilds             " << stats_.rebuilds_completed << "/"
     << stats_.rebuilds_started << " completed\n"
     << "  records restored     " << stats_.rebuild_records_restored << "\n"
     << "  bytes moved          " << stats_.rebuild_bytes_moved << "\n"
     << "  objects lost         " << stats_.objects_lost << "\n"
     << "  records unrecoverable " << stats_.records_unrecoverable << "\n";
  hw::Cluster& cluster = testbed_->cluster();
  daos::DaosSystem& system = testbed_->daos();
  os << "  rpc retries          " << cluster.rpcRetries() << "\n"
     << "  rpc timeouts         " << cluster.rpcTimeouts() << "\n"
     << "  sends failed         " << cluster.sendFailures() << "\n"
     << "  degraded reads       " << system.degradedReads() << "\n"
     << "  targets failed now   " << system.failedTargets() << "\n"
     << "  targets excluded now " << system.excludedTargets() << "\n";
}

void FaultInjector::markTrace(const sim::FaultEvent& e) {
  obs::Observer* o = testbed_->sim().observer();
  if (o == nullptr) return;
  // Zero-length op on a dedicated "faults" track: chaos events line up
  // against workload ops in the chrome trace.
  const obs::TrackId track = o->track(-1, "faults");
  const sim::Time now = testbed_->sim().now();
  const obs::OpId op = o->beginOp(faultKindName(e.kind), track);
  o->endOp(op, faultKindName(e.kind), track, now);
}

void FaultInjector::applyEvent(const sim::FaultEvent& e) {
  daos::DaosSystem& system = testbed_->daos();
  switch (e.kind) {
    case sim::FaultKind::kTargetFail:
      system.failTarget(e.subject);
      break;
    case sim::FaultKind::kTargetRecover:
      system.recoverTarget(e.subject);
      break;
    case sim::FaultKind::kTargetExclude: {
      // Real flow: the device dies, the administrator excludes it from the
      // pool map, and rebuild restores redundancy in the background while
      // clients keep reading via the degraded path.
      system.failTarget(e.subject);
      system.excludeTarget(e.subject);
      ++stats_.rebuilds_started;
      procs_.push_back(
          testbed_->sim().spawn(rebuildVictim(this, e.subject)));
      break;
    }
    case sim::FaultKind::kTargetSlow: {
      auto [engine, local] = system.locateTarget(e.subject);
      engine->target(local).device().setSlowdown(e.factor);
      break;
    }
    case sim::FaultKind::kNicFlap:
      testbed_->cluster().setLinkDown(e.subject, true);
      procs_.push_back(testbed_->sim().spawn(
          restoreLink(this, e.subject, e.duration)));
      break;
    case sim::FaultKind::kEngineStall: {
      daos::Engine& engine = system.engine(e.subject);
      for (int t = 0; t < engine.targetCount(); ++t) {
        procs_.push_back(testbed_->sim().spawn(
            stallFor(this, &engine.target(t).xstream(), e.duration)));
      }
      break;
    }
  }
  ++stats_.events_applied;
  markTrace(e);
}

sim::Task<void> FaultInjector::drive(FaultInjector* self) {
  sim::Simulation& sim = self->testbed_->sim();
  for (const sim::FaultEvent& e : self->plan_.events()) {
    if (e.at > sim.now()) co_await sim.delay(e.at - sim.now());
    self->applyEvent(e);
  }
}

sim::Task<void> FaultInjector::restoreLink(FaultInjector* self, int node,
                                           sim::Time after) {
  co_await self->testbed_->sim().delay(after);
  self->testbed_->cluster().setLinkDown(node, false);
}

sim::Task<void> FaultInjector::stallFor(FaultInjector* self,
                                        sim::QueueStation* station,
                                        sim::Time dur) {
  (void)self;
  co_await station->exec(dur);
}

sim::Task<void> FaultInjector::rebuildVictim(FaultInjector* self,
                                             int victim) {
  daos::RebuildStats rs =
      co_await daos::rebuild(self->testbed_->daos(), victim);
  self->stats_.rebuild_records_restored += rs.records_restored;
  self->stats_.rebuild_bytes_moved += rs.bytes_moved;
  self->stats_.objects_lost += rs.objects_lost;
  self->stats_.records_unrecoverable += rs.records_unrecoverable;
  ++self->stats_.rebuilds_completed;
}

}  // namespace daosim::apps
