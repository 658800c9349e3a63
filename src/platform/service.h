#ifndef HTUNE_PLATFORM_SERVICE_H_
#define HTUNE_PLATFORM_SERVICE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/statusor.h"
#include "fleet/supervisor.h"
#include "platform/session.h"
#include "platform/shared_market.h"
#include "resilience/policy.h"
#include "spec/fleet_spec.h"

namespace htune {

/// The shared-market service's own journal, beside the per-job journals in
/// the fleet directory. The name deliberately fails ParseJournalPathId so
/// FleetSupervisor::Recover never mistakes it for an orphan job journal.
inline constexpr char kSharedServiceJournalPath[] = "jobs/shared.journal";

/// Knobs of one SharedMarketService.
struct SharedServiceConfig {
  /// The [shared_market] fleet-spec section (present or defaults).
  SharedMarketSpec market;
  /// Retry-on-transient for service and per-job journal appends.
  RetryPolicy journal_retry;
  /// Straggler threshold factor handed to every session.
  double straggler_factor = 4.0;
  /// Per-task price escalation ceiling handed to every session.
  int max_escalation = 8;
};

/// The shared-market gang driver (FleetSupervisor::RunAllShared): runs
/// every handed job as a JobSession on ONE SharedMarket, with durability
/// layered exactly like the isolated fleet path —
///
///  - Service journal (kSharedServiceJournalPath): one kRunStart per gang
///    generation (payload = the gang fingerprint: job ids + seeds), then a
///    kSnapshot every `snapshot_interval` reviews holding the engine's
///    CaptureState plus each session's counters. Resume finds the last
///    generation, checks its fingerprint against the incoming gang, and
///    restores from the newest snapshot; a fingerprint mismatch (different
///    submission) simply starts a new generation in the same journal.
///  - Per-job journals: kRunStart when the job first enters a shared run,
///    kRunEnd with the canonical report and trace bytes when it completes.
///    kRunEnd is exactly-once: a resumed run that re-completes the job
///    verifies its regenerated bytes against the journaled record bitwise
///    and quarantines the job as a divergent replay on any mismatch.
///
/// A kResourceExhausted from any append (the injected whole-process kill)
/// aborts the gang as a unit — RunJobs returns the status, the supervisor
/// marks the fleet dead, and the next Recover + RunAllShared resumes every
/// job from the snapshot to a bitwise-identical outcome.
class SharedMarketService : public SharedJobDriver {
 public:
  SharedMarketService(FleetStorageProvider* provider,
                      SharedServiceConfig config);

  StatusOr<std::vector<JobOutcome>> RunJobs(
      std::vector<JobRun> runs) override;

  /// Live scrape counters (htune_serve's metrics endpoint reads these on
  /// top of the obs registry): totals across every RunJobs call.
  struct ServiceCounts {
    uint64_t gangs = 0;
    uint64_t jobs_completed = 0;
    uint64_t reviews = 0;
    uint64_t snapshots = 0;
    uint64_t resumes = 0;
  };
  const ServiceCounts& Counts() const { return counts_; }

 private:
  struct ActiveJob;

  FleetStorageProvider* provider_;
  SharedServiceConfig config_;
  ServiceCounts counts_;
};

}  // namespace htune

#endif  // HTUNE_PLATFORM_SERVICE_H_
