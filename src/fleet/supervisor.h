#ifndef HTUNE_FLEET_SUPERVISOR_H_
#define HTUNE_FLEET_SUPERVISOR_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/statusor.h"
#include "durability/manifest.h"
#include "resilience/circuit_breaker.h"
#include "resilience/policy.h"

namespace htune {

/// Hands out the journal storages of one fleet directory, keyed by the
/// canonical relative paths of durability/manifest.h (FleetManifestFileName,
/// FleetJobJournalPath). Returned pointers stay valid for the provider's
/// lifetime; the provider owns the storages. Thread-safe: worker lanes
/// create job storages concurrently.
class FleetStorageProvider {
 public:
  virtual ~FleetStorageProvider() = default;

  /// The storage at `path`, created empty when absent.
  virtual StatusOr<JournalStorage*> Storage(const std::string& path) = 0;

  /// Relative paths of every *existing non-empty* journal under jobs/,
  /// sorted. Recovery diffs this against the manifest to find orphans.
  virtual StatusOr<std::vector<std::string>> ListJournals() = 0;
};

/// Test/bench provider keeping the whole fleet in memory.
class InMemoryFleetStorage : public FleetStorageProvider {
 public:
  StatusOr<JournalStorage*> Storage(const std::string& path) override;
  StatusOr<std::vector<std::string>> ListJournals() override;

  /// Direct access for corruption tests; null when the path was never
  /// opened.
  InMemoryJournalStorage* Find(const std::string& path);

 private:
  mutable Mutex mu_;
  std::map<std::string, std::unique_ptr<InMemoryJournalStorage>> storages_
      HTUNE_GUARDED_BY(mu_);
};

/// File-backed provider rooted at a fleet directory: MANIFEST at the root,
/// journals under jobs/. Both directories are created on the first Storage
/// call.
class FileFleetStorage : public FleetStorageProvider {
 public:
  explicit FileFleetStorage(std::string root) : root_(std::move(root)) {}

  StatusOr<JournalStorage*> Storage(const std::string& path) override;
  StatusOr<std::vector<std::string>> ListJournals() override;

  const std::string& root() const { return root_; }

 private:
  std::string root_;
  mutable Mutex mu_;
  bool dirs_ready_ HTUNE_GUARDED_BY(mu_) = false;
  std::map<std::string, std::unique_ptr<FileJournalStorage>> storages_
      HTUNE_GUARDED_BY(mu_);
};

/// Chaos seam: wraps a just-opened storage before the supervisor uses it.
/// Called with job id 0 for the manifest and the job's id otherwise; the
/// returned pointer (the wrapper, or `inner` unchanged) is borrowed — the
/// harness owns any wrapper and must keep it alive for the supervisor's
/// lifetime. Empty means no wrapping.
using FleetStorageDecorator =
    std::function<JournalStorage*(uint64_t job_id, JournalStorage* inner)>;

/// Chaos seam: the market fault gate for one job's controller (see
/// resilience/policy.h). Empty means no gate. Durable runs require bounded
/// gates (FaultTolerantConfig::market_fault_gate contract).
using FleetMarketGateFactory = std::function<FaultGate(uint64_t job_id)>;

/// Knobs for one FleetSupervisor.
struct FleetConfig {
  /// Worker lanes: the bounded running set. The fleet never executes more
  /// than this many jobs at once, whatever was admitted.
  int max_running = 4;
  /// Admission-control cap on *pending* jobs (the ready backlog). 0 means
  /// unbounded. When full, Submit sheds the lowest-priority pending job if
  /// the newcomer outranks it, else rejects the newcomer — either way with
  /// a clean kResourceExhausted, never by degrading the running set.
  int max_admitted = 0;
  /// Restart policy per job: max_attempts runs total (first run + bounded
  /// restarts), with the policy's exponential backoff charged in simulated
  /// seconds (fleet.restart_backoff_ticks_us) between runs. Only
  /// kUnavailable outcomes (transient park states) are restarted.
  RetryPolicy restart;
  /// Breaker across repeated failures fleet-wide: every failed run is a
  /// RecordFailure, every completed job a RecordSuccess, and while open the
  /// supervisor parks ready jobs instead of dispatching them (half-open
  /// admits one probe). The breaker clock is the fleet's dispatch counter —
  /// the supervisor has no wall clock — so open_cooldown is measured in
  /// dispatch opportunities, not seconds. Defaults are far looser than a
  /// per-job breaker: the fleet breaker exists to stop a *systemic* storage
  /// or market outage from burning every job's restart budget at once, not
  /// to react to one flaky job.
  CircuitBreakerConfig breaker{/*failure_threshold=*/32,
                               /*open_cooldown=*/8.0,
                               /*half_open_successes=*/1};
  /// Watchdog: a job whose run ends kUnavailable *without having grown its
  /// journal* made no durable progress. After this many consecutive
  /// no-progress runs the job is declared hung and parked instead of
  /// burning its remaining restart budget.
  int watchdog_stall_limit = 2;
  /// Retry-on-transient for manifest and per-job journal appends.
  RetryPolicy journal_retry;
  /// Whether RunAll and RunAllShared pick up kParked jobs again
  /// (operator-initiated retry of hung/exhausted jobs, e.g. htune_cli
  /// resume-fleet --resume-parked).
  bool resume_parked = false;
  /// Seeds the restart-backoff jitter stream and the manifest's journal
  /// retry jitter.
  uint64_t seed = 0x666c656574ULL;  // "fleet"
  FleetStorageDecorator decorate_storage;
  FleetMarketGateFactory market_gate;
  /// Market-side retry policy handed to every job controller (only
  /// consulted when a market gate is installed).
  RetryPolicy market_retry;
};

/// Rejects non-positive lane counts and stall limits, negative admission
/// caps, and invalid embedded retry/breaker configs.
Status ValidateFleetConfig(const FleetConfig& config);

/// In-memory artifacts of one completed job, for bitwise comparison in
/// tests and benches (the durable artifact is the journal itself).
struct FleetJobResult {
  /// Canonical encoding of the controller's final report.
  std::string report_bytes;
  /// EncodeTraceEvents of the final market trace.
  std::string trace_bytes;
};

/// What one RunAll or RunAllShared did.
struct FleetRunStats {
  /// Job executions dispatched (first runs and restarts).
  int dispatched = 0;
  /// Jobs that reached kDone.
  int completed = 0;
  /// Restarts scheduled by the retry policy.
  int restarts = 0;
  /// Jobs parked by the watchdog as hung.
  int watchdog_parks = 0;
  /// Jobs parked because the restart budget ran out.
  int exhausted_parks = 0;
  /// Jobs parked because the fleet breaker was open.
  int breaker_parks = 0;
  /// Jobs quarantined (excluding orphans found by Recover).
  int quarantined = 0;
};

/// Gang-execution seam for shared-market serving: where RunAll gives every
/// job its own isolated marketplace on its own lane, RunAllShared hands the
/// whole runnable set to ONE driver that advances every job inside a single
/// coupled simulation (competing for one worker stream). The supervisor
/// still owns everything durable — admission, preflight journal validation,
/// lifecycle transitions, restarts, quarantine — and the driver owns only
/// the in-simulation execution between kRunning and the returned outcomes.
class SharedJobDriver {
 public:
  /// One job the supervisor validated and marked kRunning, ready for the
  /// shared simulation. `storage` is the job's (decorated) journal,
  /// borrowed for the call; `start_valid_bytes` is the scanned durable
  /// mark, against which the supervisor measures progress.
  struct JobRun {
    uint64_t job_id = 0;
    FleetJobSpec spec;
    JournalStorage* storage = nullptr;
    uint64_t start_valid_bytes = 0;
  };

  /// What the shared run did to one job. `status` maps exactly like a
  /// lane-run controller status: OK completes the job with `result`;
  /// kUnavailable is transient (restart budget applies); kResourceExhausted
  /// is the whole-fleet kill; anything else quarantines with `detail`
  /// prepended to the diagnostic.
  struct JobOutcome {
    uint64_t job_id = 0;
    Status status;
    std::string detail;
    uint64_t journal_bytes = 0;
    FleetJobResult result;
  };

  virtual ~SharedJobDriver() = default;

  /// Runs every job of `runs` inside one shared simulation and reports one
  /// outcome per run (any order; a missing outcome is treated as the
  /// driver's bug and quarantines the job). A non-OK return is a
  /// driver-level catastrophe: the fleet dies as a unit, exactly like the
  /// injected whole-process kill.
  virtual StatusOr<std::vector<JobOutcome>> RunJobs(
      std::vector<JobRun> runs) = 0;
};

/// Supervises a fleet of durable tuning jobs: admission, scheduling on the
/// process thread pool, bounded restarts, hang detection, poison-job
/// quarantine, and whole-fleet crash recovery through the manifest.
///
/// Lifecycle state machine (durable, one kState record per edge, all edges
/// written through Transition — the analyzer's fleet-lifecycle rule):
///
///   kPending ----> kRunning ----> kDone
///      |  ^           |
///      |  '-restart---+--> kParked       (hung / budget / breaker / parked
///      |                   |              controller)
///      |                   '-> kPending  (next run, with resume_parked)
///      |-> kShed                          (admission control, terminal)
///      '---------> kQuarantined           (poison, terminal)
///   kRunning in a *reopened* manifest means the previous process died
///   mid-run; Recover re-dispatches it and RunDurable resumes the journal.
///
/// Usage: construct, Open() (fresh fleet) or Recover() (existing
/// directory), Submit() jobs, RunAll() (or RunAllShared()). After a crash
/// (the run returns the kill's kResourceExhausted), build a new supervisor
/// over the same provider and Recover() + run again — every interrupted
/// job resumes to a bitwise-identical result; finished jobs are not re-run.
///
/// Not reentrant: one RunAll or RunAllShared at a time, Submit between
/// runs only.
class FleetSupervisor {
 public:
  FleetSupervisor(FleetStorageProvider* provider, FleetConfig config);
  ~FleetSupervisor();

  FleetSupervisor(const FleetSupervisor&) = delete;
  FleetSupervisor& operator=(const FleetSupervisor&) = delete;

  /// Opens (or creates) the manifest. Call exactly once, before anything
  /// else.
  Status Open();

  /// Like Open, plus crash-recovery bookkeeping: journals whose job the
  /// manifest does not know (orphans — evidence the manifest lost a tail)
  /// are durably quarantined so they are never misread as fresh jobs.
  Status Recover();

  /// Admits one job: durably records it (manifest flush) before returning
  /// its id. kResourceExhausted when admission control is full and the
  /// newcomer outranks nothing.
  StatusOr<uint64_t> Submit(const FleetJobSpec& spec);

  /// Runs every runnable job (kPending, interrupted kRunning, and kParked
  /// when resume_parked) to a terminal or parked state on max_running
  /// lanes. Returns the injected-kill status if the fleet died mid-run —
  /// the manifest then holds the interrupted states for the next Recover.
  StatusOr<FleetRunStats> RunAll();

  /// Gang-schedules every runnable job onto `driver`'s shared simulation
  /// instead of isolated lanes. Rounds repeat while restarts re-enter the
  /// ready queue. Dispatch and the outcome fold are RunAll's own code; a
  /// round's run failures reach the fleet breaker only when the round is
  /// folded. Returns the death status if the fleet died mid-round.
  StatusOr<FleetRunStats> RunAllShared(SharedJobDriver* driver);

  /// Snapshot of the folded manifest view. Valid after Open/Recover.
  std::map<uint64_t, ManifestJobEntry> jobs() const;

  /// Results of jobs completed by *this* supervisor's RunAll and
  /// RunAllShared calls.
  const std::map<uint64_t, FleetJobResult>& results() const { return results_; }

  /// Job ids quarantined as orphan journals by Recover.
  const std::vector<uint64_t>& orphans() const { return orphans_; }

 private:
  struct Outcome;

  /// The single mutation path for durable lifecycle state (analyzer rule
  /// fleet-lifecycle): appends the kState record, updates gauges, and
  /// folds the change into the manifest view. A storage failure here is
  /// the fleet dying mid-transition; the caller must treat it as the kill.
  Status Transition(uint64_t job_id, FleetJobState state, int32_t restarts,
                    uint64_t journal_bytes, const std::string& detail)
      HTUNE_REQUIRES(mu_);

  /// Starts a run (`caller` names it in the before-Open error): clears the
  /// death state and queues every runnable job, (priority desc, id asc).
  Status SeedReadyQueue(const char* caller) HTUNE_REQUIRES(mu_);

  /// Both runners' dispatch: fleet breaker, journal pre-flight (Load,
  /// ScanJournal, quarantine below the durable mark) and the kRunning
  /// edge. True when `run` is ready, with `entry` the job's manifest entry
  /// at dispatch; false when the job was parked, quarantined or folded as
  /// a failed load, or the fleet died.
  bool Dispatch(uint64_t job_id, FleetRunStats* stats,
                SharedJobDriver::JobRun* run, ManifestJobEntry* entry)
      HTUNE_REQUIRES(mu_);

  /// Runs one dispatched job attempt end to end on its own market (no
  /// fleet lock held): config construction from the spec and the
  /// controller's RunDurable. Progress is measured against
  /// `run.start_valid_bytes`. Returns what happened, never throws the
  /// fleet off its lanes.
  Outcome RunJobOnce(const SharedJobDriver::JobRun& run);

  /// One worker lane: pull the highest-priority ready job, Dispatch it,
  /// run it unlocked, fold the outcome back under the lock, repeat until
  /// the fleet drains or dies.
  void WorkerLane(FleetRunStats* stats);

  /// Applies a finished run's outcome: done / restart / watchdog park /
  /// quarantine / fleet death.
  void FoldOutcome(uint64_t job_id, const ManifestJobEntry& entry,
                   const Outcome& out, FleetRunStats* stats)
      HTUNE_REQUIRES(mu_);

  /// The job's (decorated) storage, resolved once per job id and cached so
  /// chaos decorators see each job exactly once.
  StatusOr<JournalStorage*> JobStorage(uint64_t job_id) HTUNE_REQUIRES(mu_);

  void MarkDead(const Status& status) HTUNE_REQUIRES(mu_);

  void PublishGauges() HTUNE_REQUIRES(mu_);

  FleetStorageProvider* provider_;
  FleetConfig config_;

  mutable Mutex mu_;
  CondVar ready_cv_;
  std::unique_ptr<FleetManifest> manifest_ HTUNE_GUARDED_BY(mu_);
  /// Job ids runnable right now, kept sorted by (priority desc, id asc).
  std::vector<uint64_t> ready_ HTUNE_GUARDED_BY(mu_);
  /// Lanes currently executing a job.
  int active_ HTUNE_GUARDED_BY(mu_) = 0;
  /// Set when any storage reports the injected whole-process kill; all
  /// lanes drain immediately.
  bool fleet_dead_ HTUNE_GUARDED_BY(mu_) = false;
  Status death_status_ HTUNE_GUARDED_BY(mu_) = OkStatus();
  /// Fleet breaker (CircuitBreaker is not thread-safe: guarded).
  CircuitBreaker breaker_ HTUNE_GUARDED_BY(mu_);
  /// The breaker's monotone clock: dispatch decisions so far.
  double breaker_clock_ HTUNE_GUARDED_BY(mu_) = 0.0;
  /// Consecutive no-progress runs per job (in-memory: a process restart
  /// resets the count, which only delays a hang verdict, never corrupts).
  std::map<uint64_t, int> stalls_ HTUNE_GUARDED_BY(mu_);
  /// Jitter stream for restart backoff accounting.
  SplitMix64 restart_jitter_ HTUNE_GUARDED_BY(mu_);
  /// Decorated storage per job id (decorators run once per job).
  std::map<uint64_t, JournalStorage*> job_storage_ HTUNE_GUARDED_BY(mu_);

  /// Written under mu_ during a run; read by callers only after the run
  /// returns (the accessors are not synchronized).
  std::map<uint64_t, FleetJobResult> results_;
  std::vector<uint64_t> orphans_;
};

}  // namespace htune

#endif  // HTUNE_FLEET_SUPERVISOR_H_
