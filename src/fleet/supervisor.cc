#include "fleet/supervisor.h"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include <dirent.h>
#include <sys/stat.h>
#include <sys/types.h>

#include "common/parallel.h"
#include "control/adaptive_retuner.h"
#include "control/fault_tolerant_executor.h"
#include "durability/crc32c.h"
#include "durability/records.h"
#include "durability/serialize.h"
#include "durability/snapshot.h"
#include "obs/obs.h"
#include "spec/fleet_spec.h"
#include "spec/job_spec.h"
#include "tuning/repetition_allocator.h"

namespace htune {

namespace {

Status MakeDir(const std::string& path) {
  if (::mkdir(path.c_str(), 0755) == 0 || errno == EEXIST) {
    return OkStatus();
  }
  return InternalError("fleet: cannot create directory " + path + ": " +
                       std::strerror(errno));
}

/// Parses "jobs/<id>.journal" back to its job id; false for anything else.
bool ParseJournalPathId(const std::string& path, uint64_t* job_id) {
  constexpr std::string_view kPrefix = "jobs/";
  constexpr std::string_view kSuffix = ".journal";
  if (path.size() <= kPrefix.size() + kSuffix.size() ||
      path.compare(0, kPrefix.size(), kPrefix) != 0 ||
      path.compare(path.size() - kSuffix.size(), kSuffix.size(), kSuffix) !=
          0) {
    return false;
  }
  const std::string digits = path.substr(
      kPrefix.size(), path.size() - kPrefix.size() - kSuffix.size());
  if (digits.empty()) {
    return false;
  }
  uint64_t value = 0;
  for (const char c : digits) {
    if (c < '0' || c > '9') {
      return false;
    }
    value = value * 10 + static_cast<uint64_t>(c - '0');
  }
  *job_id = value;
  return true;
}

/// Canonical byte encoding of a FaultTolerantReport, for bitwise
/// comparison against a reference run and for the completion digest.
std::string EncodeFaultTolerantReport(const FaultTolerantReport& report) {
  Encoder e;
  PutFields(e, report.latency, int64_t{report.spent}, report.reviews,
            report.stragglers, report.escalations, report.abandoned_attempts,
            report.expired_posts, report.degraded, report.floor_repetitions,
            report.deadline_expired, uint64_t{report.answers.size()});
  for (const std::vector<int>& per_question : report.answers) {
    e.PutI32Vector(per_question);
  }
  return e.Release();
}

std::string EncodeRetunerReport(const RetunerReport& report) {
  Encoder e;
  PutFields(e, report.latency, int64_t{report.spent}, report.retunes,
            report.reviews, report.final_scale, report.final_prices);
  return e.Release();
}

}  // namespace

// ---------------------------------------------------------------------------
// Storage providers

StatusOr<JournalStorage*> InMemoryFleetStorage::Storage(
    const std::string& path) {
  MutexLock lock(mu_);
  auto it = storages_.find(path);
  if (it == storages_.end()) {
    it = storages_
             .emplace(path, std::make_unique<InMemoryJournalStorage>())
             .first;
  }
  return static_cast<JournalStorage*>(it->second.get());
}

StatusOr<std::vector<std::string>> InMemoryFleetStorage::ListJournals() {
  MutexLock lock(mu_);
  std::vector<std::string> paths;
  for (const auto& [path, storage] : storages_) {
    if (path.compare(0, 5, "jobs/") == 0 && !storage->bytes().empty()) {
      paths.push_back(path);
    }
  }
  return paths;
}

InMemoryJournalStorage* InMemoryFleetStorage::Find(const std::string& path) {
  MutexLock lock(mu_);
  const auto it = storages_.find(path);
  return it == storages_.end() ? nullptr : it->second.get();
}

StatusOr<JournalStorage*> FileFleetStorage::Storage(const std::string& path) {
  MutexLock lock(mu_);
  if (!dirs_ready_) {
    HTUNE_RETURN_IF_ERROR(MakeDir(root_));
    HTUNE_RETURN_IF_ERROR(MakeDir(root_ + "/jobs"));
    dirs_ready_ = true;
  }
  auto it = storages_.find(path);
  if (it == storages_.end()) {
    it = storages_
             .emplace(path,
                      std::make_unique<FileJournalStorage>(root_ + "/" + path))
             .first;
  }
  return static_cast<JournalStorage*>(it->second.get());
}

StatusOr<std::vector<std::string>> FileFleetStorage::ListJournals() {
  const std::string dir = root_ + "/jobs";
  DIR* handle = ::opendir(dir.c_str());
  if (handle == nullptr) {
    if (errno == ENOENT) {
      return std::vector<std::string>();  // fresh fleet directory
    }
    return InternalError("fleet: cannot list " + dir + ": " +
                         std::strerror(errno));
  }
  std::vector<std::string> paths;
  for (;;) {
    errno = 0;
    const struct dirent* entry = ::readdir(handle);
    if (entry == nullptr) {
      break;
    }
    const std::string name = entry->d_name;
    if (name == "." || name == "..") {
      continue;
    }
    struct stat st;
    const std::string full = dir + "/" + name;
    if (::stat(full.c_str(), &st) == 0 && st.st_size > 0) {
      paths.push_back("jobs/" + name);
    }
  }
  // readdir's errno: 0 at the end of the stream. An error must fail the
  // listing, not truncate it and hide orphan journals from Recover.
  const int read_errno = errno;
  ::closedir(handle);
  if (read_errno != 0) {
    return InternalError("fleet: cannot list " + dir + ": " +
                         std::strerror(read_errno));
  }
  std::sort(paths.begin(), paths.end());
  return paths;
}

// ---------------------------------------------------------------------------
// Config

Status ValidateFleetConfig(const FleetConfig& config) {
  if (config.max_running < 1) {
    return InvalidArgumentError("FleetConfig: max_running must be >= 1, got " +
                                std::to_string(config.max_running));
  }
  if (config.max_admitted < 0) {
    return InvalidArgumentError("FleetConfig: max_admitted must be >= 0, got " +
                                std::to_string(config.max_admitted));
  }
  if (config.watchdog_stall_limit < 1) {
    return InvalidArgumentError(
        "FleetConfig: watchdog_stall_limit must be >= 1, got " +
        std::to_string(config.watchdog_stall_limit));
  }
  HTUNE_RETURN_IF_ERROR(ValidateRetryPolicy(config.restart));
  HTUNE_RETURN_IF_ERROR(ValidateRetryPolicy(config.journal_retry));
  HTUNE_RETURN_IF_ERROR(ValidateRetryPolicy(config.market_retry));
  HTUNE_RETURN_IF_ERROR(ValidateCircuitBreakerConfig(config.breaker));
  return OkStatus();
}

// ---------------------------------------------------------------------------
// Supervisor

struct FleetSupervisor::Outcome {
  enum class Kind {
    /// Completed with a verified report.
    kDone,
    /// Transient failure (controller parked / retries exhausted): eligible
    /// for restart or a watchdog hang verdict.
    kTransient,
    /// Poison: terminal quarantine with `detail` as the diagnostic.
    kQuarantine,
    /// The injected whole-process kill (or an unrecoverable storage
    /// error): the fleet stops as a unit.
    kFleetDead,
  };

  Kind kind = Kind::kFleetDead;
  Status status = OkStatus();
  std::string detail;
  /// Durable journal mark after the run (valid prefix bytes).
  uint64_t journal_bytes = 0;
  /// True when the run grew the journal past its starting mark.
  bool progressed = false;
  FleetJobResult result;

  /// Maps a run's final status to its fate: OK is done, kUnavailable
  /// transient, kResourceExhausted the injected whole-process kill
  /// (CrashInjectingStorage / FleetKillSwitch contract), anything else a
  /// quarantine; a non-empty `context` prefixes the status in its detail.
  void Classify(const Status& run_status, const std::string& context) {
    status = run_status;
    const std::string prefix = context.empty() ? "" : context + ": ";
    switch (run_status.code()) {
      case StatusCode::kOk:
        kind = Kind::kDone;
        return;
      case StatusCode::kUnavailable:
        kind = Kind::kTransient;
        return;
      case StatusCode::kResourceExhausted:
        kind = Kind::kFleetDead;
        return;
      case StatusCode::kInternal:
        kind = Kind::kQuarantine;
        detail = "divergent replay: " + prefix + run_status.ToString();
        return;
      default:
        kind = Kind::kQuarantine;
        detail = "poison job: " + prefix + run_status.ToString();
        return;
    }
  }
};

FleetSupervisor::FleetSupervisor(FleetStorageProvider* provider,
                                 FleetConfig config)
    : provider_(provider),
      config_(std::move(config)),
      breaker_(config_.breaker),
      restart_jitter_(config_.seed) {}

FleetSupervisor::~FleetSupervisor() = default;

Status FleetSupervisor::Open() {
  MutexLock lock(mu_);
  if (manifest_ != nullptr) {
    return FailedPreconditionError("fleet: Open called twice");
  }
  HTUNE_ASSIGN_OR_RETURN(JournalStorage * raw,
                         provider_->Storage(FleetManifestFileName()));
  JournalStorage* storage = raw;
  if (config_.decorate_storage) {
    storage = config_.decorate_storage(0, raw);
  }
  HTUNE_ASSIGN_OR_RETURN(FleetManifest manifest, FleetManifest::Open(storage));
  manifest_ = std::make_unique<FleetManifest>(std::move(manifest));
  if (config_.journal_retry.max_attempts > 1) {
    manifest_->EnableRetry(config_.journal_retry, config_.seed ^ 0x4d414e49ULL);
  }
  PublishGauges();
  return OkStatus();
}

Status FleetSupervisor::Recover() {
  HTUNE_RETURN_IF_ERROR(Open());
  MutexLock lock(mu_);
  // Journals with no manifest job: the manifest lost (at least) those kJob
  // records to a torn tail. The spec is gone, so the job cannot be re-run;
  // record the quarantine durably so the journal is never misattributed to
  // a future job reusing the id.
  HTUNE_ASSIGN_OR_RETURN(const std::vector<std::string> journals,
                         provider_->ListJournals());
  for (const std::string& path : journals) {
    uint64_t job_id = 0;
    if (!ParseJournalPathId(path, &job_id)) {
      continue;
    }
    if (manifest_->jobs().count(job_id) != 0) {
      continue;
    }
    HTUNE_RETURN_IF_ERROR(manifest_->AppendState(
        job_id, FleetJobState::kQuarantined, 0, 0,
        "orphan journal: manifest holds no job record (truncated manifest "
        "tail); spec unrecoverable"));
    orphans_.push_back(job_id);
    HTUNE_OBS_COUNTER_ADD("fleet.quarantines", 1);
  }
  if (!orphans_.empty()) {
    HTUNE_RETURN_IF_ERROR(manifest_->Flush());
  }
  return OkStatus();
}

StatusOr<uint64_t> FleetSupervisor::Submit(const FleetJobSpec& spec) {
  MutexLock lock(mu_);
  if (manifest_ == nullptr) {
    return FailedPreconditionError("fleet: Submit before Open");
  }
  uint64_t job_id = manifest_->next_job_id();
  for (const uint64_t orphan : orphans_) {
    job_id = std::max(job_id, orphan + 1);
  }
  if (config_.max_admitted > 0) {
    // Admission control: count the backlog (jobs admitted but not yet
    // terminal). Running jobs are not shed — shedding only ever cancels
    // work that has not started.
    std::vector<std::pair<int, uint64_t>> pending;  // (priority, id)
    for (const auto& [id, entry] : manifest_->jobs()) {
      if (entry.state == FleetJobState::kPending) {
        pending.emplace_back(entry.spec.priority, id);
      }
    }
    const int backlog = static_cast<int>(pending.size());
    if (backlog >= config_.max_admitted) {
      // Admitting the newcomer must leave the backlog at or under the cap,
      // so backlog - max_admitted + 1 victims have to go. The backlog can
      // already sit past the cap (a fleet reopened with a smaller
      // max_admitted), so the need is not always exactly one — shedding a
      // single victim there would admit past the cap. Shedding is
      // all-or-nothing: every victim must be strictly outranked by the
      // newcomer, or the newcomer is rejected and the backlog keeps every
      // job it had (a rejection never costs a pending job).
      const size_t need =
          static_cast<size_t>(backlog - config_.max_admitted) + 1;
      // Shed order: lowest priority first, youngest (highest id) among
      // ties — fairness keeps older equal-priority work ahead of newer.
      std::sort(pending.begin(), pending.end(),
                [](const std::pair<int, uint64_t>& a,
                   const std::pair<int, uint64_t>& b) {
                  if (a.first != b.first) return a.first < b.first;
                  return a.second > b.second;
                });
      bool outranks_enough = pending.size() >= need;
      for (size_t i = 0; outranks_enough && i < need; ++i) {
        outranks_enough = pending[i].first < spec.priority;
      }
      if (!outranks_enough) {
        HTUNE_OBS_COUNTER_ADD("fleet.admission_rejects", 1);
        return ResourceExhaustedError(
            "fleet admission: backlog full (" + std::to_string(backlog) +
            " pending >= max_admitted " +
            std::to_string(config_.max_admitted) + ") and priority " +
            std::to_string(spec.priority) + " does not outrank the " +
            std::to_string(need) + " lowest-priority pending job(s)");
      }
      for (size_t i = 0; i < need; ++i) {
        HTUNE_RETURN_IF_ERROR(Transition(
            pending[i].second, FleetJobState::kShed, 0, 0,
            "shed: admission control preferred job " +
                std::to_string(job_id) + " (priority " +
                std::to_string(spec.priority) + " > " +
                std::to_string(pending[i].first) + ")"));
        HTUNE_OBS_COUNTER_ADD("fleet.shed", 1);
      }
    }
  }
  HTUNE_RETURN_IF_ERROR(manifest_->AppendJob(job_id, spec));
  PublishGauges();
  return job_id;
}

std::map<uint64_t, ManifestJobEntry> FleetSupervisor::jobs() const {
  MutexLock lock(mu_);
  if (manifest_ == nullptr) {
    return {};
  }
  return manifest_->jobs();
}

Status FleetSupervisor::Transition(uint64_t job_id, FleetJobState state,
                                   int32_t restarts, uint64_t journal_bytes,
                                   const std::string& detail) {
  HTUNE_RETURN_IF_ERROR(
      manifest_->AppendState(job_id, state, restarts, journal_bytes, detail));
  // Every edge is made durable immediately: the manifest must never claim
  // less than what the fleet believes (the recovery contract compares the
  // journal against the recorded mark).
  HTUNE_RETURN_IF_ERROR(manifest_->Flush());
  PublishGauges();
  return OkStatus();
}

void FleetSupervisor::PublishGauges() {
  int pending = 0, running = 0, parked = 0, quarantined = 0, done = 0;
  for (const auto& [id, entry] : manifest_->jobs()) {
    switch (entry.state) {
      case FleetJobState::kPending:
        ++pending;
        break;
      case FleetJobState::kRunning:
        ++running;
        break;
      case FleetJobState::kParked:
        ++parked;
        break;
      case FleetJobState::kQuarantined:
        ++quarantined;
        break;
      case FleetJobState::kDone:
        ++done;
        break;
      case FleetJobState::kShed:
        break;
    }
  }
  HTUNE_OBS_GAUGE_SET("fleet.jobs_pending", pending);
  HTUNE_OBS_GAUGE_SET("fleet.jobs_running", running);
  HTUNE_OBS_GAUGE_SET("fleet.jobs_parked", parked);
  HTUNE_OBS_GAUGE_SET("fleet.jobs_quarantined", quarantined);
  HTUNE_OBS_GAUGE_SET("fleet.jobs_done", done);
}

StatusOr<JournalStorage*> FleetSupervisor::JobStorage(uint64_t job_id) {
  const auto cached = job_storage_.find(job_id);
  if (cached != job_storage_.end()) {
    return cached->second;
  }
  HTUNE_ASSIGN_OR_RETURN(JournalStorage * raw,
                         provider_->Storage(FleetJobJournalPath(job_id)));
  JournalStorage* storage = raw;
  if (config_.decorate_storage) {
    storage = config_.decorate_storage(job_id, raw);
  }
  job_storage_[job_id] = storage;
  return storage;
}

void FleetSupervisor::MarkDead(const Status& status) {
  if (!fleet_dead_) {
    fleet_dead_ = true;
    death_status_ = status;
  }
  ready_cv_.NotifyAll();
}

Status FleetSupervisor::SeedReadyQueue(const char* caller) {
  if (manifest_ == nullptr) {
    return FailedPreconditionError(std::string("fleet: ") + caller +
                                   " before Open");
  }
  fleet_dead_ = false;
  death_status_ = OkStatus();
  ready_.clear();
  for (const auto& [job_id, entry] : manifest_->jobs()) {
    const bool runnable =
        entry.state == FleetJobState::kPending ||
        entry.state == FleetJobState::kRunning ||
        (config_.resume_parked && entry.state == FleetJobState::kParked);
    if (runnable) {
      ready_.push_back(job_id);
    }
  }
  // Highest priority first, submission order within a priority. The
  // queue is consumed from the front.
  const auto& jobs = manifest_->jobs();
  std::stable_sort(ready_.begin(), ready_.end(),
                   [&jobs](uint64_t a, uint64_t b) {
                     const int pa = jobs.at(a).spec.priority;
                     const int pb = jobs.at(b).spec.priority;
                     if (pa != pb) {
                       return pa > pb;
                     }
                     return a < b;
                   });
  return OkStatus();
}

bool FleetSupervisor::Dispatch(uint64_t job_id, FleetRunStats* stats,
                               SharedJobDriver::JobRun* run,
                               ManifestJobEntry* entry) {
  *entry = manifest_->jobs().at(job_id);

  // Fleet breaker: while open, ready jobs are parked, not dispatched —
  // a systemic outage must not burn every job's restart budget.
  breaker_clock_ += 1.0;
  if (!breaker_.AllowRequest(breaker_clock_)) {
    const Status parked =
        Transition(job_id, FleetJobState::kParked, entry->restarts,
                   entry->journal_bytes, "parked: fleet breaker open");
    if (!parked.ok()) {
      MarkDead(parked);
      return false;
    }
    ++stats->breaker_parks;
    HTUNE_OBS_COUNTER_ADD("fleet.breaker_parks", 1);
    return false;
  }

  // Pre-flight validation, before the job is marked running: a job whose
  // journal cannot be trusted is quarantined here and never runs.
  const auto storage = JobStorage(job_id);
  if (!storage.ok()) {
    MarkDead(storage.status());
    return false;
  }
  const auto loaded = (*storage)->Load();
  if (!loaded.ok()) {
    if (loaded.status().code() == StatusCode::kResourceExhausted) {
      MarkDead(loaded.status());
      return false;
    }
    Outcome out;
    out.kind = Outcome::Kind::kTransient;
    out.status = loaded.status();
    out.journal_bytes = entry->journal_bytes;
    ++stats->dispatched;
    FoldOutcome(job_id, *entry, out, stats);
    return false;
  }
  const auto scan = ScanJournal(*loaded);
  std::string quarantine_reason;
  if (!scan.ok()) {
    quarantine_reason =
        "journal failed validation: " + scan.status().ToString();
  } else if (scan->valid_bytes < entry->journal_bytes) {
    // The journal holds less intact history than the manifest proved
    // durable: a bit flip or truncation inside the recorded prefix.
    // Plain recovery would silently truncate and re-run — bitwise
    // correct-looking but missing paid history — so this is poison.
    quarantine_reason =
        "journal regressed below durable mark (" +
        std::to_string(scan->valid_bytes) + " < " +
        std::to_string(entry->journal_bytes) +
        " bytes intact): corrupted inside the recorded prefix";
  }
  if (!quarantine_reason.empty()) {
    breaker_.RecordFailure(breaker_clock_);
    const Status q =
        Transition(job_id, FleetJobState::kQuarantined, entry->restarts,
                   scan.ok() ? scan->valid_bytes : 0, quarantine_reason);
    if (!q.ok()) {
      MarkDead(q);
      return false;
    }
    ++stats->quarantined;
    HTUNE_OBS_COUNTER_ADD("fleet.quarantines", 1);
    return false;
  }

  const Status running = Transition(job_id, FleetJobState::kRunning,
                                    entry->restarts, scan->valid_bytes, "");
  if (!running.ok()) {
    MarkDead(running);
    return false;
  }
  ++stats->dispatched;
  HTUNE_OBS_COUNTER_ADD("fleet.dispatches", 1);
  run->job_id = job_id;
  run->spec = entry->spec;
  run->storage = *storage;
  run->start_valid_bytes = scan->valid_bytes;
  return true;
}

StatusOr<FleetRunStats> FleetSupervisor::RunAll() {
  FleetRunStats stats;
  {
    MutexLock lock(mu_);
    HTUNE_RETURN_IF_ERROR(SeedReadyQueue("RunAll"));
  }
  ParallelFor(static_cast<size_t>(config_.max_running),
              [this, &stats](size_t) { WorkerLane(&stats); });
  MutexLock lock(mu_);
  if (fleet_dead_ && !death_status_.ok()) {
    return death_status_;
  }
  return stats;
}

StatusOr<FleetRunStats> FleetSupervisor::RunAllShared(SharedJobDriver* driver) {
  if (driver == nullptr) {
    return InvalidArgumentError("fleet: RunAllShared needs a driver");
  }
  FleetRunStats stats;
  {
    MutexLock lock(mu_);
    HTUNE_RETURN_IF_ERROR(SeedReadyQueue("RunAllShared"));
  }

  // Rounds: each dispatches the whole ready queue into one gang, drives
  // the shared simulation unlocked, folds the outcomes, and repeats while
  // restarts re-entered the queue. Run outcomes reach the breaker only at
  // the fold, so a tripped breaker parks the next round, not this one.
  for (;;) {
    std::vector<SharedJobDriver::JobRun> runs;
    std::map<uint64_t, ManifestJobEntry> entries;
    std::map<uint64_t, uint64_t> start_valid;
    {
      MutexLock lock(mu_);
      if (fleet_dead_ || ready_.empty()) {
        break;
      }
      std::vector<uint64_t> round;
      round.swap(ready_);
      for (const uint64_t job_id : round) {
        SharedJobDriver::JobRun run;
        ManifestJobEntry entry;
        if (Dispatch(job_id, &stats, &run, &entry)) {
          entries.emplace(job_id, entry);
          start_valid.emplace(job_id, run.start_valid_bytes);
          runs.push_back(std::move(run));
        } else if (fleet_dead_) {
          break;
        }
      }
      if (fleet_dead_) {
        break;
      }
    }
    if (runs.empty()) {
      continue;  // everything parked/quarantined; re-check the queue
    }

    auto outcomes_or = driver->RunJobs(std::move(runs));

    MutexLock lock(mu_);
    if (!outcomes_or.ok()) {
      MarkDead(outcomes_or.status());
      break;
    }
    for (const auto& [job_id, entry] : entries) {
      const SharedJobDriver::JobOutcome* reported = nullptr;
      for (const SharedJobDriver::JobOutcome& candidate : *outcomes_or) {
        if (candidate.job_id == job_id) {
          reported = &candidate;
          break;
        }
      }
      Outcome out;
      if (reported == nullptr) {
        out.kind = Outcome::Kind::kQuarantine;
        out.detail = "poison job: shared driver returned no outcome for job " +
                     std::to_string(job_id);
        out.journal_bytes = start_valid.at(job_id);
      } else {
        out.Classify(reported->status, reported->detail);
        out.journal_bytes = reported->journal_bytes;
        out.progressed = reported->journal_bytes > start_valid.at(job_id);
        out.result = reported->result;
      }
      FoldOutcome(job_id, entry, out, &stats);
      if (fleet_dead_) {
        break;
      }
    }
    if (fleet_dead_) {
      break;
    }
  }

  MutexLock lock(mu_);
  if (fleet_dead_ && !death_status_.ok()) {
    return death_status_;
  }
  return stats;
}

void FleetSupervisor::WorkerLane(FleetRunStats* stats) {
  for (;;) {
    SharedJobDriver::JobRun run;
    ManifestJobEntry entry;
    {
      MutexLock lock(mu_);
      while (ready_.empty() && active_ > 0 && !fleet_dead_) {
        ready_cv_.Wait(mu_);
      }
      if (fleet_dead_ || ready_.empty()) {
        ready_cv_.NotifyAll();  // wake peers so every lane drains
        return;
      }
      const uint64_t job_id = ready_.front();
      ready_.erase(ready_.begin());
      if (!Dispatch(job_id, stats, &run, &entry)) {
        if (fleet_dead_) {
          return;
        }
        continue;
      }
      ++active_;
    }

    const Outcome out = RunJobOnce(run);

    {
      MutexLock lock(mu_);
      --active_;
      FoldOutcome(run.job_id, entry, out, stats);
      ready_cv_.NotifyAll();
      if (fleet_dead_) {
        return;
      }
    }
  }
}

void FleetSupervisor::FoldOutcome(uint64_t job_id,
                                  const ManifestJobEntry& entry,
                                  const Outcome& out, FleetRunStats* stats) {
  switch (out.kind) {
    case Outcome::Kind::kDone: {
      const uint32_t digest = Crc32c(out.result.report_bytes) ^
                              Crc32c(out.result.trace_bytes);
      const Status done = Transition(job_id, FleetJobState::kDone,
                                     entry.restarts, out.journal_bytes,
                                     "crc32c:" + std::to_string(digest));
      if (!done.ok()) {
        MarkDead(done);
        return;
      }
      breaker_.RecordSuccess(breaker_clock_);
      results_[job_id] = out.result;
      stalls_.erase(job_id);
      ++stats->completed;
      HTUNE_OBS_COUNTER_ADD("fleet.completed", 1);
      return;
    }
    case Outcome::Kind::kTransient: {
      breaker_.RecordFailure(breaker_clock_);
      int& stall_count = stalls_[job_id];
      stall_count = out.progressed ? 0 : stall_count + 1;
      if (!out.progressed && stall_count >= config_.watchdog_stall_limit) {
        // Watchdog verdict: consecutive runs with zero durable progress.
        // Restarting a hung job only re-hangs it; park for an operator.
        const Status parked = Transition(
            job_id, FleetJobState::kParked, entry.restarts, out.journal_bytes,
            "watchdog: hung (" + std::to_string(stall_count) +
                " consecutive runs with no durable progress); last: " +
                out.status.ToString());
        if (!parked.ok()) {
          MarkDead(parked);
          return;
        }
        stalls_.erase(job_id);
        ++stats->watchdog_parks;
        HTUNE_OBS_COUNTER_ADD("fleet.watchdog_parks", 1);
        return;
      }
      if (entry.restarts + 1 < config_.restart.max_attempts) {
        const double delay =
            BackoffFor(config_.restart, entry.restarts + 1, restart_jitter_);
        HTUNE_OBS_COUNTER_ADD("fleet.restart_backoff_ticks_us",
                              static_cast<uint64_t>(delay * 1e6));
        const Status pending = Transition(
            job_id, FleetJobState::kPending, entry.restarts + 1,
            out.journal_bytes, "restart: " + out.status.ToString());
        if (!pending.ok()) {
          MarkDead(pending);
          return;
        }
        // Sorted re-insert keeps the (priority desc, id asc) queue order:
        // a restarted job rejoins behind equal-priority peers it already
        // ran ahead of.
        const int priority = entry.spec.priority;
        auto slot = ready_.begin();
        while (slot != ready_.end()) {
          const ManifestJobEntry& other = manifest_->jobs().at(*slot);
          if (other.spec.priority < priority ||
              (other.spec.priority == priority && *slot > job_id)) {
            break;
          }
          ++slot;
        }
        ready_.insert(slot, job_id);
        ++stats->restarts;
        HTUNE_OBS_COUNTER_ADD("fleet.restarts", 1);
        return;
      }
      const Status parked = Transition(
          job_id, FleetJobState::kParked, entry.restarts, out.journal_bytes,
          "parked: restart budget exhausted (" +
              std::to_string(config_.restart.max_attempts) +
              " runs); last: " + out.status.ToString());
      if (!parked.ok()) {
        MarkDead(parked);
        return;
      }
      ++stats->exhausted_parks;
      HTUNE_OBS_COUNTER_ADD("fleet.exhausted_parks", 1);
      return;
    }
    case Outcome::Kind::kQuarantine: {
      breaker_.RecordFailure(breaker_clock_);
      const Status q =
          Transition(job_id, FleetJobState::kQuarantined, entry.restarts,
                     out.journal_bytes, out.detail);
      if (!q.ok()) {
        MarkDead(q);
        return;
      }
      ++stats->quarantined;
      HTUNE_OBS_COUNTER_ADD("fleet.quarantines", 1);
      return;
    }
    case Outcome::Kind::kFleetDead:
      MarkDead(out.status);
      return;
  }
}

FleetSupervisor::Outcome FleetSupervisor::RunJobOnce(
    const SharedJobDriver::JobRun& run) {
  const FleetJobSpec& spec = run.spec;
  Outcome out;

  const auto parsed = ParseJobSpec(spec.spec_text);
  if (!parsed.ok()) {
    out.kind = Outcome::Kind::kQuarantine;
    out.status = parsed.status();
    out.detail = "job spec failed to parse: " + parsed.status().ToString();
    out.journal_bytes = run.start_valid_bytes;
    return out;
  }
  const uint64_t seed = JobSeed(spec, *parsed);
  const MarketConfig market = MarketConfigFor(*parsed, seed);

  DurabilityConfig durability;
  durability.storage = run.storage;
  durability.snapshot_interval = spec.snapshot_interval;
  durability.journal_retry = config_.journal_retry;
  durability.retry_seed = seed ^ 0x6a6f75726e616cULL;  // "journal"

  const std::vector<QuestionSpec> questions(
      static_cast<size_t>(parsed->problem.TotalTasks()));
  const RepetitionAllocator allocator;
  std::vector<TraceEvent> trace;
  Status run_status = OkStatus();

  if (spec.controller == FleetController::kAdaptiveRetuner) {
    MarketConfig retuner_market = market;
    retuner_market.true_curve = parsed->problem.groups.front().curve;
    RetunerConfig rcfg;
    const AdaptiveRetuner retuner(&allocator, rcfg);
    const auto report = retuner.RunDurable(retuner_market, parsed->problem,
                                           questions, durability, &trace);
    if (report.ok()) {
      out.result.report_bytes = EncodeRetunerReport(*report);
    } else {
      run_status = report.status();
    }
  } else {
    FaultTolerantConfig cfg;
    cfg.budget = spec.ceiling >= 0
                     ? static_cast<long>(spec.ceiling)
                     : 0;
    cfg.abandonment = {parsed->abandon_prob, parsed->abandon_hold_rate};
    cfg.market_retry = config_.market_retry;
    cfg.resilience_seed = seed ^ 0x6d61726b6574ULL;  // "market"
    if (config_.market_gate) {
      cfg.market_fault_gate = config_.market_gate(run.job_id);
    }
    const FaultTolerantExecutor executor(&allocator, cfg);
    const auto report = executor.RunDurable(market, parsed->problem, questions,
                                            durability, &trace);
    if (report.ok()) {
      out.result.report_bytes = EncodeFaultTolerantReport(*report);
    } else {
      run_status = report.status();
    }
  }

  // The post-run durable mark. After a clean completion every byte in
  // storage was framed by this run's own writer, so the size IS the valid
  // prefix — re-CRCing a journal we just wrote would be the dominant
  // per-job supervision cost. After a failure the tail may be torn
  // mid-append, so re-scan for the prefix that actually survived (a torn
  // tail from an exhausted retry is not durable history).
  uint64_t end_valid = run.start_valid_bytes;
  {
    const auto loaded = run.storage->Load();
    if (loaded.ok()) {
      if (run_status.ok()) {
        end_valid = loaded->size();
      } else {
        const auto scan = ScanJournal(*loaded);
        if (scan.ok()) {
          end_valid = scan->valid_bytes;
        }
      }
    }
  }
  out.journal_bytes = end_valid;
  out.progressed = end_valid > run.start_valid_bytes;

  out.Classify(run_status, "");
  if (out.kind == Outcome::Kind::kDone) {
    Encoder trace_encoder;
    EncodeTraceEvents(trace, trace_encoder);
    out.result.trace_bytes = trace_encoder.Release();
  }
  return out;
}

}  // namespace htune
