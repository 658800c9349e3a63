#include "platform/service.h"

#include <algorithm>
#include <utility>

#include "control/dilution.h"
#include "durability/journal.h"
#include "durability/records.h"
#include "durability/serialize.h"
#include "durability/snapshot.h"
#include "obs/obs.h"
#include "spec/job_spec.h"

namespace htune {

namespace {

/// Safety horizon in review epochs: only a simulation that stopped making
/// progress (no acceptances forever) can reach it.
constexpr uint64_t kMaxReviewEpochs = 10'000'000;

}  // namespace

/// One job of the gang, from supervisor hand-off to reported outcome.
struct SharedMarketService::ActiveJob {
  JobRun run;
  /// Set on a session-creation failure: the job never enters the market
  /// and this becomes its outcome status (poison under the fleet mapping).
  Status create_status;
  std::unique_ptr<JobSession> session;
  std::unique_ptr<JournalWriter> writer;
  /// Journaled kRunEnd artifacts from a previous (killed) run, for the
  /// exactly-once bitwise verification.
  bool has_run_end = false;
  JobRunEndRecord journaled;
  bool finalized = false;
  JobOutcome outcome;
};

SharedMarketService::SharedMarketService(FleetStorageProvider* provider,
                                         SharedServiceConfig config)
    : provider_(provider), config_(std::move(config)) {}

StatusOr<std::vector<SharedJobDriver::JobOutcome>>
SharedMarketService::RunJobs(std::vector<JobRun> runs) {
  if (runs.empty()) {
    return std::vector<JobOutcome>{};
  }
  ++counts_.gangs;

  // The market's candidate walk is ascending job id; the gang enters in
  // that order no matter how the supervisor prioritized dispatch.
  std::sort(runs.begin(), runs.end(),
            [](const JobRun& a, const JobRun& b) {
              return a.job_id < b.job_id;
            });

  std::vector<ActiveJob> jobs;
  jobs.reserve(runs.size());
  for (JobRun& run : runs) {
    ActiveJob job;
    job.run = std::move(run);
    job.outcome.job_id = job.run.job_id;
    job.outcome.journal_bytes = job.run.start_valid_bytes;
    JobSessionConfig session_config;
    session_config.job_id = job.run.job_id;
    session_config.straggler_factor = config_.straggler_factor;
    session_config.max_escalation = config_.max_escalation;
    auto session = JobSession::Create(job.run.spec, session_config);
    if (session.ok()) {
      job.session = std::make_unique<JobSession>(std::move(*session));
    } else {
      job.create_status = session.status();
    }
    jobs.push_back(std::move(job));
  }

  // Per-job journals: read any prior shared-run history (exactly-once
  // state), then open a writer positioned at the validated tail.
  for (ActiveJob& job : jobs) {
    if (!job.create_status.ok()) {
      continue;
    }
    const auto contents = OpenJournal(*job.run.storage);
    if (!contents.ok()) {
      if (contents.status().code() == StatusCode::kResourceExhausted) {
        return contents.status();  // the injected kill: gang dies as a unit
      }
      job.create_status = contents.status();
      continue;
    }
    for (const JournalRecord& record : contents->records) {
      if (record.type == JournalRecordType::kRunEnd) {
        const Status decoded = DecodeRecord(record.payload, &job.journaled);
        if (!decoded.ok()) {
          job.create_status = InternalError(
              "journaled kRunEnd is undecodable: " + decoded.ToString());
          break;
        }
        job.has_run_end = true;
      }
    }
    if (!job.create_status.ok()) {
      continue;
    }
    job.writer =
        std::make_unique<JournalWriter>(job.run.storage,
                                        contents->valid_bytes);
    job.writer->EnableRetry(config_.journal_retry,
                            job.session->seed() ^ 0x73657276ULL);  // "serv"
    if (contents->records.empty()) {
      const Status started = job.writer->Append(
          JournalRecordType::kRunStart,
          EncodeRecord(JobRunStartRecord{job.run.job_id, job.run.spec.name}));
      const Status flushed =
          started.ok() ? job.writer->Flush() : started;
      if (!flushed.ok()) {
        if (flushed.code() == StatusCode::kResourceExhausted) {
          return flushed;
        }
        job.create_status = flushed;
        continue;
      }
    }
    job.outcome.journal_bytes = job.writer->valid_bytes();
  }

  // The shared marketplace.
  const auto curve = ParseCurveSpec(config_.market.curve);
  if (!curve.ok()) {
    return InvalidArgumentError("shared service: market curve: " +
                                curve.status().ToString());
  }
  SharedMarketConfig market_config;
  market_config.worker_arrival_rate = config_.market.arrival_rate;
  market_config.worker_error_prob = config_.market.worker_error_prob;
  market_config.curve = *curve;
  market_config.seed = static_cast<uint64_t>(config_.market.seed);
  market_config.record_trace = true;
  HTUNE_RETURN_IF_ERROR(ValidateSharedMarketConfig(market_config));
  SharedMarket market(market_config);

  // Service journal: locate this gang's generation and its newest snapshot.
  HTUNE_ASSIGN_OR_RETURN(JournalStorage * service_storage,
                         provider_->Storage(kSharedServiceJournalPath));
  const auto service_contents = OpenJournal(*service_storage);
  if (!service_contents.ok()) {
    return service_contents.status();
  }
  // The gang fingerprint: the byte string that names one generation.
  GangFingerprintRecord gang;
  for (const ActiveJob& job : jobs) {
    if (job.create_status.ok()) {
      gang.jobs.emplace_back(job.run.job_id, job.session->seed());
    }
  }
  const std::string fingerprint = EncodeRecord(gang);
  const std::string* snapshot_payload = nullptr;
  bool generation_matches = false;
  for (const JournalRecord& record : service_contents->records) {
    if (record.type == JournalRecordType::kRunStart) {
      generation_matches = record.payload == fingerprint;
      snapshot_payload = nullptr;
    } else if (record.type == JournalRecordType::kSnapshot &&
               generation_matches) {
      snapshot_payload = &record.payload;
    }
  }
  JournalWriter service_writer(service_storage,
                               service_contents->valid_bytes);
  service_writer.EnableRetry(
      config_.journal_retry,
      static_cast<uint64_t>(config_.market.seed) ^ 0x67616e67ULL);  // "gang"

  uint64_t review_epoch = 0;
  if (snapshot_payload != nullptr) {
    // Resume: the engine state carries everything but the session counters.
    ServiceSnapshotRecord snapshot;
    HTUNE_RETURN_IF_ERROR(DecodeRecord(*snapshot_payload, &snapshot));
    review_epoch = snapshot.review_epoch;
    HTUNE_RETURN_IF_ERROR(market.RestoreState(snapshot.market));
    for (const auto& [job_id, counters] : snapshot.sessions) {
      for (ActiveJob& job : jobs) {
        if (job.run.job_id == job_id && job.session != nullptr) {
          HTUNE_RETURN_IF_ERROR(job.session->RestoreCounters(counters));
        }
      }
    }
    ++counts_.resumes;
    HTUNE_OBS_COUNTER_ADD("platform.service_resumes", 1);
  } else {
    // Fresh generation: register the gang, post everything, then durably
    // open the generation so the next process knows what it is resuming.
    if (!generation_matches) {
      HTUNE_RETURN_IF_ERROR(service_writer.Append(
          JournalRecordType::kRunStart, fingerprint));
      HTUNE_RETURN_IF_ERROR(service_writer.Flush());
    }
    for (ActiveJob& job : jobs) {
      if (!job.create_status.ok()) {
        continue;
      }
      HTUNE_RETURN_IF_ERROR(
          market.AddJob(job.run.job_id, job.session->seed()));
      HTUNE_RETURN_IF_ERROR(job.session->Post(market));
    }
  }

  // Finalization: exactly-once kRunEnd with bitwise replay verification.
  auto finalize = [&](ActiveJob& job) -> Status {
    Encoder trace_encoder;
    EncodeTraceEvents(market.Trace(job.run.job_id), trace_encoder);
    JobRunEndRecord end{EncodeSessionReport(job.session->Report(market)),
                        trace_encoder.Release()};
    if (job.has_run_end) {
      if (job.journaled.report != end.report ||
          job.journaled.trace != end.trace) {
        job.outcome.status = InternalError(
            "re-completed job disagrees with its journaled kRunEnd");
        job.outcome.detail = "shared replay";
        job.finalized = true;
        return OkStatus();
      }
    } else {
      const Status appended =
          job.writer->AppendRecord(JournalRecordType::kRunEnd, end);
      const Status flushed = appended.ok() ? job.writer->Flush() : appended;
      if (!flushed.ok()) {
        if (flushed.code() == StatusCode::kResourceExhausted) {
          return flushed;  // gang dies; kRunEnd retries after recovery
        }
        job.outcome.status = flushed;
        job.finalized = true;
        return OkStatus();
      }
    }
    job.outcome.status = OkStatus();
    job.outcome.result.report_bytes = std::move(end.report);
    job.outcome.result.trace_bytes = std::move(end.trace);
    job.outcome.journal_bytes =
        job.writer != nullptr ? job.writer->valid_bytes()
                              : job.run.start_valid_bytes;
    job.finalized = true;
    ++counts_.jobs_completed;
    HTUNE_OBS_COUNTER_ADD("platform.jobs_completed", 1);
    return OkStatus();
  };
  auto finalize_done_jobs = [&]() -> Status {
    for (ActiveJob& job : jobs) {
      if (job.create_status.ok() && !job.finalized &&
          job.session->Done(market)) {
        HTUNE_RETURN_IF_ERROR(finalize(job));
      }
    }
    return OkStatus();
  };

  // A resumed snapshot may already hold completed jobs whose kRunEnd was
  // lost to the kill (or survived it — the verifier tells them apart).
  HTUNE_RETURN_IF_ERROR(finalize_done_jobs());

  const double interval = config_.market.review_interval;
  while (market.OpenTaskCount() > 0) {
    if (review_epoch >= kMaxReviewEpochs) {
      return InternalError(
          "shared service: review-epoch safety horizon exceeded");
    }
    ++review_epoch;
    market.RunUntil(static_cast<double>(review_epoch) * interval);

    // Sessions observe the competition through the dilution-adjusted
    // shared curve, re-frozen each review epoch.
    const auto diluted = DiluteCurveForSharedMarket(
        *curve, config_.market.arrival_rate, market.TotalPostedWeight());
    for (ActiveJob& job : jobs) {
      if (job.create_status.ok() && !job.finalized &&
          !job.session->Done(market)) {
        HTUNE_RETURN_IF_ERROR(job.session->Review(market, *diluted));
        ++counts_.reviews;
      }
    }
    HTUNE_RETURN_IF_ERROR(finalize_done_jobs());

    if (review_epoch %
            static_cast<uint64_t>(config_.market.snapshot_interval) ==
        0) {
      ServiceSnapshotRecord snapshot;
      snapshot.review_epoch = review_epoch;
      snapshot.market = market.CaptureState();
      for (const ActiveJob& job : jobs) {
        if (job.create_status.ok()) {
          snapshot.sessions.emplace_back(job.run.job_id,
                                         job.session->CaptureCounters());
        }
      }
      HTUNE_RETURN_IF_ERROR(service_writer.AppendRecord(
          JournalRecordType::kSnapshot, snapshot));
      HTUNE_RETURN_IF_ERROR(service_writer.Flush());
      ++counts_.snapshots;
      HTUNE_OBS_COUNTER_ADD("platform.service_snapshots", 1);
    }
  }
  HTUNE_RETURN_IF_ERROR(finalize_done_jobs());

  std::vector<JobOutcome> outcomes;
  outcomes.reserve(jobs.size());
  for (ActiveJob& job : jobs) {
    if (!job.create_status.ok()) {
      job.outcome.status = job.create_status;
      job.outcome.detail = "shared session setup failed";
    }
    outcomes.push_back(std::move(job.outcome));
  }
  return outcomes;
}

}  // namespace htune
