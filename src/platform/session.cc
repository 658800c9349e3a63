#include "platform/session.h"

#include <utility>

#include "durability/records.h"
#include "durability/serialize.h"
#include "spec/fleet_spec.h"
#include "tuning/repetition_allocator.h"

namespace htune {

namespace {
constexpr uint32_t kSessionReportVersion = 1;
constexpr uint32_t kSessionCountersVersion = 1;
}  // namespace

std::string EncodeSessionReport(const SessionReport& report) {
  Encoder e;
  e.PutU32(kSessionReportVersion);
  PutFields(e, report.job_id, report.tasks, report.repetitions, report.spent,
            report.reviews, report.stragglers, report.escalations,
            report.correct_answers, report.mean_on_hold_latency,
            report.mean_processing_latency);
  return e.Release();
}

Status DecodeSessionReport(std::string_view bytes, SessionReport* report) {
  Decoder d(bytes);
  uint32_t version = 0;
  HTUNE_RETURN_IF_ERROR(d.GetU32(&version));
  if (version != kSessionReportVersion) {
    return InvalidArgumentError("session report: unsupported version " +
                                std::to_string(version));
  }
  HTUNE_RETURN_IF_ERROR(GetFields(
      d, report->job_id, report->tasks, report->repetitions, report->spent,
      report->reviews, report->stragglers, report->escalations,
      report->correct_answers, report->mean_on_hold_latency,
      report->mean_processing_latency));
  return d.ExpectDone();
}

JobSession::JobSession(JobSessionConfig config, JobSpec spec,
                       std::vector<int> group_prices, long budget)
    : config_(config),
      spec_(std::move(spec)),
      group_prices_(std::move(group_prices)),
      budget_(budget) {
  // Base prices are a pure function of the plan, so a resumed session
  // (which never calls Post) still knows every task's escalation floor.
  for (size_t g = 0; g < spec_.problem.groups.size(); ++g) {
    task_base_price_.insert(
        task_base_price_.end(),
        static_cast<size_t>(spec_.problem.groups[g].num_tasks),
        group_prices_[g]);
  }
}

StatusOr<JobSession> JobSession::Create(const FleetJobSpec& spec,
                                        const JobSessionConfig& config) {
  HTUNE_ASSIGN_OR_RETURN(JobSpec parsed, ParseJobSpec(spec.spec_text));
  const RepetitionAllocator allocator;
  HTUNE_ASSIGN_OR_RETURN(std::vector<int> prices,
                         allocator.SolvePrices(parsed.problem));
  const long budget =
      spec.ceiling >= 0 ? static_cast<long>(spec.ceiling)
                        : parsed.problem.budget;
  JobSessionConfig resolved = config;
  resolved.seed = JobSeed(spec, parsed);
  return JobSession(resolved, std::move(parsed), std::move(prices), budget);
}

Status JobSession::Post(SharedMarket& market) {
  if (posted_) {
    return FailedPreconditionError("session: tasks already posted");
  }
  posted_ = true;
  for (size_t g = 0; g < spec_.problem.groups.size(); ++g) {
    const TaskGroup& group = spec_.problem.groups[g];
    const std::vector<int> rep_prices(
        static_cast<size_t>(group.repetitions), group_prices_[g]);
    for (int t = 0; t < group.num_tasks; ++t) {
      HTUNE_RETURN_IF_ERROR(
          market
              .PostTask(config_.job_id, rep_prices, group.processing_rate,
                        /*true_answer=*/0, /*num_options=*/2)
              .status());
    }
  }
  return OkStatus();
}

Status JobSession::Review(SharedMarket& market,
                          const PriceRateCurve& diluted) {
  ++reviews_;
  const double now = market.now();
  // Spend moves only on completions and a reprice changes only its own
  // task's price, so no escalation in this pass changes another task's
  // straggler test: testing every task against the state the review began
  // with, then escalating in task-id order, is the id-order walk that
  // reads and reprices one task at a time.
  const bool within_budget = market.TotalSpent(config_.job_id) < budget_;
  for (const SharedMarket::OnHoldTask& task :
       market.OnHoldTasks(config_.job_id)) {
    const double rate = diluted.Rate(static_cast<double>(task.price));
    if (rate <= 0.0) {
      continue;
    }
    // Expected on-hold latency at this price under the current dilution is
    // 1/rate; waiting much longer than that marks a straggler.
    const double waited = now - task.since;
    if (waited <= config_.straggler_factor / rate) {
      continue;
    }
    ++stragglers_;
    const int base = task_base_price_[static_cast<size_t>(task.id) - 1];
    const bool within_cap = task.price - base < config_.max_escalation;
    if (within_cap && within_budget) {
      HTUNE_RETURN_IF_ERROR(
          market.Reprice(config_.job_id, task.id, task.price + 1));
      ++escalations_;
    }
  }
  return OkStatus();
}

SessionReport JobSession::Report(const SharedMarket& market) const {
  SessionReport report;
  report.job_id = config_.job_id;
  report.reviews = reviews_;
  report.stragglers = stragglers_;
  report.escalations = escalations_;
  report.spent = market.TotalSpent(config_.job_id);
  double on_hold_sum = 0.0;
  double processing_sum = 0.0;
  for (const TaskOutcome& outcome :
       market.CompletedOutcomes(config_.job_id)) {
    ++report.tasks;
    for (const RepetitionOutcome& rep : outcome.repetitions) {
      ++report.repetitions;
      if (rep.correct) {
        ++report.correct_answers;
      }
      on_hold_sum += rep.OnHoldLatency();
      processing_sum += rep.ProcessingLatency();
    }
  }
  if (report.repetitions > 0) {
    const double n = static_cast<double>(report.repetitions);
    report.mean_on_hold_latency = on_hold_sum / n;
    report.mean_processing_latency = processing_sum / n;
  }
  return report;
}

std::string JobSession::CaptureCounters() const {
  Encoder e;
  e.PutU32(kSessionCountersVersion);
  PutFields(e, reviews_, stragglers_, escalations_);
  return e.Release();
}

Status JobSession::RestoreCounters(std::string_view bytes) {
  Decoder d(bytes);
  uint32_t version = 0;
  HTUNE_RETURN_IF_ERROR(d.GetU32(&version));
  if (version != kSessionCountersVersion) {
    return InvalidArgumentError("session counters: unsupported version " +
                                std::to_string(version));
  }
  HTUNE_RETURN_IF_ERROR(GetFields(d, reviews_, stragglers_, escalations_));
  return d.ExpectDone();
}

}  // namespace htune
