#include "control/adaptive_retuner.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <utility>

#include "common/check.h"
#include "durability/ledger.h"
#include "durability/records.h"
#include "model/latency_cache.h"
#include "obs/obs.h"
#include "durability/serialize.h"
#include "durability/snapshot.h"
#include "model/price_rate_curve.h"

namespace htune {

AdaptiveRetuner::AdaptiveRetuner(const BudgetAllocator* allocator,
                                 RetunerConfig config)
    : allocator_(allocator), config_(config) {
  HTUNE_CHECK(allocator != nullptr);
  HTUNE_CHECK_GT(config.review_interval, 0.0);
  HTUNE_CHECK_GE(config.max_reviews, 0);
  HTUNE_CHECK_GE(config.min_observations, 1);
  HTUNE_CHECK_GT(config.smoothing, 0.0);
  HTUNE_CHECK_LE(config.smoothing, 1.0);
  HTUNE_CHECK_GE(config.retune_threshold, 0.0);
}

namespace {

struct GroupState {
  std::vector<TaskId> task_ids;
  /// Parallel to task_ids: 1 once the task's kCompletion was journaled
  /// (durable runs only; stays all-zero otherwise).
  std::vector<uint8_t> completed_logged;
  double scale = 1.0;
  int current_price = 1;
};

/// Loop-carried retuner state for checkpoint/restore; see the executor's
/// ExecState for why `deadline` is stored rather than recomputed.
struct RetunerState {
  std::vector<GroupState> groups;
  double start = 0.0;
  long spent_before = 0;
  double deadline = 0.0;
  int next_review = 0;
  int reviews = 0;
  int retunes = 0;
  bool initialized = false;  // HTUNE_TRANSIENT: implied true by decode
};

std::string EncodeRetunerState(const RetunerState& state,
                               const BudgetLedger& ledger) {
  Encoder encoder;
  encoder.PutDouble(state.start);
  encoder.PutI64(state.spent_before);
  encoder.PutDouble(state.deadline);
  encoder.PutI32(state.next_review);
  encoder.PutI32(state.reviews);
  encoder.PutI32(state.retunes);
  encoder.PutU64(state.groups.size());
  for (const GroupState& group : state.groups) {
    encoder.PutU64(group.task_ids.size());
    for (TaskId id : group.task_ids) encoder.PutU64(id);
    for (uint8_t logged : group.completed_logged) encoder.PutU8(logged);
    encoder.PutDouble(group.scale);
    encoder.PutI32(group.current_price);
  }
  encoder.PutString(ledger.Encode());
  return std::move(encoder).Release();
}

Status DecodeRetunerState(std::string_view bytes, RetunerState& state,
                          BudgetLedger& ledger) {
  Decoder decoder(bytes);
  int64_t spent_before = 0;
  HTUNE_RETURN_IF_ERROR(decoder.GetDouble(&state.start));
  HTUNE_RETURN_IF_ERROR(decoder.GetI64(&spent_before));
  HTUNE_RETURN_IF_ERROR(decoder.GetDouble(&state.deadline));
  HTUNE_RETURN_IF_ERROR(decoder.GetI32(&state.next_review));
  HTUNE_RETURN_IF_ERROR(decoder.GetI32(&state.reviews));
  HTUNE_RETURN_IF_ERROR(decoder.GetI32(&state.retunes));
  state.spent_before = static_cast<long>(spent_before);
  uint64_t group_count = 0;
  HTUNE_RETURN_IF_ERROR(decoder.GetU64(&group_count));
  if (group_count > decoder.remaining()) {
    return InvalidArgumentError(
        "retuner snapshot: group count exceeds input size");
  }
  state.groups.clear();
  state.groups.reserve(static_cast<size_t>(group_count));
  for (uint64_t g = 0; g < group_count; ++g) {
    GroupState group;
    uint64_t task_count = 0;
    HTUNE_RETURN_IF_ERROR(decoder.GetU64(&task_count));
    if (task_count * 8 > decoder.remaining()) {
      return InvalidArgumentError(
          "retuner snapshot: task count exceeds input size");
    }
    group.task_ids.resize(static_cast<size_t>(task_count));
    for (TaskId& id : group.task_ids) {
      HTUNE_RETURN_IF_ERROR(decoder.GetU64(&id));
    }
    group.completed_logged.resize(static_cast<size_t>(task_count));
    for (uint8_t& logged : group.completed_logged) {
      HTUNE_RETURN_IF_ERROR(decoder.GetU8(&logged));
    }
    HTUNE_RETURN_IF_ERROR(decoder.GetDouble(&group.scale));
    HTUNE_RETURN_IF_ERROR(decoder.GetI32(&group.current_price));
    state.groups.push_back(std::move(group));
  }
  std::string ledger_bytes;
  HTUNE_RETURN_IF_ERROR(decoder.GetString(&ledger_bytes));
  HTUNE_RETURN_IF_ERROR(decoder.ExpectDone());
  HTUNE_ASSIGN_OR_RETURN(ledger, BudgetLedger::Decode(ledger_bytes));
  state.initialized = true;
  return OkStatus();
}

// Censored-free MLE of the multiplicative gap between the market's real
// rates and the assumed curve: events / sum(latency * assumed_rate).
struct ScaleEstimate {
  int events = 0;
  double exposure = 0.0;
  double Value() const { return static_cast<double>(events) / exposure; }
};

/// Journals and ledgers the payments for every completed-but-unpaid
/// repetition of one task, plus its completion record the first time the
/// task is seen finished.
Status SettleTask(DurableContext& ctx, BudgetLedger& ledger, TaskId id,
                  const TaskOutcome& progress, uint8_t& completed_logged) {
  int completed = 0;
  for (const RepetitionOutcome& rep : progress.repetitions) {
    if (rep.completed_time > 0.0) ++completed;
  }
  HTUNE_RETURN_IF_ERROR(ctx.SettlePayments(ledger, id, progress, completed));
  if (progress.completed_time > 0.0 && completed_logged == 0) {
    HTUNE_RETURN_IF_ERROR(ctx.Emit(
        JournalRecordType::kCompletion,
        EncodeRecord(CompletionRecord{id, progress.completed_time})));
    completed_logged = 1;
  }
  return OkStatus();
}

/// The retuning loop shared by Run and RunDurable; `ctx`/`ledger` are null
/// for plain runs, and `state` is fresh or snapshot-restored.
StatusOr<RetunerReport> RunJob(const BudgetAllocator& allocator,
                               const RetunerConfig& config,
                               MarketSimulator& market,
                               const TuningProblem& problem,
                               const std::vector<QuestionSpec>& questions,
                               DurableContext* ctx, BudgetLedger* ledger,
                               RetunerState& state) {
  HTUNE_RETURN_IF_ERROR(ValidateProblem(problem));
  if (questions.size() != static_cast<size_t>(problem.TotalTasks())) {
    return InvalidArgumentError(
        "AdaptiveRetuner: need one question per atomic task");
  }
  if (!config.market_truth_per_group.empty() &&
      config.market_truth_per_group.size() != problem.groups.size()) {
    return InvalidArgumentError(
        "AdaptiveRetuner: market_truth_per_group must match group count");
  }

  if (!state.initialized) {
    HTUNE_ASSIGN_OR_RETURN(const Allocation initial,
                           allocator.Allocate(problem));
    state.start = market.now();
    state.spent_before = market.TotalSpent();
    state.deadline = state.start;
    state.groups.assign(problem.groups.size(), GroupState());
    if (ctx != nullptr) {
      HTUNE_RETURN_IF_ERROR(
          ctx->Emit(JournalRecordType::kRunStart,
                    EncodeRecord(RunStartRecord{problem.budget,
                                                questions.size()})));
    }

    // Post everything under the initial allocation.
    size_t question_index = 0;
    for (size_t g = 0; g < problem.groups.size(); ++g) {
      const TaskGroup& group = problem.groups[g];
      state.groups[g].current_price = initial.groups[g].prices[0][0];
      for (int t = 0; t < group.num_tasks; ++t, ++question_index) {
        const std::vector<int>& prices = initial.groups[g].prices[t];
        TaskSpec spec;
        spec.repetitions = group.repetitions;
        spec.processing_rate = group.processing_rate;
        spec.per_repetition_prices = prices;
        spec.per_repetition_rates.reserve(prices.size());
        for (int price : prices) {
          // The requester's belief; overridden by the market's true curve
          // when one is configured.
          spec.per_repetition_rates.push_back(
              group.curve->Rate(static_cast<double>(price)));
        }
        spec.true_answer = questions[question_index].true_answer;
        spec.num_options = questions[question_index].num_options;
        if (!config.market_truth_per_group.empty()) {
          spec.true_curve = config.market_truth_per_group[g];
        }
        HTUNE_ASSIGN_OR_RETURN(const TaskId id, market.PostTask(spec));
        if (ctx != nullptr) {
          HTUNE_RETURN_IF_ERROR(
              ctx->Emit(JournalRecordType::kPost,
                        EncodeRecord(PostRecord{id, g, prices})));
        }
        state.groups[g].task_ids.push_back(id);
        state.groups[g].completed_logged.push_back(0);
      }
    }
    state.initialized = true;
  } else if (state.groups.size() != problem.groups.size()) {
    return InvalidArgumentError(
        "AdaptiveRetuner: recovered state has " +
        std::to_string(state.groups.size()) + " groups but the problem has " +
        std::to_string(problem.groups.size()));
  }

  for (int review = state.next_review; review < config.max_reviews;
       ++review) {
    state.next_review = review + 1;
    state.deadline += config.review_interval;
    {
      HTUNE_OBS_SPAN("market.run_until");
      if (market.RunUntil(state.deadline) == 0) {
        break;
      }
    }
    ++state.reviews;
    HTUNE_OBS_SPAN("retuner.review");
    HTUNE_OBS_COUNTER_ADD("retuner.reviews", 1);

    // 1. Re-estimate each group's scale from observed acceptances. The
    // estimate is the censored MLE: completed waits contribute an event and
    // their assumed-rate exposure; a repetition still waiting for a worker
    // contributes its elapsed exposure with no event. Dropping the censored
    // term would bias the scale upward badly — short waits complete first.
    bool drifted = false;
    const double now = market.now();
    {
      HTUNE_OBS_SPAN("retuner.scale_estimation");
      for (size_t g = 0; g < state.groups.size(); ++g) {
        GroupState& group = state.groups[g];
        ScaleEstimate estimate;
        for (size_t t = 0; t < group.task_ids.size(); ++t) {
          const TaskId id = group.task_ids[t];
          HTUNE_ASSIGN_OR_RETURN(const TaskOutcome* progress_view,
                                 market.GetProgressView(id));
          const TaskOutcome& progress = *progress_view;
          if (ctx != nullptr) {
            HTUNE_RETURN_IF_ERROR(SettleTask(*ctx, *ledger, id, progress,
                                             group.completed_logged[t]));
          }
          for (const RepetitionOutcome& rep : progress.repetitions) {
            ++estimate.events;
            estimate.exposure +=
                rep.OnHoldLatency() *
                problem.groups[g].curve->Rate(static_cast<double>(rep.price));
          }
          if (progress.completed_time > 0.0) {
            continue;  // no active wait
          }
          // Censored wait in progress: it started when the task was posted
          // (no acceptances yet) or when the last answer came back and the
          // next repetition was exposed.
          double wait_start = -1.0;
          if (progress.repetitions.empty()) {
            wait_start = progress.posted_time;
          } else if (progress.repetitions.back().completed_time > 0.0 &&
                     static_cast<int>(progress.repetitions.size()) <
                         problem.groups[g].repetitions) {
            wait_start = progress.repetitions.back().completed_time;
          }  // else: the current repetition is being processed, not waiting
          if (wait_start >= 0.0 && now > wait_start) {
            estimate.exposure +=
                (now - wait_start) *
                problem.groups[g].curve->Rate(
                    static_cast<double>(group.current_price));
          }
        }
        if (estimate.events < config.min_observations ||
            estimate.exposure <= 0.0) {
          continue;
        }
        const double fresh = estimate.Value();
        if (std::abs(fresh - group.scale) >
            config.retune_threshold * group.scale) {
          group.scale = config.smoothing * fresh +
                        (1.0 - config.smoothing) * group.scale;
          drifted = true;
        }
      }
    }

    // 2 + 3. Re-solve the remaining problem under the rescaled curves and
    // reprice open tasks in place.
    if (drifted) {
      HTUNE_OBS_SPAN("retuner.reallocation");
      HTUNE_OBS_COUNTER_ADD("retuner.retunes", 1);
      TuningProblem remaining;
      std::vector<size_t> remaining_to_group;
      std::vector<std::vector<TaskId>> open_ids_per_group(
          state.groups.size());
      long committed = 0;  // accepted-but-unpaid repetitions
      for (size_t g = 0; g < state.groups.size(); ++g) {
        int open_tasks = 0;
        long total_remaining = 0;
        for (const TaskId id : state.groups[g].task_ids) {
          HTUNE_ASSIGN_OR_RETURN(const TaskOutcome* progress_view,
                                 market.GetProgressView(id));
          const TaskOutcome& progress = *progress_view;
          if (progress.completed_time > 0.0) {
            continue;  // task already done
          }
          ++open_tasks;
          open_ids_per_group[g].push_back(id);
          for (const RepetitionOutcome& rep : progress.repetitions) {
            if (rep.completed_time <= 0.0) {
              committed += rep.price;  // in flight, promise stands
            }
          }
          // The in-flight repetition finishes on its own; only unexposed
          // repetitions are retunable.
          total_remaining += problem.groups[g].repetitions -
                             static_cast<int>(progress.repetitions.size());
        }
        if (open_tasks == 0 || total_remaining == 0) {
          continue;
        }
        TaskGroup g_remaining = problem.groups[g];
        g_remaining.num_tasks = open_tasks;
        // Average remaining repetitions, rounded up: matches the group's
        // real residual cost closely so the reallocation spends what is
        // available (a max across tasks would overestimate the cost and
        // under-spend).
        g_remaining.repetitions = static_cast<int>(
            (total_remaining + open_tasks - 1) / open_tasks);
        const double scale = state.groups[g].scale;
        const PriceRateCurve* base = problem.groups[g].curve.get();
        const std::shared_ptr<const PriceRateCurve> believed =
            problem.groups[g].curve;
        g_remaining.curve = std::make_shared<FunctionCurve>(
            [believed, scale](double p) { return scale * believed->Rate(p); },
            base->Name() + " x" + std::to_string(scale));
        remaining.groups.push_back(std::move(g_remaining));
        remaining_to_group.push_back(g);
      }
      if (!remaining.groups.empty()) {
        const long spent = market.TotalSpent() - state.spent_before;
        remaining.budget = problem.budget - spent - committed;
        if (remaining.budget >= remaining.MinimumBudget()) {
          const auto realloc = allocator.Allocate(remaining);
          if (realloc.ok()) {
            bool any_repriced = false;
            for (size_t r = 0; r < remaining.groups.size(); ++r) {
              const size_t g = remaining_to_group[r];
              int price = realloc->groups[r].prices[0][0];
              if (price == state.groups[g].current_price) {
                continue;
              }
              for (const TaskId id : open_ids_per_group[g]) {
                int attempt = price;
                Status status = market.Reprice(
                    id, attempt,
                    remaining.groups[r].curve->Rate(
                        static_cast<double>(attempt)));
                while (!status.ok() &&
                       status.code() == StatusCode::kFailedPrecondition &&
                       attempt > 1) {
                  --attempt;
                  status = market.Reprice(
                      id, attempt,
                      remaining.groups[r].curve->Rate(
                          static_cast<double>(attempt)));
                }
                HTUNE_RETURN_IF_ERROR(status);
                if (ctx != nullptr) {
                  // Remaining slots are not tracked here.
                  HTUNE_RETURN_IF_ERROR(ctx->Emit(
                      JournalRecordType::kReprice,
                      EncodeRecord(RepriceRecord{id, attempt, 0})));
                }
                price = attempt;
              }
              state.groups[g].current_price = price;
              any_repriced = true;
            }
            if (any_repriced) {
              ++state.retunes;
            }
          }
        }
      }
    }

    if (ctx != nullptr) {
      HTUNE_RETURN_IF_ERROR(ctx->Emit(
          JournalRecordType::kReviewEnd,
          EncodeRecord(ReviewEndRecord{
              review, now, market.TotalSpent() - state.spent_before})));
      if (ctx->ShouldSnapshot(state.reviews) && !ctx->replaying()) {
        HTUNE_ASSIGN_OR_RETURN(
            const MarketState market_state,
            market.CaptureState(config.market_truth_per_group));
        HTUNE_RETURN_IF_ERROR(
            ctx->EmitSnapshot(EncodeMarketState(market_state),
                              EncodeRetunerState(state, *ledger)));
      }
    }
  }

  if (market.OpenTaskCount() > 0) {
    HTUNE_RETURN_IF_ERROR(market.RunToCompletion());
  }

  RetunerReport report;
  report.reviews = state.reviews;
  report.retunes = state.retunes;
  double last_completion = state.start;
  for (size_t g = 0; g < state.groups.size(); ++g) {
    GroupState& group = state.groups[g];
    report.final_scale.push_back(group.scale);
    report.final_prices.push_back(group.current_price);
    for (size_t t = 0; t < group.task_ids.size(); ++t) {
      HTUNE_ASSIGN_OR_RETURN(const TaskOutcome* outcome_view,
                             market.GetOutcomeView(group.task_ids[t]));
      const TaskOutcome& outcome = *outcome_view;
      if (ctx != nullptr) {
        HTUNE_RETURN_IF_ERROR(SettleTask(*ctx, *ledger, group.task_ids[t],
                                         outcome,
                                         group.completed_logged[t]));
      }
      last_completion = std::max(last_completion, outcome.completed_time);
    }
  }
  report.latency = last_completion - state.start;
  report.spent = market.TotalSpent() - state.spent_before;
  HTUNE_OBS_GAUGE_SET("retuner.spent", static_cast<double>(report.spent));
  HTUNE_OBS_GAUGE_SET("retuner.latency", report.latency);
  GlobalLatencyCache().PublishToMetrics();

  if (ctx != nullptr) {
    HTUNE_RETURN_IF_ERROR(
        ctx->Emit(JournalRecordType::kRunEnd,
                  EncodeRecord(RunEndRecord{report.spent, report.latency})));
    if (ledger->TotalPaid() != report.spent) {
      return InternalError("AdaptiveRetuner: ledger total " +
                           std::to_string(ledger->TotalPaid()) +
                           " != market spend " + std::to_string(report.spent) +
                           " -- a payment was lost or double-counted");
    }
    HTUNE_RETURN_IF_ERROR(ctx->Flush());
  }
  return report;
}

}  // namespace

StatusOr<RetunerReport> AdaptiveRetuner::Run(
    MarketSimulator& market, const TuningProblem& problem,
    const std::vector<QuestionSpec>& questions) const {
  RetunerState state;
  return RunJob(*allocator_, config_, market, problem, questions,
                /*ctx=*/nullptr, /*ledger=*/nullptr, state);
}

StatusOr<RetunerReport> AdaptiveRetuner::RunDurable(
    const MarketConfig& market_config, const TuningProblem& problem,
    const std::vector<QuestionSpec>& questions,
    const DurabilityConfig& durability,
    std::vector<TraceEvent>* final_trace) const {
  HTUNE_ASSIGN_OR_RETURN(DurableContext ctx, DurableContext::Open(durability));
  MarketSimulator market(market_config);
  RetunerState state;
  BudgetLedger ledger;
  if (ctx.has_snapshot()) {
    HTUNE_ASSIGN_OR_RETURN(const MarketState market_state,
                           DecodeMarketState(ctx.market_snapshot()));
    HTUNE_RETURN_IF_ERROR(
        market.RestoreState(market_state, config_.market_truth_per_group));
    HTUNE_RETURN_IF_ERROR(
        DecodeRetunerState(ctx.executor_snapshot(), state, ledger));
  }
  HTUNE_ASSIGN_OR_RETURN(
      RetunerReport report,
      RunJob(*allocator_, config_, market, problem, questions, &ctx, &ledger,
             state));
  if (final_trace != nullptr) {
    *final_trace = market.trace();
  }
  return report;
}

}  // namespace htune
