#include "control/review_loop.h"

#include <algorithm>
#include <string>

#include "durability/records.h"
#include "durability/snapshot.h"
#include "obs/obs.h"
#include "resilience/policy.h"

namespace htune {

int CompletedRepetitions(const TaskOutcome& progress) {
  int completed = 0;
  for (const RepetitionOutcome& rep : progress.repetitions) {
    if (rep.completed_time > 0.0) ++completed;
  }
  return completed;
}

namespace {

/// Pays `task`'s completed-but-unpaid repetitions and, the first time it is
/// seen finished, marks it done and journals its kCompletion. Unjournaled
/// runs (`ctx` null) only mark it done.
Status Settle(DurableContext* ctx, BudgetLedger* ledger, LoopTask& task,
              const TaskOutcome& progress) {
  if (ctx != nullptr) {
    HTUNE_RETURN_IF_ERROR(ctx->SettlePayments(
        *ledger, task.id, progress, CompletedRepetitions(progress)));
  }
  if (task.done || progress.completed_time <= 0.0) {
    return OkStatus();
  }
  task.done = true;
  if (ctx == nullptr) {
    return OkStatus();
  }
  return ctx->Emit(
      JournalRecordType::kCompletion,
      EncodeRecord(CompletionRecord{task.id, progress.completed_time}));
}

/// Validates, posts the initial allocation on a fresh run, reviews until
/// the cadence, the market or the policy stops it, then runs the job to
/// completion and settles it. `state` is fresh or snapshot-restored.
Status RunLoop(double review_interval, int max_reviews, ReviewPolicy& policy,
               MarketSimulator& market, const TuningProblem& problem,
               const std::vector<QuestionSpec>& questions, DurableContext* ctx,
               BudgetLedger* ledger, const CurveTable& curve_table,
               ReviewLoopState& state) {
  HTUNE_RETURN_IF_ERROR(ValidateProblem(problem));
  if (questions.size() != static_cast<size_t>(problem.TotalTasks())) {
    return InvalidArgumentError(std::string(policy.name()) +
                                ": need one question per atomic task");
  }
  HTUNE_RETURN_IF_ERROR(policy.Prepare(problem, state));

  if (!state.initialized) {
    int64_t run_budget = 0;
    HTUNE_ASSIGN_OR_RETURN(const Allocation initial,
                           policy.Plan(problem, &run_budget));
    state.start = market.now();
    state.spent_before = market.TotalSpent();
    state.deadline = state.start;
    if (ctx != nullptr) {
      HTUNE_RETURN_IF_ERROR(ctx->Emit(
          JournalRecordType::kRunStart,
          EncodeRecord(RunStartRecord{run_budget, questions.size()})));
    }
    state.tasks.reserve(questions.size());
    size_t question_index = 0;
    for (size_t g = 0; g < problem.groups.size(); ++g) {
      const TaskGroup& group = problem.groups[g];
      for (int t = 0; t < group.num_tasks; ++t, ++question_index) {
        const std::vector<int>& prices = initial.groups[g].prices[t];
        TaskSpec spec;
        spec.repetitions = group.repetitions;
        spec.processing_rate = group.processing_rate;
        spec.per_repetition_prices = prices;
        spec.per_repetition_rates.reserve(prices.size());
        // The requester's belief about the raw curve; the market applies
        // abandonment and any true curve itself.
        for (int price : prices) {
          spec.per_repetition_rates.push_back(
              group.curve->Rate(static_cast<double>(price)));
        }
        spec.true_answer = questions[question_index].true_answer;
        spec.num_options = questions[question_index].num_options;
        HTUNE_RETURN_IF_ERROR(policy.PreparePost(market, g, spec));
        HTUNE_ASSIGN_OR_RETURN(const TaskId id, market.PostTask(spec));
        if (ctx != nullptr) {
          HTUNE_RETURN_IF_ERROR(
              ctx->Emit(JournalRecordType::kPost,
                        EncodeRecord(PostRecord{id, g, prices})));
        }
        state.tasks.push_back(LoopTask{id, g, false});
      }
    }
    state.initialized = true;
  } else if (state.tasks.size() != questions.size()) {
    return InvalidArgumentError(
        std::string(policy.name()) + ": recovered state has " +
        std::to_string(state.tasks.size()) + " tasks but the problem has " +
        std::to_string(questions.size()));
  }

  for (int review = state.next_review; review < max_reviews; ++review) {
    if (policy.StopReviewing(state, market.now())) break;
    state.next_review = review + 1;
    state.deadline += review_interval;
    {
      HTUNE_OBS_SPAN("market.run_until");
      if (market.RunUntil(state.deadline) == 0) {
        break;
      }
    }
    ++state.reviews;
    // Settle before the policy decides, so a task is never treated as
    // done with unpaid slots and payments precede this review's reprices.
    for (LoopTask& task : state.tasks) {
      if (task.done) continue;
      HTUNE_ASSIGN_OR_RETURN(const TaskOutcome* progress,
                             market.GetProgressView(task.id));
      HTUNE_RETURN_IF_ERROR(Settle(ctx, ledger, task, *progress));
    }
    const ReviewRound round{market, problem, state, market.now(), ctx};
    HTUNE_RETURN_IF_ERROR(policy.Review(round));
    if (ctx == nullptr) continue;
    HTUNE_RETURN_IF_ERROR(ctx->Emit(
        JournalRecordType::kReviewEnd,
        EncodeRecord(ReviewEndRecord{
            review, round.now, market.TotalSpent() - state.spent_before})));
    if (ctx->ShouldSnapshot(state.reviews) && !ctx->replaying()) {
      HTUNE_ASSIGN_OR_RETURN(const MarketState market_state,
                             market.CaptureState(curve_table));
      Encoder encoder;
      policy.EncodeState(state, encoder);
      encoder.PutString(ledger->Encode());
      HTUNE_RETURN_IF_ERROR(ctx->EmitSnapshot(EncodeMarketState(market_state),
                                              encoder.Release()));
    }
  }

  if (market.OpenTaskCount() > 0) {
    HTUNE_RETURN_IF_ERROR(market.RunToCompletion());
  }

  // Final settlement: repetitions that finished after the last review (or
  // after the loop stopped) are paid and completed here, exactly once.
  double last_completion = state.start;
  for (LoopTask& task : state.tasks) {
    HTUNE_ASSIGN_OR_RETURN(const TaskOutcome* outcome,
                           market.GetOutcomeView(task.id));
    HTUNE_RETURN_IF_ERROR(Settle(ctx, ledger, task, *outcome));
    last_completion = std::max(last_completion, outcome->completed_time);
  }
  const double latency = last_completion - state.start;
  const long spent = market.TotalSpent() - state.spent_before;
  HTUNE_RETURN_IF_ERROR(policy.Finish(market, state, latency, spent));
  if (ctx == nullptr) {
    return OkStatus();
  }
  HTUNE_RETURN_IF_ERROR(ctx->Emit(JournalRecordType::kRunEnd,
                                  EncodeRecord(RunEndRecord{spent, latency})));
  if (ledger->TotalPaid() != spent) {
    return InternalError(std::string(policy.name()) + ": ledger total " +
                         std::to_string(ledger->TotalPaid()) +
                         " != market spend " + std::to_string(spent) +
                         " -- a payment was lost or double-counted");
  }
  return ctx->Flush();
}

}  // namespace

StatusOr<int> ReviewRound::Reprice(TaskId id, int target,
                                   const PriceRateCurve& curve,
                                   int64_t remaining_slots) const {
  int attempt = target;
  Status status =
      market.Reprice(id, attempt, curve.Rate(static_cast<double>(attempt)));
  while (!status.ok() && status.code() == StatusCode::kFailedPrecondition &&
         attempt > 1) {
    --attempt;
    status =
        market.Reprice(id, attempt, curve.Rate(static_cast<double>(attempt)));
  }
  HTUNE_RETURN_IF_ERROR(status);
  if (ctx != nullptr) {
    HTUNE_RETURN_IF_ERROR(
        ctx->Emit(JournalRecordType::kReprice,
                  EncodeRecord(RepriceRecord{id, attempt, remaining_slots})));
  }
  return attempt;
}

Status RunReviewLoop(double review_interval, int max_reviews,
                     ReviewPolicy& policy, MarketSimulator& market,
                     const TuningProblem& problem,
                     const std::vector<QuestionSpec>& questions) {
  ReviewLoopState state;
  return RunLoop(review_interval, max_reviews, policy, market, problem,
                 questions, /*ctx=*/nullptr, /*ledger=*/nullptr,
                 /*curve_table=*/{}, state);
}

Status RunReviewLoopDurable(double review_interval, int max_reviews,
                            ReviewPolicy& policy,
                            const MarketConfig& market_config,
                            const CurveTable& curve_table,
                            const TuningProblem& problem,
                            const std::vector<QuestionSpec>& questions,
                            const DurabilityConfig& durability,
                            std::vector<TraceEvent>* final_trace) {
  HTUNE_ASSIGN_OR_RETURN(DurableContext ctx, DurableContext::Open(durability));
  MarketSimulator market(market_config);
  ReviewLoopState state;
  BudgetLedger ledger;
  if (ctx.has_snapshot()) {
    HTUNE_ASSIGN_OR_RETURN(const MarketState market_state,
                           DecodeMarketState(ctx.market_snapshot()));
    HTUNE_RETURN_IF_ERROR(
        market.RestoreState(market_state, curve_table));
    Decoder decoder(ctx.executor_snapshot());
    std::string ledger_bytes;
    HTUNE_RETURN_IF_ERROR(policy.DecodeState(decoder, state));
    HTUNE_RETURN_IF_ERROR(decoder.GetString(&ledger_bytes));
    HTUNE_RETURN_IF_ERROR(decoder.ExpectDone());
    HTUNE_ASSIGN_OR_RETURN(ledger, BudgetLedger::Decode(ledger_bytes));
    state.initialized = true;
  }
  const Status result =
      RunLoop(review_interval, max_reviews, policy, market, problem,
              questions, &ctx, &ledger, curve_table, state);
  if (IsTransient(result)) {
    // Checkpoint-and-park: a transient fault outlasted its retry budget, but
    // every decision up to it is journaled, so a rerun resumes like crash
    // recovery. The flush is best effort: appends already reached storage.
    HTUNE_OBS_COUNTER_ADD("resilience.parks", 1);
    (void)ctx.Flush();
    return Status(StatusCode::kUnavailable,
                  "parked: " + result.message() +
                      " -- the journal holds every decision up to the "
                      "fault; rerun RunDurable with the same storage to "
                      "resume");
  }
  HTUNE_RETURN_IF_ERROR(result);
  if (final_trace != nullptr) {
    *final_trace = market.trace();
  }
  return OkStatus();
}

}  // namespace htune
