#include "control/fault_tolerant_executor.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "control/market_metrics.h"
#include "durability/ledger.h"
#include "durability/records.h"
#include "model/latency_cache.h"
#include "obs/obs.h"
#include "durability/serialize.h"
#include "durability/snapshot.h"
#include "tuning/allocation.h"

namespace htune {

namespace {

Status CheckFinitePositive(double value, std::string_view name) {
  if (std::isnan(value)) {
    return InvalidArgumentError("FaultTolerantConfig: " + std::string(name) +
                                " is NaN");
  }
  if (!std::isfinite(value) || value <= 0.0) {
    return InvalidArgumentError("FaultTolerantConfig: " + std::string(name) +
                                " must be positive and finite, got " +
                                std::to_string(value));
  }
  return OkStatus();
}

}  // namespace

Status ValidateFaultTolerantConfig(const FaultTolerantConfig& config) {
  HTUNE_RETURN_IF_ERROR(
      CheckFinitePositive(config.review_interval, "review_interval"));
  if (config.max_reviews < 0) {
    return InvalidArgumentError(
        "FaultTolerantConfig: max_reviews must be >= 0, got " +
        std::to_string(config.max_reviews));
  }
  if (std::isnan(config.straggler_quantile) ||
      config.straggler_quantile <= 0.0 || config.straggler_quantile >= 1.0) {
    return InvalidArgumentError(
        "FaultTolerantConfig: straggler_quantile must lie strictly inside "
        "(0, 1), got " +
        std::to_string(config.straggler_quantile));
  }
  if (config.max_reposts < 0) {
    return InvalidArgumentError(
        "FaultTolerantConfig: max_reposts must be >= 0, got " +
        std::to_string(config.max_reposts));
  }
  if (std::isnan(config.price_escalation)) {
    return InvalidArgumentError(
        "FaultTolerantConfig: price_escalation is NaN");
  }
  if (!std::isfinite(config.price_escalation) ||
      config.price_escalation <= 1.0) {
    return InvalidArgumentError(
        "FaultTolerantConfig: price_escalation must be finite and > 1, got " +
        std::to_string(config.price_escalation));
  }
  if (config.budget < 0) {
    return InvalidArgumentError(
        "FaultTolerantConfig: budget (spend ceiling) must be >= 0, got " +
        std::to_string(config.budget));
  }
  if (std::isnan(config.acceptance_timeout) ||
      !std::isfinite(config.acceptance_timeout) ||
      config.acceptance_timeout < 0.0) {
    return InvalidArgumentError(
        "FaultTolerantConfig: acceptance_timeout must be >= 0 and finite, "
        "got " +
        std::to_string(config.acceptance_timeout));
  }
  if (std::isnan(config.abandonment.prob) || config.abandonment.prob < 0.0 ||
      config.abandonment.prob >= 1.0) {
    return InvalidArgumentError(
        "FaultTolerantConfig: abandonment.prob must lie in [0, 1) — at "
        "prob == 1 every acceptance is abandoned, so the expected hold "
        "chain never ends and no finite effective rate exists; got " +
        std::to_string(config.abandonment.prob));
  }
  if (config.abandonment.prob > 0.0 &&
      !(config.abandonment.hold_rate > 0.0 &&
        std::isfinite(config.abandonment.hold_rate))) {
    return InvalidArgumentError(
        "FaultTolerantConfig: abandonment.hold_rate must be positive and "
        "finite when abandonment.prob > 0, got " +
        std::to_string(config.abandonment.hold_rate));
  }
  HTUNE_RETURN_IF_ERROR(ValidateRetryPolicy(config.market_retry));
  HTUNE_RETURN_IF_ERROR(ValidateCircuitBreakerConfig(config.breaker));
  if (std::isnan(config.time_deadline) ||
      !std::isfinite(config.time_deadline) || config.time_deadline < 0.0) {
    return InvalidArgumentError(
        "FaultTolerantConfig: time_deadline must be >= 0 and finite, got " +
        std::to_string(config.time_deadline));
  }
  return OkStatus();
}

FaultTolerantExecutor::FaultTolerantExecutor(const BudgetAllocator* allocator,
                                             FaultTolerantConfig config)
    : allocator_(allocator), config_(config) {
  HTUNE_CHECK(allocator != nullptr);
}

namespace {

/// Executor-side view of one posted task.
struct TaskState {
  TaskId id = 0;
  size_t group = 0;
  /// Planned payment of every repetition slot; escalations and floor
  /// demotions rewrite the not-yet-accepted suffix.
  std::vector<int> planned;
  /// Escalations applied to the slot that was current when
  /// `counter_completed` repetitions had completed (bounded retries).
  int counter_completed = 0;
  int escalations_this_slot = 0;
  bool floored = false;
  bool done = false;
};

/// Loop-carried executor state. Everything a resumed run needs beyond the
/// market snapshot lives here (and in the BudgetLedger serialized alongside
/// it); `deadline` is stored rather than recomputed because repeated `+=`
/// accumulation is not bitwise equal to `start + n * interval`, and recovery
/// promises bitwise identity.
struct ExecState {
  std::vector<TaskState> tasks;
  long budget = 0;
  double start = 0.0;
  long spent_before = 0;
  double deadline = 0.0;
  int next_review = 0;
  // Report counters accumulated across crash/recover cycles.
  int reviews = 0;
  int stragglers = 0;
  int escalations = 0;
  int floor_repetitions = 0;
  bool degraded = false;
  /// False until the initial allocation has been posted (not serialized:
  /// restoring a snapshot implies it).
  bool initialized = false;  // HTUNE_TRANSIENT: implied true by decode
};

std::string EncodeExecutorState(const ExecState& state,
                                const BudgetLedger& ledger) {
  Encoder encoder;
  encoder.PutI64(state.budget);
  encoder.PutDouble(state.start);
  encoder.PutI64(state.spent_before);
  encoder.PutDouble(state.deadline);
  encoder.PutI32(state.next_review);
  encoder.PutI32(state.reviews);
  encoder.PutI32(state.stragglers);
  encoder.PutI32(state.escalations);
  encoder.PutI32(state.floor_repetitions);
  encoder.PutBool(state.degraded);
  encoder.PutU64(state.tasks.size());
  for (const TaskState& task : state.tasks) {
    encoder.PutU64(task.id);
    encoder.PutU64(task.group);
    encoder.PutI32Vector(task.planned);
    encoder.PutI32(task.counter_completed);
    encoder.PutI32(task.escalations_this_slot);
    encoder.PutBool(task.floored);
    encoder.PutBool(task.done);
  }
  encoder.PutString(ledger.Encode());
  return std::move(encoder).Release();
}

Status DecodeExecutorState(std::string_view bytes, ExecState& state,
                           BudgetLedger& ledger) {
  Decoder decoder(bytes);
  int64_t budget = 0;
  int64_t spent_before = 0;
  HTUNE_RETURN_IF_ERROR(decoder.GetI64(&budget));
  HTUNE_RETURN_IF_ERROR(decoder.GetDouble(&state.start));
  HTUNE_RETURN_IF_ERROR(decoder.GetI64(&spent_before));
  HTUNE_RETURN_IF_ERROR(decoder.GetDouble(&state.deadline));
  HTUNE_RETURN_IF_ERROR(decoder.GetI32(&state.next_review));
  HTUNE_RETURN_IF_ERROR(decoder.GetI32(&state.reviews));
  HTUNE_RETURN_IF_ERROR(decoder.GetI32(&state.stragglers));
  HTUNE_RETURN_IF_ERROR(decoder.GetI32(&state.escalations));
  HTUNE_RETURN_IF_ERROR(decoder.GetI32(&state.floor_repetitions));
  HTUNE_RETURN_IF_ERROR(decoder.GetBool(&state.degraded));
  state.budget = static_cast<long>(budget);
  state.spent_before = static_cast<long>(spent_before);
  uint64_t task_count = 0;
  HTUNE_RETURN_IF_ERROR(decoder.GetU64(&task_count));
  if (task_count > decoder.remaining()) {
    return InvalidArgumentError(
        "executor snapshot: task count exceeds input size");
  }
  state.tasks.clear();
  state.tasks.reserve(static_cast<size_t>(task_count));
  for (uint64_t i = 0; i < task_count; ++i) {
    TaskState task;
    uint64_t group = 0;
    HTUNE_RETURN_IF_ERROR(decoder.GetU64(&task.id));
    HTUNE_RETURN_IF_ERROR(decoder.GetU64(&group));
    HTUNE_RETURN_IF_ERROR(decoder.GetI32Vector(&task.planned));
    HTUNE_RETURN_IF_ERROR(decoder.GetI32(&task.counter_completed));
    HTUNE_RETURN_IF_ERROR(decoder.GetI32(&task.escalations_this_slot));
    HTUNE_RETURN_IF_ERROR(decoder.GetBool(&task.floored));
    HTUNE_RETURN_IF_ERROR(decoder.GetBool(&task.done));
    task.group = static_cast<size_t>(group);
    state.tasks.push_back(std::move(task));
  }
  std::string ledger_bytes;
  HTUNE_RETURN_IF_ERROR(decoder.GetString(&ledger_bytes));
  HTUNE_RETURN_IF_ERROR(decoder.ExpectDone());
  HTUNE_ASSIGN_OR_RETURN(ledger, BudgetLedger::Decode(ledger_bytes));
  state.initialized = true;
  return OkStatus();
}

int CompletedRepetitions(const TaskOutcome& progress) {
  int completed = 0;
  for (const RepetitionOutcome& rep : progress.repetitions) {
    if (rep.completed_time > 0.0) ++completed;
  }
  return completed;
}

/// Cost of the not-yet-accepted slots ([accepted, end) of the plan).
long FutureCost(const TaskState& state, size_t accepted) {
  long cost = 0;
  for (size_t j = accepted; j < state.planned.size(); ++j) {
    cost += state.planned[j];
  }
  return cost;
}

/// Reprices `state`'s open task to `target`, clamping down while the market
/// refuses a rate above its arrival capacity (as AdaptiveRetuner). On
/// success the achieved price is written into the plan's unaccepted suffix
/// and, when `ctx` journals the run, a kReprice record is emitted.
StatusOr<int> RepriceTo(MarketSimulator& market, const PriceRateCurve& curve,
                        TaskState& state, size_t accepted, int target,
                        DurableContext* ctx) {
  HTUNE_OBS_COUNTER_ADD("executor.reprices", 1);
  int attempt = target;
  Status status =
      market.Reprice(state.id, attempt,
                     curve.Rate(static_cast<double>(attempt)));
  while (!status.ok() && status.code() == StatusCode::kFailedPrecondition &&
         attempt > 1) {
    --attempt;
    status = market.Reprice(state.id, attempt,
                            curve.Rate(static_cast<double>(attempt)));
  }
  HTUNE_RETURN_IF_ERROR(status);
  for (size_t j = accepted; j < state.planned.size(); ++j) {
    state.planned[j] = attempt;
  }
  if (ctx != nullptr) {
    HTUNE_RETURN_IF_ERROR(ctx->Emit(
        JournalRecordType::kReprice,
        EncodeRecord(RepriceRecord{
            state.id, attempt,
            static_cast<int64_t>(state.planned.size()) -
                static_cast<int64_t>(accepted)})));
  }
  return attempt;
}

Status EmitCompletion(DurableContext& ctx, const TaskOutcome& outcome) {
  return ctx.Emit(
      JournalRecordType::kCompletion,
      EncodeRecord(CompletionRecord{outcome.id, outcome.completed_time}));
}

/// Per-run resilience state for the market transport: the circuit breaker
/// and the deterministic jitter stream behind `Clear`. With no fault gate
/// installed every call is a free pass and none of this machinery runs, so
/// production configs pay nothing.
class MarketResilience {
 public:
  explicit MarketResilience(const FaultTolerantConfig& config)
      : config_(&config),
        jitter_(config.resilience_seed),
        breaker_(config.breaker) {}

  /// Clears the market transport for operation `op` at simulated time
  /// `now`. Outcomes:
  ///   OK, *admitted = true   — transport is up (possibly after retries);
  ///                            run the real market call;
  ///   OK, *admitted = false  — breaker is open: short-circuited without
  ///                            touching the fault schedule; the caller
  ///                            decides whether the op is skippable;
  ///   kUnavailable           — a transient fault outlasted the whole retry
  ///                            budget (the caller parks or skips);
  ///   other error            — the gate failed permanently.
  Status Clear(double now, std::string_view op, bool* admitted) {
    *admitted = true;
    if (!config_->market_fault_gate) {
      return OkStatus();
    }
    bool open = false;
    const Status status = RetryTransient(
        config_->market_retry, jitter_, [&]() -> Status {
          if (!breaker_.AllowRequest(now)) {
            open = true;
            return OkStatus();  // short-circuit: ends the retry loop
          }
          const Status gated = config_->market_fault_gate(op);
          if (gated.ok()) {
            breaker_.RecordSuccess(now);
          } else if (IsTransient(gated)) {
            breaker_.RecordFailure(now);
          }
          return gated;
        });
    if (open) {
      *admitted = false;
      return OkStatus();
    }
    if (IsTransient(status)) {
      HTUNE_OBS_COUNTER_ADD("resilience.market_retries_exhausted", 1);
    }
    return status;
  }

 private:
  const FaultTolerantConfig* config_;
  SplitMix64 jitter_;
  CircuitBreaker breaker_;
};

/// The closed loop shared by Run and RunDurable. When `ctx` is null the run
/// is not journaled (`ledger` is then unused and may be null); `state` is
/// either fresh (tasks get allocated and posted here) or restored from a
/// snapshot (posting is skipped and the loop resumes mid-run).
StatusOr<FaultTolerantReport> RunJob(
    const BudgetAllocator& allocator, const FaultTolerantConfig& config,
    MarketSimulator& market, const TuningProblem& problem,
    const std::vector<QuestionSpec>& questions, DurableContext* ctx,
    BudgetLedger* ledger, ExecState& state) {
  HTUNE_RETURN_IF_ERROR(ValidateProblem(problem));
  if (questions.size() != static_cast<size_t>(problem.TotalTasks())) {
    return InvalidArgumentError(
        "FaultTolerantExecutor: need one question per atomic task");
  }

  // Allocate against the abandonment-corrected problem so the initial prices
  // already account for wasted attempts.
  const TuningProblem adjusted =
      ProblemWithAbandonment(problem, config.abandonment);

  MarketResilience resilience(config);

  if (!state.initialized) {
    state.budget = config.budget > 0 ? config.budget : problem.budget;
    HTUNE_OBS_SPAN("executor.allocate");
    HTUNE_ASSIGN_OR_RETURN(const Allocation initial,
                           allocator.Allocate(adjusted));
    long initial_cost = 0;
    for (const GroupAllocation& g : initial.groups) {
      for (const std::vector<int>& prices : g.prices) {
        for (int price : prices) initial_cost += price;
      }
    }
    if (initial_cost > state.budget) {
      return InvalidArgumentError(
          "FaultTolerantExecutor: initial allocation costs " +
          std::to_string(initial_cost) + " but the budget is " +
          std::to_string(state.budget));
    }

    state.start = market.now();
    state.spent_before = market.TotalSpent();
    state.deadline = state.start;
    if (ctx != nullptr) {
      HTUNE_RETURN_IF_ERROR(
          ctx->Emit(JournalRecordType::kRunStart,
                    EncodeRecord(RunStartRecord{state.budget,
                                                questions.size()})));
    }

    // Post everything under the initial allocation. Rates sent to the market
    // are the requester's belief about the raw (pre-abandonment) curve; the
    // market applies abandonment itself.
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
        for (int price : prices) {
          spec.per_repetition_rates.push_back(
              group.curve->Rate(static_cast<double>(price)));
        }
        spec.acceptance_timeout = config.acceptance_timeout;
        spec.true_answer = questions[question_index].true_answer;
        spec.num_options = questions[question_index].num_options;
        // Posting is mandatory: a breaker-open short-circuit here is a
        // transport outage the job cannot degrade around, so it parks.
        bool admitted = true;
        HTUNE_RETURN_IF_ERROR(
            resilience.Clear(market.now(), "post", &admitted));
        if (!admitted) {
          return UnavailableError(
              "market transport unavailable (circuit open) while posting "
              "the initial allocation");
        }
        HTUNE_ASSIGN_OR_RETURN(const TaskId id, market.PostTask(spec));
        TaskState task;
        task.id = id;
        task.group = g;
        task.planned = prices;
        if (ctx != nullptr) {
          HTUNE_RETURN_IF_ERROR(
              ctx->Emit(JournalRecordType::kPost,
                        EncodeRecord(PostRecord{id, g, prices})));
        }
        state.tasks.push_back(std::move(task));
      }
    }
    state.initialized = true;
  } else if (state.tasks.size() != questions.size()) {
    return InvalidArgumentError(
        "FaultTolerantExecutor: recovered state has " +
        std::to_string(state.tasks.size()) + " tasks but the problem has " +
        std::to_string(questions.size()));
  }

  const long budget = state.budget;
  const double quantile_factor = -std::log(1.0 - config.straggler_quantile);
  // The completion deadline is recomputed from config + run start rather
  // than serialized: the check sits at the loop top, before any state
  // mutation, and market.now() at iteration entry is identical for the
  // original and any resumed run, so recovery reproduces the same cut.
  const Deadline deadline = config.time_deadline > 0.0
                                ? Deadline::At(state.start +
                                               config.time_deadline)
                                : Deadline::Infinite();
  bool deadline_expired = false;
  for (int review = state.next_review; review < config.max_reviews;
       ++review) {
    if (!deadline.Check(market.now(), "FaultTolerantExecutor review loop")
             .ok()) {
      // Past the deadline: stop escalating (no new spend) and ride the
      // open tasks to completion below at the terms they already have.
      deadline_expired = true;
      break;
    }
    state.next_review = review + 1;
    state.deadline += config.review_interval;
    {
      HTUNE_OBS_SPAN("market.run_until");
      if (market.RunUntil(state.deadline) == 0) {
        break;
      }
    }
    ++state.reviews;
    HTUNE_OBS_SPAN("executor.review");
    HTUNE_OBS_COUNTER_ADD("executor.reviews", 1);
    const double now = market.now();
    const long spent = market.TotalSpent() - state.spent_before;

    // Accounting pass: what the job is already committed to pay (spent plus
    // in-flight promises) and what the current plan would add. Durable runs
    // settle newly completed repetitions into the ledger here, before the
    // done-check, so a task is never marked done with unpaid slots.
    long committed = spent;
    long future = 0;
    std::vector<size_t> accepted_of(state.tasks.size(), 0);
    // Time the currently exposed slot first became available (the previous
    // answer's completion, or the post); < 0 when the task is processing.
    // Abandon/expiry reposts do NOT reset this clock — unlike OnHoldSince —
    // so churn accumulates into a detectable straggler wait.
    std::vector<double> slot_open_since(state.tasks.size(), -1.0);
    for (size_t i = 0; i < state.tasks.size(); ++i) {
      TaskState& task = state.tasks[i];
      if (task.done) continue;
      HTUNE_ASSIGN_OR_RETURN(const TaskOutcome* progress_view,
                             market.GetProgressView(task.id));
      const TaskOutcome& progress = *progress_view;
      const int completed = CompletedRepetitions(progress);
      if (ctx != nullptr) {
        HTUNE_RETURN_IF_ERROR(
            ctx->SettlePayments(*ledger, task.id, progress, completed));
      }
      if (progress.completed_time > 0.0) {
        if (ctx != nullptr) {
          HTUNE_RETURN_IF_ERROR(EmitCompletion(*ctx, progress));
        }
        task.done = true;
        continue;
      }
      if (completed != task.counter_completed) {
        task.counter_completed = completed;
        task.escalations_this_slot = 0;
      }
      const size_t accepted = progress.repetitions.size();
      accepted_of[i] = accepted;
      if (static_cast<int>(accepted) > completed) {
        committed += progress.repetitions.back().price;  // in flight
      } else {
        slot_open_since[i] = progress.repetitions.empty()
                                 ? progress.posted_time
                                 : progress.repetitions.back().completed_time;
      }
      future += FutureCost(task, accepted);
    }
    long planned_total = committed + future;

    // Budget-exhaustion pass: the plan can exceed the ceiling when the
    // configured budget is below the initial allocation's assumption (e.g. a
    // mid-course budget cut between runs) — demote the costliest plans to
    // floor price until the job fits again, and flag partial quality.
    while (planned_total > budget) {
      size_t worst = state.tasks.size();
      long worst_future = 0;
      for (size_t i = 0; i < state.tasks.size(); ++i) {
        if (state.tasks[i].done || state.tasks[i].floored) continue;
        const long task_future = FutureCost(state.tasks[i], accepted_of[i]);
        if (task_future > worst_future) {
          worst_future = task_future;
          worst = i;
        }
      }
      if (worst == state.tasks.size()) break;  // only in-flight promises
      TaskState& task = state.tasks[worst];
      const long slots = static_cast<long>(task.planned.size()) -
                         static_cast<long>(accepted_of[worst]);
      // Demotions protect the spend ceiling, so they are mandatory: a
      // transport outage here parks the run rather than risking overspend.
      bool demote_admitted = true;
      HTUNE_RETURN_IF_ERROR(
          resilience.Clear(now, "reprice.demote", &demote_admitted));
      if (!demote_admitted) {
        return UnavailableError(
            "market transport unavailable (circuit open) during a "
            "mandatory budget demotion");
      }
      HTUNE_ASSIGN_OR_RETURN(
          const int achieved,
          RepriceTo(market, *problem.groups[task.group].curve, task,
                    accepted_of[worst], 1, ctx));
      planned_total += static_cast<long>(achieved) * slots - worst_future;
      task.floored = true;
      state.degraded = true;
      state.floor_repetitions += static_cast<int>(slots);
      HTUNE_OBS_COUNTER_ADD("executor.floor_demotions", 1);
    }

    // Straggler pass.
    for (size_t i = 0; i < state.tasks.size(); ++i) {
      TaskState& task = state.tasks[i];
      if (task.done || task.floored) continue;
      if (slot_open_since[i] < 0.0) continue;  // processing: no wait
      HTUNE_ASSIGN_OR_RETURN(const int price, market.CurrentPrice(task.id));
      const double effective_rate = adjusted.groups[task.group].curve->Rate(
          static_cast<double>(price));
      if (now - slot_open_since[i] <= quantile_factor / effective_rate) {
        continue;
      }
      ++state.stragglers;
      HTUNE_OBS_COUNTER_ADD("executor.stragglers", 1);
      if (task.escalations_this_slot >= config.max_reposts) {
        HTUNE_OBS_COUNTER_ADD("executor.retries_exhausted", 1);
        continue;  // retries exhausted for this slot; let it ride
      }
      const size_t accepted = accepted_of[i];
      const long slots =
          static_cast<long>(task.planned.size()) - static_cast<long>(accepted);
      if (slots <= 0) continue;
      const long task_future = FutureCost(task, accepted);
      const int proposed = std::max(
          price + 1,
          static_cast<int>(
              std::ceil(config.price_escalation * static_cast<double>(price))));
      // Raising every remaining slot of this task to q keeps the job within
      // budget iff planned_total - task_future + slots * q <= budget.
      const long cap = (budget - planned_total + task_future) / slots;
      const int target =
          static_cast<int>(std::min<long>(proposed, cap));
      const PriceRateCurve& believed = *problem.groups[task.group].curve;
      if (target > price) {
        // Escalations are optional spend: when the breaker is open or the
        // transport stays down through the whole retry budget, skip the
        // raise — the slot rides at its current price (floor-price mode)
        // and is reconsidered at the next review.
        bool escalate_admitted = true;
        const Status cleared =
            resilience.Clear(now, "reprice.escalate", &escalate_admitted);
        if (!cleared.ok() && !IsTransient(cleared)) {
          return cleared;
        }
        if (!cleared.ok() || !escalate_admitted) {
          HTUNE_OBS_COUNTER_ADD("resilience.skipped_escalations", 1);
          continue;
        }
        HTUNE_ASSIGN_OR_RETURN(
            const int achieved,
            RepriceTo(market, believed, task, accepted, target, ctx));
        planned_total += static_cast<long>(achieved) * slots - task_future;
        ++state.escalations;
        ++task.escalations_this_slot;
        HTUNE_OBS_COUNTER_ADD("executor.escalations", 1);
      } else {
        // Budget exhausted: no raise is affordable, so this straggler's
        // remaining repetitions ride at the prices already planned — the
        // floor of what the budget allows. The job still finishes; the
        // report carries the partial-quality flag.
        task.floored = true;
        state.degraded = true;
        state.floor_repetitions += static_cast<int>(slots);
      }
    }

    if (ctx != nullptr) {
      HTUNE_RETURN_IF_ERROR(ctx->Emit(
          JournalRecordType::kReviewEnd,
          EncodeRecord(ReviewEndRecord{
              review, now, market.TotalSpent() - state.spent_before})));
      if (ctx->ShouldSnapshot(state.reviews) && !ctx->replaying()) {
        HTUNE_ASSIGN_OR_RETURN(const MarketState market_state,
                               market.CaptureState({}));
        HTUNE_RETURN_IF_ERROR(
            ctx->EmitSnapshot(EncodeMarketState(market_state),
                              EncodeExecutorState(state, *ledger)));
      }
    }
  }

  if (market.OpenTaskCount() > 0) {
    HTUNE_RETURN_IF_ERROR(market.RunToCompletion());
  }

  FaultTolerantReport report;
  report.answers.reserve(state.tasks.size());
  double last_completion = state.start;
  for (TaskState& task : state.tasks) {
    HTUNE_ASSIGN_OR_RETURN(const TaskOutcome* outcome_view,
                           market.GetOutcomeView(task.id));
    const TaskOutcome& outcome = *outcome_view;
    if (ctx != nullptr) {
      // Final settlement: repetitions that finished after the last review
      // (or after the loop broke) are paid and completed here, exactly once.
      HTUNE_RETURN_IF_ERROR(ctx->SettlePayments(
          *ledger, task.id, outcome,
          static_cast<int>(outcome.repetitions.size())));
      if (!task.done) {
        HTUNE_RETURN_IF_ERROR(EmitCompletion(*ctx, outcome));
        task.done = true;
      }
    }
    std::vector<int> answers;
    answers.reserve(outcome.repetitions.size());
    for (const RepetitionOutcome& rep : outcome.repetitions) {
      answers.push_back(rep.answer);
    }
    report.answers.push_back(std::move(answers));
    report.abandoned_attempts += outcome.abandoned_attempts;
    report.expired_posts += outcome.expired_posts;
    last_completion = std::max(last_completion, outcome.completed_time);
  }
  report.latency = last_completion - state.start;
  report.spent = market.TotalSpent() - state.spent_before;
  HTUNE_OBS_GAUGE_SET("executor.spent", static_cast<double>(report.spent));
  HTUNE_OBS_GAUGE_SET("executor.latency", report.latency);
  PublishMarketMetrics(market);
  GlobalLatencyCache().PublishToMetrics();
  report.reviews = state.reviews;
  report.stragglers = state.stragglers;
  report.escalations = state.escalations;
  report.floor_repetitions = state.floor_repetitions;
  report.degraded = state.degraded;
  report.deadline_expired = deadline_expired;

  if (ctx != nullptr) {
    HTUNE_RETURN_IF_ERROR(
        ctx->Emit(JournalRecordType::kRunEnd,
                  EncodeRecord(RunEndRecord{report.spent, report.latency})));
    if (ledger->TotalPaid() != report.spent) {
      return InternalError(
          "FaultTolerantExecutor: ledger total " +
          std::to_string(ledger->TotalPaid()) +
          " != market spend " + std::to_string(report.spent) +
          " -- a payment was lost or double-counted");
    }
    HTUNE_RETURN_IF_ERROR(ctx->Flush());
  }
  return report;
}

}  // namespace

StatusOr<FaultTolerantReport> FaultTolerantExecutor::Run(
    MarketSimulator& market, const TuningProblem& problem,
    const std::vector<QuestionSpec>& questions) const {
  HTUNE_RETURN_IF_ERROR(ValidateFaultTolerantConfig(config_));
  ExecState state;
  return RunJob(*allocator_, config_, market, problem, questions,
                /*ctx=*/nullptr, /*ledger=*/nullptr, state);
}

StatusOr<FaultTolerantReport> FaultTolerantExecutor::RunDurable(
    const MarketConfig& market_config, const TuningProblem& problem,
    const std::vector<QuestionSpec>& questions,
    const DurabilityConfig& durability,
    std::vector<TraceEvent>* final_trace) const {
  HTUNE_RETURN_IF_ERROR(ValidateFaultTolerantConfig(config_));
  HTUNE_ASSIGN_OR_RETURN(DurableContext ctx, DurableContext::Open(durability));
  MarketSimulator market(market_config);
  ExecState state;
  BudgetLedger ledger;
  if (ctx.has_snapshot()) {
    HTUNE_ASSIGN_OR_RETURN(const MarketState market_state,
                           DecodeMarketState(ctx.market_snapshot()));
    HTUNE_RETURN_IF_ERROR(market.RestoreState(market_state, {}));
    HTUNE_RETURN_IF_ERROR(
        DecodeExecutorState(ctx.executor_snapshot(), state, ledger));
  }
  StatusOr<FaultTolerantReport> result = RunJob(
      *allocator_, config_, market, problem, questions, &ctx, &ledger, state);
  if (!result.ok() && IsTransient(result.status())) {
    // Checkpoint-and-park: a transient fault outlasted its retry budget.
    // Every decision up to the fault is journaled, so this is not a crash —
    // the caller reruns RunDurable with the same storage once the fault
    // clears and the run resumes exactly like crash recovery.
    HTUNE_OBS_COUNTER_ADD("resilience.parks", 1);
    // Best-effort flush so the parked journal is durable; a failure here
    // leaves recovery no worse off (appends already reached storage).
    (void)ctx.Flush();
    return Status(StatusCode::kUnavailable,
                  "parked: " + result.status().message() +
                      " -- the journal holds every decision up to the "
                      "fault; rerun RunDurable with the same storage to "
                      "resume");
  }
  HTUNE_RETURN_IF_ERROR(result.status());
  if (final_trace != nullptr) {
    *final_trace = market.trace();
  }
  return std::move(result).value();
}

}  // namespace htune
