#include "control/fault_tolerant_executor.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>
#include <vector>

#include "common/check.h"
#include "control/market_metrics.h"
#include "control/review_loop.h"
#include "durability/records.h"
#include "obs/obs.h"
#include "tuning/allocation.h"

namespace htune {

namespace {

/// InvalidArgument "FaultTolerantConfig: <what>, got <value>" unless `ok`.
template <typename T>
Status Check(bool ok, std::string_view what, T value) {
  if (ok) {
    return OkStatus();
  }
  return InvalidArgumentError("FaultTolerantConfig: " + std::string(what) +
                              ", got " + std::to_string(value));
}

/// NaN gets its own message; so does anything else outside (lower, +inf).
Status CheckAbove(double value, double lower, std::string_view name,
                  std::string_view requirement) {
  if (std::isnan(value)) {
    return InvalidArgumentError("FaultTolerantConfig: " + std::string(name) +
                                " is NaN");
  }
  return Check(std::isfinite(value) && value > lower,
               std::string(name) + " must be " + std::string(requirement),
               value);
}

bool FiniteNonNegative(double value) {
  return std::isfinite(value) && value >= 0.0;
}

}  // namespace

Status ValidateFaultTolerantConfig(const FaultTolerantConfig& config) {
  HTUNE_RETURN_IF_ERROR(CheckAbove(config.review_interval, 0.0,
                                   "review_interval", "positive and finite"));
  HTUNE_RETURN_IF_ERROR(Check(config.max_reviews >= 0,
                              "max_reviews must be >= 0", config.max_reviews));
  HTUNE_RETURN_IF_ERROR(
      Check(config.straggler_quantile > 0.0 && config.straggler_quantile < 1.0,
            "straggler_quantile must lie strictly inside (0, 1)",
            config.straggler_quantile));
  HTUNE_RETURN_IF_ERROR(Check(config.max_reposts >= 0,
                              "max_reposts must be >= 0", config.max_reposts));
  HTUNE_RETURN_IF_ERROR(CheckAbove(config.price_escalation, 1.0,
                                   "price_escalation", "finite and > 1"));
  HTUNE_RETURN_IF_ERROR(Check(config.budget >= 0,
                              "budget (spend ceiling) must be >= 0",
                              config.budget));
  HTUNE_RETURN_IF_ERROR(Check(FiniteNonNegative(config.acceptance_timeout),
                              "acceptance_timeout must be >= 0 and finite",
                              config.acceptance_timeout));
  if (!(config.abandonment.prob >= 0.0 && config.abandonment.prob < 1.0)) {
    return InvalidArgumentError(
        "FaultTolerantConfig: abandonment.prob must lie in [0, 1) — at "
        "prob == 1 every acceptance is abandoned, so the expected hold "
        "chain never ends and no finite effective rate exists; got " +
        std::to_string(config.abandonment.prob));
  }
  HTUNE_RETURN_IF_ERROR(
      Check(config.abandonment.prob == 0.0 ||
                (config.abandonment.hold_rate > 0.0 &&
                 std::isfinite(config.abandonment.hold_rate)),
            "abandonment.hold_rate must be positive and finite when "
            "abandonment.prob > 0",
            config.abandonment.hold_rate));
  HTUNE_RETURN_IF_ERROR(ValidateRetryPolicy(config.market_retry));
  HTUNE_RETURN_IF_ERROR(ValidateCircuitBreakerConfig(config.breaker));
  return Check(FiniteNonNegative(config.time_deadline),
               "time_deadline must be >= 0 and finite", config.time_deadline);
}

FaultTolerantExecutor::FaultTolerantExecutor(const BudgetAllocator* allocator,
                                             FaultTolerantConfig config)
    : allocator_(allocator), config_(config) {
  HTUNE_CHECK(allocator != nullptr);
}


namespace {

/// The executor's plan for one posted task, parallel to the loop's tasks.
struct TaskState {
  /// Planned payment of every repetition slot; escalations and floor
  /// demotions rewrite the not-yet-accepted suffix.
  std::vector<int> planned;
  /// Escalations applied to the slot that was current when
  /// `counter_completed` repetitions had completed (bounded retries).
  int counter_completed = 0;
  int escalations_this_slot = 0;
  bool floored = false;
};

/// Executor state beyond the review loop's; the report counters accumulate
/// across crash/recover cycles.
struct ExecState {
  std::vector<TaskState> tasks;
  int64_t budget = 0;
  int stragglers = 0;
  int escalations = 0;
  int floor_repetitions = 0;
  bool degraded = false;
};

/// Cost of the not-yet-accepted slots ([accepted, end) of the plan).
long FutureCost(const TaskState& state, size_t accepted) {
  return std::accumulate(
      state.planned.begin() + static_cast<std::ptrdiff_t>(accepted),
      state.planned.end(), 0L);
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

  /// Clear for an operation the job cannot degrade around: an open
  /// breaker is a transport outage, so the run parks (kUnavailable).
  Status Require(double now, std::string_view op, std::string_view during) {
    bool admitted = true;
    HTUNE_RETURN_IF_ERROR(Clear(now, op, &admitted));
    return admitted ? OkStatus()
                    : UnavailableError(
                          "market transport unavailable (circuit open) " +
                          std::string(during));
  }

 private:
  const FaultTolerantConfig* config_;
  SplitMix64 jitter_;
  CircuitBreaker breaker_;
};

/// Straggler escalation within a spend ceiling, as a review-loop policy.
/// Allocation and straggler thresholds use the abandonment-corrected
/// problem, so prices already account for wasted attempts.
class FaultTolerantPolicy final : public ReviewPolicy {
 public:
  FaultTolerantPolicy(const BudgetAllocator& allocator,
                      const FaultTolerantConfig& config,
                      const TuningProblem& problem)
      : allocator_(allocator),
        config_(config),
        resilience_(config),
        adjusted_(ProblemWithAbandonment(problem, config.abandonment)) {}

  const FaultTolerantReport& report() const { return report_; }

  std::string_view name() const override { return "FaultTolerantExecutor"; }

  StatusOr<Allocation> Plan(const TuningProblem& problem,
                            int64_t* run_budget) override {
    state_.budget = config_.budget > 0 ? config_.budget : problem.budget;
    HTUNE_OBS_SPAN("executor.allocate");
    HTUNE_ASSIGN_OR_RETURN(Allocation initial, allocator_.Allocate(adjusted_));
    const long initial_cost = initial.TotalCost();
    if (initial_cost > state_.budget) {
      return InvalidArgumentError(
          "FaultTolerantExecutor: initial allocation costs " +
          std::to_string(initial_cost) + " but the budget is " +
          std::to_string(state_.budget));
    }
    for (const GroupAllocation& group : initial.groups) {
      for (const std::vector<int>& prices : group.prices) {
        state_.tasks.push_back(TaskState{prices});
      }
    }
    *run_budget = state_.budget;
    return initial;
  }

  Status PreparePost(const MarketSimulator& market, size_t /*group*/,
                     TaskSpec& spec) override {
    spec.acceptance_timeout = config_.acceptance_timeout;
    return resilience_.Require(market.now(), "post",
                               "while posting the initial allocation");
  }

  // Recomputed from config + run start, not serialized: the loop asks
  // before any state mutation, when market.now() is the same for the
  // original and any resumed run, so recovery reproduces the same cut.
  bool StopReviewing(const ReviewLoopState& state, double now) override {
    const Deadline deadline =
        config_.time_deadline > 0.0
            ? Deadline::At(state.start + config_.time_deadline)
            : Deadline::Infinite();
    report_.deadline_expired =
        !deadline.Check(now, "FaultTolerantExecutor review loop").ok();
    return report_.deadline_expired;
  }

  Status Review(const ReviewRound& round) override;

  Status Finish(const MarketSimulator& market, const ReviewLoopState& state,
                double latency, long spent) override {
    for (const LoopTask& task : state.tasks) {
      HTUNE_ASSIGN_OR_RETURN(const TaskOutcome* outcome,
                             market.GetOutcomeView(task.id));
      std::vector<int>& answers = report_.answers.emplace_back();
      for (const RepetitionOutcome& rep : outcome->repetitions) {
        answers.push_back(rep.answer);
      }
      report_.abandoned_attempts += outcome->abandoned_attempts;
      report_.expired_posts += outcome->expired_posts;
    }
    report_.latency = latency;
    report_.spent = spent;
    report_.reviews = state.reviews;
    report_.stragglers = state_.stragglers;
    report_.escalations = state_.escalations;
    report_.floor_repetitions = state_.floor_repetitions;
    report_.degraded = state_.degraded;
    HTUNE_OBS_GAUGE_SET("executor.spent", static_cast<double>(spent));
    HTUNE_OBS_GAUGE_SET("executor.latency", latency);
    PublishMarketMetrics(market);
    return OkStatus();
  }

  void EncodeState(const ReviewLoopState& loop,
                   Encoder& encoder) const override;
  Status DecodeState(Decoder& decoder, ReviewLoopState& loop) override;

 private:
  /// Reprices task `i` to `target` and writes the achieved price over its
  /// plan's unaccepted suffix (slots `accepted` on).
  StatusOr<int> Reprice(const ReviewRound& round, size_t i, size_t accepted,
                        int target) {
    HTUNE_OBS_COUNTER_ADD("executor.reprices", 1);
    const LoopTask& posted = round.state.tasks[i];
    std::vector<int>& planned = state_.tasks[i].planned;
    HTUNE_ASSIGN_OR_RETURN(
        const int achieved,
        round.Reprice(posted.id, target,
                      *round.problem.groups[posted.group].curve,
                      static_cast<int64_t>(planned.size() - accepted)));
    std::fill(planned.begin() + static_cast<std::ptrdiff_t>(accepted),
              planned.end(), achieved);
    return achieved;
  }

  const BudgetAllocator& allocator_;
  const FaultTolerantConfig& config_;
  MarketResilience resilience_;
  const TuningProblem adjusted_;
  ExecState state_;
  FaultTolerantReport report_;
};

void FaultTolerantPolicy::EncodeState(const ReviewLoopState& loop,
                                      Encoder& encoder) const {
  PutFields(encoder, state_.budget, loop.start, loop.spent_before,
            loop.deadline, loop.next_review, loop.reviews, state_.stragglers,
            state_.escalations, state_.floor_repetitions, state_.degraded,
            uint64_t{loop.tasks.size()});
  for (size_t i = 0; i < loop.tasks.size(); ++i) {
    const LoopTask& posted = loop.tasks[i];
    const TaskState& task = state_.tasks[i];
    PutFields(encoder, posted.id, uint64_t{posted.group}, task.planned,
              task.counter_completed, task.escalations_this_slot,
              task.floored, posted.done);
  }
}

Status FaultTolerantPolicy::DecodeState(Decoder& decoder,
                                        ReviewLoopState& loop) {
  uint64_t task_count = 0;
  HTUNE_RETURN_IF_ERROR(GetFields(
      decoder, state_.budget, loop.start, loop.spent_before, loop.deadline,
      loop.next_review, loop.reviews, state_.stragglers, state_.escalations,
      state_.floor_repetitions, state_.degraded, task_count));
  if (task_count > decoder.remaining()) {
    return InvalidArgumentError(
        "executor snapshot: task count exceeds input size");
  }
  loop.tasks.assign(static_cast<size_t>(task_count), LoopTask());
  state_.tasks.assign(static_cast<size_t>(task_count), TaskState());
  for (size_t i = 0; i < loop.tasks.size(); ++i) {
    LoopTask& posted = loop.tasks[i];
    TaskState& task = state_.tasks[i];
    uint64_t group = 0;
    HTUNE_RETURN_IF_ERROR(GetFields(decoder, posted.id, group, task.planned,
                                    task.counter_completed,
                                    task.escalations_this_slot, task.floored,
                                    posted.done));
    posted.group = static_cast<size_t>(group);
  }
  return OkStatus();
}

Status FaultTolerantPolicy::Review(const ReviewRound& round) {
  HTUNE_OBS_SPAN("executor.review");
  HTUNE_OBS_COUNTER_ADD("executor.reviews", 1);
  MarketSimulator& market = round.market;
  const std::vector<LoopTask>& posted = round.state.tasks;
  const double now = round.now;
  const long budget = state_.budget;
  const double quantile_factor = -std::log(1.0 - config_.straggler_quantile);

  // Accounting pass: what the job is already committed to pay (spent plus
  // in-flight promises) and what the current plan would add.
  long committed = market.TotalSpent() - round.state.spent_before;
  long future = 0;
  std::vector<size_t> accepted_of(posted.size(), 0);
  // Time the currently exposed slot first became available (the previous
  // answer's completion, or the post); < 0 when the task is processing.
  // Abandon/expiry reposts do NOT reset this clock — unlike OnHoldSince —
  // so churn accumulates into a detectable straggler wait.
  std::vector<double> slot_open_since(posted.size(), -1.0);
  for (size_t i = 0; i < posted.size(); ++i) {
    if (posted[i].done) continue;
    TaskState& task = state_.tasks[i];
    HTUNE_ASSIGN_OR_RETURN(const TaskOutcome* progress_view,
                           market.GetProgressView(posted[i].id));
    const TaskOutcome& progress = *progress_view;
    const int completed = CompletedRepetitions(progress);
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

  // Budget-exhaustion pass: the plan can exceed the ceiling when spend the
  // plan did not foresee lands on the market (e.g. another requester's
  // payments on a shared `Run` market) — demote the costliest plans to
  // floor price until the job fits again, and flag partial quality.
  while (planned_total > budget) {
    size_t worst = posted.size();
    long worst_future = 0;
    for (size_t i = 0; i < posted.size(); ++i) {
      if (posted[i].done || state_.tasks[i].floored) continue;
      const long task_future = FutureCost(state_.tasks[i], accepted_of[i]);
      if (task_future > worst_future) {
        worst_future = task_future;
        worst = i;
      }
    }
    if (worst == posted.size()) break;  // only in-flight promises
    TaskState& task = state_.tasks[worst];
    const long slots = static_cast<long>(task.planned.size()) -
                       static_cast<long>(accepted_of[worst]);
    // Demotions protect the spend ceiling, so they are mandatory: a
    // transport outage here parks the run rather than risking overspend.
    HTUNE_RETURN_IF_ERROR(resilience_.Require(
        now, "reprice.demote", "during a mandatory budget demotion"));
    HTUNE_ASSIGN_OR_RETURN(const int achieved,
                           Reprice(round, worst, accepted_of[worst], 1));
    planned_total += static_cast<long>(achieved) * slots - worst_future;
    task.floored = true;
    state_.degraded = true;
    state_.floor_repetitions += static_cast<int>(slots);
    HTUNE_OBS_COUNTER_ADD("executor.floor_demotions", 1);
  }

  // Straggler pass.
  for (size_t i = 0; i < posted.size(); ++i) {
    TaskState& task = state_.tasks[i];
    if (posted[i].done || task.floored) continue;
    if (slot_open_since[i] < 0.0) continue;  // processing: no wait
    HTUNE_ASSIGN_OR_RETURN(const int price,
                           market.CurrentPrice(posted[i].id));
    const double effective_rate =
        adjusted_.groups[posted[i].group].curve->Rate(
            static_cast<double>(price));
    if (now - slot_open_since[i] <= quantile_factor / effective_rate) {
      continue;
    }
    ++state_.stragglers;
    HTUNE_OBS_COUNTER_ADD("executor.stragglers", 1);
    if (task.escalations_this_slot >= config_.max_reposts) {
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
            std::ceil(config_.price_escalation * static_cast<double>(price))));
    // Raising every remaining slot of this task to q keeps the job within
    // budget iff planned_total - task_future + slots * q <= budget.
    const long cap = (budget - planned_total + task_future) / slots;
    const int target = static_cast<int>(std::min<long>(proposed, cap));
    if (target > price) {
      // Escalations are optional spend: when the breaker is open or the
      // transport stays down through the whole retry budget, skip the
      // raise — the slot rides at its current price (floor-price mode)
      // and is reconsidered at the next review.
      bool escalate_admitted = true;
      const Status cleared =
          resilience_.Clear(now, "reprice.escalate", &escalate_admitted);
      if (!cleared.ok() && !IsTransient(cleared)) {
        return cleared;
      }
      if (!cleared.ok() || !escalate_admitted) {
        HTUNE_OBS_COUNTER_ADD("resilience.skipped_escalations", 1);
        continue;
      }
      HTUNE_ASSIGN_OR_RETURN(const int achieved,
                             Reprice(round, i, accepted, target));
      planned_total += static_cast<long>(achieved) * slots - task_future;
      ++state_.escalations;
      ++task.escalations_this_slot;
      HTUNE_OBS_COUNTER_ADD("executor.escalations", 1);
    } else {
      // Budget exhausted: no raise is affordable, so this straggler's
      // remaining repetitions ride at the prices already planned — the
      // floor of what the budget allows. The job still finishes; the
      // report carries the partial-quality flag.
      task.floored = true;
      state_.degraded = true;
      state_.floor_repetitions += static_cast<int>(slots);
    }
  }
  return OkStatus();
}

}  // namespace

StatusOr<FaultTolerantReport> FaultTolerantExecutor::Run(
    MarketSimulator& market, const TuningProblem& problem,
    const std::vector<QuestionSpec>& questions) const {
  HTUNE_RETURN_IF_ERROR(ValidateFaultTolerantConfig(config_));
  FaultTolerantPolicy policy(*allocator_, config_, problem);
  HTUNE_RETURN_IF_ERROR(RunReviewLoop(config_.review_interval,
                                      config_.max_reviews, policy, market,
                                      problem, questions));
  return policy.report();
}

StatusOr<FaultTolerantReport> FaultTolerantExecutor::RunDurable(
    const MarketConfig& market_config, const TuningProblem& problem,
    const std::vector<QuestionSpec>& questions,
    const DurabilityConfig& durability,
    std::vector<TraceEvent>* final_trace) const {
  HTUNE_RETURN_IF_ERROR(ValidateFaultTolerantConfig(config_));
  FaultTolerantPolicy policy(*allocator_, config_, problem);
  HTUNE_RETURN_IF_ERROR(RunReviewLoopDurable(
      config_.review_interval, config_.max_reviews, policy, market_config,
      /*curve_table=*/{}, problem, questions, durability, final_trace));
  return policy.report();
}

}  // namespace htune
