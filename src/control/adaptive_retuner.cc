#include "control/adaptive_retuner.h"

#include <cmath>
#include <memory>
#include <string>
#include <utility>

#include "common/check.h"
#include "control/review_loop.h"
#include "durability/records.h"
#include "model/price_rate_curve.h"
#include "obs/obs.h"

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

/// The retuner's belief about one group's market.
struct GroupState {
  double scale = 1.0;
  int current_price = 1;
};

/// Retuner state beyond the review loop's.
struct RetunerState {
  std::vector<GroupState> groups;
  int retunes = 0;
};

// Censored-free MLE of the multiplicative gap between the market's real
// rates and the assumed curve: events / sum(latency * assumed_rate).
struct ScaleEstimate {
  int events = 0;
  double exposure = 0.0;
  double Value() const { return static_cast<double>(events) / exposure; }
};

/// Online re-estimation and reallocation, as a review-loop policy.
class RetunerPolicy final : public ReviewPolicy {
 public:
  RetunerPolicy(const BudgetAllocator& allocator, const RetunerConfig& config)
      : allocator_(allocator), config_(config) {}

  const RetunerReport& report() const { return report_; }

  std::string_view name() const override { return "AdaptiveRetuner"; }

  Status Prepare(const TuningProblem& problem,
                 const ReviewLoopState& state) override {
    if (!config_.market_truth_per_group.empty() &&
        config_.market_truth_per_group.size() != problem.groups.size()) {
      return InvalidArgumentError(
          "AdaptiveRetuner: market_truth_per_group must match group count");
    }
    if (state.initialized && state_.groups.size() != problem.groups.size()) {
      return InvalidArgumentError(
          "AdaptiveRetuner: recovered state has " +
          std::to_string(state_.groups.size()) +
          " groups but the problem has " +
          std::to_string(problem.groups.size()));
    }
    return OkStatus();
  }

  StatusOr<Allocation> Plan(const TuningProblem& problem,
                            int64_t* run_budget) override {
    HTUNE_ASSIGN_OR_RETURN(Allocation initial, allocator_.Allocate(problem));
    state_.groups.assign(problem.groups.size(), GroupState());
    for (size_t g = 0; g < problem.groups.size(); ++g) {
      state_.groups[g].current_price = initial.groups[g].prices[0][0];
    }
    *run_budget = problem.budget;
    return initial;
  }

  Status PreparePost(const MarketSimulator& /*market*/, size_t group,
                     TaskSpec& spec) override {
    if (!config_.market_truth_per_group.empty()) {
      spec.true_curve = config_.market_truth_per_group[group];
    }
    return OkStatus();
  }

  Status Review(const ReviewRound& round) override;

  Status Finish(const MarketSimulator& /*market*/,
                const ReviewLoopState& state,
                double latency, long spent) override {
    report_.reviews = state.reviews;
    report_.retunes = state_.retunes;
    for (const GroupState& group : state_.groups) {
      report_.final_scale.push_back(group.scale);
      report_.final_prices.push_back(group.current_price);
    }
    report_.latency = latency;
    report_.spent = spent;
    HTUNE_OBS_GAUGE_SET("retuner.spent", static_cast<double>(report_.spent));
    HTUNE_OBS_GAUGE_SET("retuner.latency", report_.latency);
    return OkStatus();
  }

  void EncodeState(const ReviewLoopState& loop,
                   Encoder& encoder) const override;
  Status DecodeState(Decoder& decoder, ReviewLoopState& loop) override;

 private:
  /// Step 1: re-estimates every group's scale; true when one drifted.
  StatusOr<bool> EstimateScales(const ReviewRound& round);
  /// Steps 2 + 3: re-solves the remaining problem and reprices open tasks.
  Status Reallocate(const ReviewRound& round);

  const BudgetAllocator& allocator_;
  const RetunerConfig& config_;
  RetunerState state_;
  RetunerReport report_;
};

/// The loop's tasks are posted group-major, so each group's are one run.
void RetunerPolicy::EncodeState(const ReviewLoopState& loop,
                                Encoder& encoder) const {
  PutFields(encoder, loop.start, loop.spent_before, loop.deadline,
            loop.next_review, loop.reviews, state_.retunes,
            uint64_t{state_.groups.size()});
  size_t begin = 0;
  for (size_t g = 0; g < state_.groups.size(); ++g) {
    size_t end = begin;
    while (end < loop.tasks.size() && loop.tasks[end].group == g) ++end;
    encoder.PutU64(end - begin);
    for (size_t i = begin; i < end; ++i) encoder.PutU64(loop.tasks[i].id);
    for (size_t i = begin; i < end; ++i) encoder.PutBool(loop.tasks[i].done);
    PutFields(encoder, state_.groups[g].scale, state_.groups[g].current_price);
    begin = end;
  }
}

Status RetunerPolicy::DecodeState(Decoder& decoder, ReviewLoopState& loop) {
  uint64_t group_count = 0;
  HTUNE_RETURN_IF_ERROR(GetFields(decoder, loop.start, loop.spent_before,
                                  loop.deadline, loop.next_review,
                                  loop.reviews, state_.retunes, group_count));
  if (group_count > decoder.remaining()) {
    return InvalidArgumentError(
        "retuner snapshot: group count exceeds input size");
  }
  loop.tasks.clear();
  state_.groups.assign(static_cast<size_t>(group_count), GroupState());
  for (size_t g = 0; g < state_.groups.size(); ++g) {
    uint64_t task_count = 0;
    HTUNE_RETURN_IF_ERROR(decoder.GetU64(&task_count));
    if (task_count * 8 > decoder.remaining()) {
      return InvalidArgumentError(
          "retuner snapshot: task count exceeds input size");
    }
    const size_t begin = loop.tasks.size();
    loop.tasks.resize(begin + static_cast<size_t>(task_count), LoopTask{0, g});
    for (size_t i = begin; i < loop.tasks.size(); ++i) {
      HTUNE_RETURN_IF_ERROR(decoder.GetU64(&loop.tasks[i].id));
    }
    for (size_t i = begin; i < loop.tasks.size(); ++i) {
      HTUNE_RETURN_IF_ERROR(decoder.GetBool(&loop.tasks[i].done));
    }
    HTUNE_RETURN_IF_ERROR(GetFields(decoder, state_.groups[g].scale,
                                    state_.groups[g].current_price));
  }
  return OkStatus();
}

Status RetunerPolicy::Review(const ReviewRound& round) {
  HTUNE_OBS_SPAN("retuner.review");
  HTUNE_OBS_COUNTER_ADD("retuner.reviews", 1);
  HTUNE_ASSIGN_OR_RETURN(const bool drifted, EstimateScales(round));
  return drifted ? Reallocate(round) : OkStatus();
}

// The estimate is the censored MLE: completed waits contribute an event and
// their assumed-rate exposure; a repetition still waiting for a worker
// contributes its elapsed exposure with no event. Dropping the censored
// term would bias the scale upward badly — short waits complete first.
StatusOr<bool> RetunerPolicy::EstimateScales(const ReviewRound& round) {
  HTUNE_OBS_SPAN("retuner.scale_estimation");
  const TuningProblem& problem = round.problem;
  const double now = round.now;
  std::vector<ScaleEstimate> estimates(state_.groups.size());
  for (const LoopTask& task : round.state.tasks) {
    const TaskGroup& group = problem.groups[task.group];
    ScaleEstimate& estimate = estimates[task.group];
    HTUNE_ASSIGN_OR_RETURN(const TaskOutcome* progress_view,
                           round.market.GetProgressView(task.id));
    const TaskOutcome& progress = *progress_view;
    for (const RepetitionOutcome& rep : progress.repetitions) {
      ++estimate.events;
      estimate.exposure += rep.OnHoldLatency() *
                           group.curve->Rate(static_cast<double>(rep.price));
    }
    if (progress.completed_time > 0.0) {
      continue;  // no active wait
    }
    // Censored wait in progress: it started when the task was posted (no
    // acceptances yet) or when the last answer came back and the next
    // repetition was exposed.
    double wait_start = -1.0;
    if (progress.repetitions.empty()) {
      wait_start = progress.posted_time;
    } else if (progress.repetitions.back().completed_time > 0.0 &&
               static_cast<int>(progress.repetitions.size()) <
                   group.repetitions) {
      wait_start = progress.repetitions.back().completed_time;
    }  // else: the current repetition is being processed, not waiting
    if (wait_start >= 0.0 && now > wait_start) {
      estimate.exposure +=
          (now - wait_start) *
          group.curve->Rate(
              static_cast<double>(state_.groups[task.group].current_price));
    }
  }
  bool drifted = false;
  for (size_t g = 0; g < state_.groups.size(); ++g) {
    const ScaleEstimate& estimate = estimates[g];
    GroupState& group = state_.groups[g];
    if (estimate.events < config_.min_observations ||
        estimate.exposure <= 0.0) {
      continue;
    }
    const double fresh = estimate.Value();
    if (std::abs(fresh - group.scale) >
        config_.retune_threshold * group.scale) {
      group.scale =
          config_.smoothing * fresh + (1.0 - config_.smoothing) * group.scale;
      drifted = true;
    }
  }
  return drifted;
}

Status RetunerPolicy::Reallocate(const ReviewRound& round) {
  HTUNE_OBS_SPAN("retuner.reallocation");
  HTUNE_OBS_COUNTER_ADD("retuner.retunes", 1);
  const TuningProblem& problem = round.problem;
  const size_t num_groups = state_.groups.size();
  std::vector<std::vector<TaskId>> open_ids_per_group(num_groups);
  // Repetitions not yet exposed, per group. The in-flight repetition
  // finishes on its own; only unexposed repetitions are retunable.
  std::vector<long> unexposed(num_groups, 0);
  long committed = 0;  // accepted-but-unpaid repetitions
  for (const LoopTask& task : round.state.tasks) {
    HTUNE_ASSIGN_OR_RETURN(const TaskOutcome* progress_view,
                           round.market.GetProgressView(task.id));
    const TaskOutcome& progress = *progress_view;
    if (progress.completed_time > 0.0) {
      continue;  // task already done
    }
    open_ids_per_group[task.group].push_back(task.id);
    for (const RepetitionOutcome& rep : progress.repetitions) {
      if (rep.completed_time <= 0.0) {
        committed += rep.price;  // in flight, promise stands
      }
    }
    unexposed[task.group] += problem.groups[task.group].repetitions -
                             static_cast<int>(progress.repetitions.size());
  }

  TuningProblem remaining;
  std::vector<size_t> remaining_to_group;
  for (size_t g = 0; g < num_groups; ++g) {
    const long open_tasks = static_cast<long>(open_ids_per_group[g].size());
    if (open_tasks == 0 || unexposed[g] == 0) {
      continue;
    }
    TaskGroup g_remaining = problem.groups[g];
    g_remaining.num_tasks = static_cast<int>(open_tasks);
    // Average remaining repetitions, rounded up: matches the group's real
    // residual cost closely so the reallocation spends what is available
    // (a max across tasks would overestimate the cost and under-spend).
    g_remaining.repetitions =
        static_cast<int>((unexposed[g] + open_tasks - 1) / open_tasks);
    const double scale = state_.groups[g].scale;
    const std::shared_ptr<const PriceRateCurve> believed =
        problem.groups[g].curve;
    g_remaining.curve = std::make_shared<FunctionCurve>(
        [believed, scale](double p) { return scale * believed->Rate(p); },
        believed->Name() + " x" + std::to_string(scale));
    remaining.groups.push_back(std::move(g_remaining));
    remaining_to_group.push_back(g);
  }
  if (remaining.groups.empty()) {
    return OkStatus();
  }
  const long spent = round.market.TotalSpent() - round.state.spent_before;
  remaining.budget = problem.budget - spent - committed;
  if (remaining.budget < remaining.MinimumBudget()) {
    return OkStatus();
  }
  const auto realloc = allocator_.Allocate(remaining);
  if (!realloc.ok()) {
    return OkStatus();
  }
  bool any_repriced = false;
  for (size_t r = 0; r < remaining.groups.size(); ++r) {
    const size_t g = remaining_to_group[r];
    int price = realloc->groups[r].prices[0][0];
    if (price == state_.groups[g].current_price) {
      continue;
    }
    for (const TaskId id : open_ids_per_group[g]) {
      // Remaining slots are not tracked here; each task starts from the
      // price the previous one achieved.
      HTUNE_ASSIGN_OR_RETURN(
          price, round.Reprice(id, price, *remaining.groups[r].curve, 0));
    }
    state_.groups[g].current_price = price;
    any_repriced = true;
  }
  if (any_repriced) {
    ++state_.retunes;
  }
  return OkStatus();
}

}  // namespace

StatusOr<RetunerReport> AdaptiveRetuner::Run(
    MarketSimulator& market, const TuningProblem& problem,
    const std::vector<QuestionSpec>& questions) const {
  RetunerPolicy policy(*allocator_, config_);
  HTUNE_RETURN_IF_ERROR(RunReviewLoop(config_.review_interval,
                                      config_.max_reviews, policy, market,
                                      problem, questions));
  return policy.report();
}

StatusOr<RetunerReport> AdaptiveRetuner::RunDurable(
    const MarketConfig& market_config, const TuningProblem& problem,
    const std::vector<QuestionSpec>& questions,
    const DurabilityConfig& durability,
    std::vector<TraceEvent>* final_trace) const {
  RetunerPolicy policy(*allocator_, config_);
  HTUNE_RETURN_IF_ERROR(RunReviewLoopDurable(
      config_.review_interval, config_.max_reviews, policy, market_config,
      config_.market_truth_per_group, problem, questions, durability,
      final_trace));
  return policy.report();
}

}  // namespace htune
