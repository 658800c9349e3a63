#ifndef HTUNE_CONTROL_REVIEW_LOOP_H_
#define HTUNE_CONTROL_REVIEW_LOOP_H_

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "common/statusor.h"
#include "crowddb/types.h"
#include "durability/recovery.h"
#include "durability/serialize.h"
#include "market/events.h"
#include "market/simulator.h"
#include "tuning/allocation.h"
#include "tuning/problem.h"

namespace htune {

using CurveTable = std::vector<std::shared_ptr<const PriceRateCurve>>;

/// One posted task as the review loop tracks it, in posting order.
struct LoopTask {
  TaskId id = 0;
  size_t group = 0;
  bool done = false;  ///< seen finished; its kCompletion is journaled
};

/// Loop-carried state every single-job controller shares, snapshotted in
/// each controller's frozen layout. `deadline` is stored, not recomputed:
/// repeated `+=` is not bitwise `start + n * interval`.
struct ReviewLoopState {
  std::vector<LoopTask> tasks;
  double start = 0.0;
  int64_t spent_before = 0;
  double deadline = 0.0;
  int next_review = 0;
  int reviews = 0;
  /// False until the initial allocation has been posted.
  bool initialized = false;  // HTUNE_TRANSIENT: implied true by decode
};

/// One review as a policy sees it: the market after the loop settled every
/// newly completed repetition, and the one journaled way to change a price.
struct ReviewRound {
  /// Reprices open task `id` to `target`, stepping down while the market
  /// refuses a rate above its arrival capacity, and journals a kReprice of
  /// the achieved price and `remaining_slots` (0 when untracked).
  StatusOr<int> Reprice(TaskId id, int target, const PriceRateCurve& curve,
                        int64_t remaining_slots) const;

  MarketSimulator& market;
  const TuningProblem& problem;
  const ReviewLoopState& state;
  double now;
  DurableContext* ctx;  ///< null when unjournaled
};

/// A single-job controller's rule around the shared review loop. The loop
/// owns what the controllers have in common — validation, posting, the
/// cadence, settlement, every journal record, snapshots, final accounting,
/// and RunDurable's recovery and parking — and calls, in order: Prepare;
/// on a fresh run Plan, then PreparePost per task; per review
/// StopReviewing, then Review after settlement; Finish once all tasks are
/// done and settled. A policy object serves one run and holds its state
/// and report.
class ReviewPolicy {
 public:
  virtual ~ReviewPolicy() = default;

  /// Prefix of the loop's error messages.
  virtual std::string_view name() const = 0;
  /// Checks against the validated problem; `state.initialized` on resume.
  virtual Status Prepare(const TuningProblem& /*problem*/,
                         const ReviewLoopState& /*state*/) {
    return OkStatus();
  }
  /// The initial allocation and the budget kRunStart journals.
  virtual StatusOr<Allocation> Plan(const TuningProblem& problem,
                                    int64_t* run_budget) = 0;
  /// Adds the policy's terms to a task's spec; may refuse the post.
  virtual Status PreparePost(const MarketSimulator& market, size_t group,
                             TaskSpec& spec) = 0;
  /// True stops reviewing; open tasks finish at the terms they have.
  virtual bool StopReviewing(const ReviewLoopState& /*state*/,
                             double /*now*/) {
    return false;
  }
  virtual Status Review(const ReviewRound& round) = 0;
  /// Fills the report from the finished market and publishes metrics.
  virtual Status Finish(const MarketSimulator& market,
                        const ReviewLoopState& state, double latency,
                        long spent) = 0;
  /// The snapshot's controller blob up to the ledger the loop appends:
  /// loop and policy state, in the controller's own layout.
  virtual void EncodeState(const ReviewLoopState& state,
                           Encoder& encoder) const = 0;
  virtual Status DecodeState(Decoder& decoder, ReviewLoopState& state) = 0;
};

/// Repetitions of `progress` whose answer came back.
int CompletedRepetitions(const TaskOutcome& progress);

/// Runs `problem` on the borrowed `market` under `policy`, one question per
/// atomic task in group-major order, unjournaled: a review every
/// `review_interval` simulated seconds, at most `max_reviews` of them, then
/// the job runs to completion unreviewed.
Status RunReviewLoop(double review_interval, int max_reviews,
                     ReviewPolicy& policy, MarketSimulator& market,
                     const TuningProblem& problem,
                     const std::vector<QuestionSpec>& questions);

/// The same loop journaled through `durability.storage` on a market it
/// owns, fresh from `market_config` or restored with the loop and policy
/// state from the newest intact snapshot; `curve_table` resolves the curves
/// its market snapshots reference. FaultTolerantExecutor::RunDurable
/// documents the recovery contract and checkpoint-and-park ("parked: ...").
Status RunReviewLoopDurable(double review_interval, int max_reviews,
                            ReviewPolicy& policy,
                            const MarketConfig& market_config,
                            const CurveTable& curve_table,
                            const TuningProblem& problem,
                            const std::vector<QuestionSpec>& questions,
                            const DurabilityConfig& durability,
                            std::vector<TraceEvent>* final_trace);

}  // namespace htune

#endif  // HTUNE_CONTROL_REVIEW_LOOP_H_
