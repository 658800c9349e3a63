#ifndef HTUNE_CONTROL_ADAPTIVE_RETUNER_H_
#define HTUNE_CONTROL_ADAPTIVE_RETUNER_H_

#include <memory>
#include <vector>

#include "common/statusor.h"
#include "crowddb/types.h"
#include "durability/recovery.h"
#include "market/events.h"
#include "model/price_rate_curve.h"
#include "market/simulator.h"
#include "tuning/allocator.h"
#include "tuning/problem.h"

namespace htune {

/// Knobs for the online re-tuning loop.
struct RetunerConfig {
  /// Simulated time between reviews.
  double review_interval = 1.0;
  /// Hard cap on review rounds; the job is run to completion afterwards.
  int max_reviews = 10000;
  /// Acceptance events a group must accumulate before its rate estimate is
  /// trusted.
  int min_observations = 5;
  /// Exponential blending weight of the fresh scale estimate against the
  /// running one (1.0 = always jump to the new estimate).
  double smoothing = 0.5;
  /// Relative scale drift below which no repricing is triggered.
  double retune_threshold = 0.10;
  /// Simulation-only hook: the market's real price-responsiveness per
  /// problem group. When non-empty (one entry per group, entries may be
  /// null to fall back to the market default), each posted task carries its
  /// group's true curve so different task types can drift differently from
  /// the requester's belief.
  std::vector<std::shared_ptr<const PriceRateCurve>> market_truth_per_group;
};

/// Outcome of an adaptively tuned job execution.
struct RetunerReport {
  /// Wall-clock latency of the whole job.
  double latency = 0.0;
  /// Payment units spent.
  long spent = 0;
  /// Review rounds that actually retuned prices.
  int retunes = 0;
  /// Review rounds held.
  int reviews = 0;
  /// Final multiplicative correction applied to each group's assumed curve
  /// (1.0 = the prior calibration was already right).
  std::vector<double> final_scale;
  /// Final per-repetition price per group.
  std::vector<int> final_prices;
};

/// Closed-loop execution of a tuned job (§3.3's "real-time technique to
/// infer parameters for tuning strategies", turned into a controller).
///
/// The static pipeline trusts the calibrated price-rate curve once; if the
/// market has drifted (daily cycles, demographic shifts), the allocation is
/// built on wrong rates. AdaptiveRetuner posts the initial allocation and
/// then periodically:
///  1. re-estimates each group's true on-hold rates from the acceptance
///     events observed so far — a censored maximum-likelihood estimate of
///     the multiplicative scale s between the real market and the assumed
///     curve (events / accumulated assumed-rate exposure);
///  2. re-solves the remaining problem (open repetitions, remaining
///     budget) against the rescaled curve with the wrapped allocator;
///  3. reprices the open tasks in place.
///
/// The market must own a `true_curve` (it defines what the requester's
/// price buys); the problem's curves encode the requester's — possibly
/// stale — belief.
class AdaptiveRetuner {
 public:
  /// `allocator` is borrowed and must outlive the retuner.
  AdaptiveRetuner(const BudgetAllocator* allocator, RetunerConfig config);

  /// Runs `problem` on `market` with one question per atomic task
  /// (group-major order, as ExecuteJob). Returns InvalidArgument on shape
  /// errors and propagates market/allocator failures.
  StatusOr<RetunerReport> Run(MarketSimulator& market,
                              const TuningProblem& problem,
                              const std::vector<QuestionSpec>& questions) const;

  /// Durable variant: the same loop journaled through `durability.storage`,
  /// owning the market (fresh from `market_config`, or restored from the
  /// newest intact snapshot) so a killed run resumes where it crashed. See
  /// FaultTolerantExecutor::RunDurable for the recovery contract — bitwise
  /// replay verification, exactly-once payments, identical final report,
  /// and checkpoint-and-park ("parked: ...") on an exhausted retry budget.
  /// Snapshots serialize curve references as indices into
  /// `market_truth_per_group`, so recovery must be configured with the same
  /// curves.
  StatusOr<RetunerReport> RunDurable(
      const MarketConfig& market_config, const TuningProblem& problem,
      const std::vector<QuestionSpec>& questions,
      const DurabilityConfig& durability,
      std::vector<TraceEvent>* final_trace = nullptr) const;

 private:
  const BudgetAllocator* allocator_;
  RetunerConfig config_;
};

}  // namespace htune

#endif  // HTUNE_CONTROL_ADAPTIVE_RETUNER_H_
