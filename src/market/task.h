#ifndef HTUNE_MARKET_TASK_H_
#define HTUNE_MARKET_TASK_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "market/events.h"
#include "model/price_rate_curve.h"
#include "rng/random.h"

namespace htune {

/// One task to post: `repetitions` answers gathered sequentially (repetition
/// j+1 is exposed to workers only after repetition j's answer returns, per
/// §4.3), each paying `price_per_repetition`.
struct TaskSpec {
  /// Payment units promised per repetition; must be >= 1.
  int price_per_repetition = 1;
  /// Number of sequential answer repetitions; must be >= 1.
  int repetitions = 1;
  /// On-hold clock rate lambda_o for this task at this price. The caller
  /// maps price to rate through a PriceRateCurve; the simulator takes the
  /// rate so it stays decoupled from curve calibration.
  double on_hold_rate = 1.0;
  /// Optional per-repetition overrides. When non-empty, both must have
  /// exactly `repetitions` entries and replace the scalar price/rate for
  /// the corresponding repetition (used when an allocator pays repetitions
  /// of one task differently, e.g. EA's remainder units).
  std::vector<int> per_repetition_prices;
  std::vector<double> per_repetition_rates;
  /// Optional market-behaviour override for this task's type: when set (or
  /// when the market has a global true_curve), every rate — including
  /// Reprice — is derived from it and caller-supplied rates are ignored.
  /// Lets simulations give different task types different real
  /// price-responsiveness.
  std::shared_ptr<const PriceRateCurve> true_curve;
  /// Processing clock rate lambda_p (difficulty; price independent).
  double processing_rate = 1.0;
  /// When > 0, the exposed repetition expires if no worker accepts it
  /// within this window; the simulator reposts it immediately (kExpired
  /// then kReposted) and the on-hold clock restarts. Models the HIT
  /// lifetime requesters set on AMT. 0 = never expires.
  double acceptance_timeout = 0.0;
  /// Ground-truth option index for answer bookkeeping.
  int true_answer = 0;
  /// Number of answer options (>= 2 when errors are possible): a worker who
  /// errs returns a uniformly random wrong option.
  int num_options = 2;
};

/// A posted task's live state while it is open. Owned by the TaskStore in a
/// recycled slot; ResetForReuse clears a previous tenant field by field so
/// the slot's vector capacity survives recycling.
struct OpenTask {
  TaskSpec spec;
  /// Normalized per-repetition payments/rates (scalar spec expanded).
  std::vector<int> rep_prices;
  std::vector<double> rep_rates;
  /// Effective market-behaviour curve (task override or market global);
  /// null when the caller's explicit rates govern.
  std::shared_ptr<const PriceRateCurve> effective_curve;
  TaskOutcome outcome;
  /// Index (0-based) of the repetition currently exposed to workers, ==
  /// outcome.repetitions.size() while a repetition is on hold or being
  /// processed.
  int next_repetition = 0;
  /// True while the current repetition awaits a worker (on-hold phase).
  bool awaiting_acceptance = true;
  /// Posted time of the currently exposed repetition.
  double current_posted_time = 0.0;
  /// Bumped on every (re)exposure; invalidates stale expiry events.
  uint64_t exposure_generation = 0;
  /// Terms set by the latest Reprice (or -1 when never repriced): an
  /// abandoned repetition is re-exposed at these, not at the terms the
  /// abandoning worker accepted under.
  int reprice_price = -1;
  double reprice_rate = 0.0;

  void ResetForReuse() {
    spec.price_per_repetition = 1;
    spec.repetitions = 1;
    spec.on_hold_rate = 1.0;
    spec.per_repetition_prices.clear();
    spec.per_repetition_rates.clear();
    spec.true_curve.reset();
    spec.processing_rate = 1.0;
    spec.acceptance_timeout = 0.0;
    spec.true_answer = 0;
    spec.num_options = 2;
    rep_prices.clear();
    rep_rates.clear();
    effective_curve.reset();
    outcome.id = 0;
    outcome.posted_time = 0.0;
    outcome.completed_time = 0.0;
    outcome.repetitions.clear();
    outcome.abandoned_attempts = 0;
    outcome.expired_posts = 0;
    outcome.reposted_posts = 0;
    next_repetition = 0;
    awaiting_acceptance = true;
    current_posted_time = 0.0;
    exposure_generation = 0;
    reprice_price = -1;
    reprice_rate = 0.0;
  }
};

/// Decides a worker's answer to `task`: wrong with probability
/// `error_prob`, then a uniformly random wrong option. Both engines draw
/// from their own stream in this order (Bernoulli, then UniformInt on a
/// miss), and their pinned transcripts depend on it.
inline void DrawAnswer(Random& rng, double error_prob, const OpenTask& task,
                       RepetitionOutcome& rep) {
  if (rng.Bernoulli(error_prob)) {
    const int wrong = static_cast<int>(
        rng.UniformInt(static_cast<uint64_t>(task.spec.num_options - 1)));
    rep.answer = wrong >= task.spec.true_answer ? wrong + 1 : wrong;
    rep.correct = false;
  } else {
    rep.answer = task.spec.true_answer;
    rep.correct = true;
  }
}

}  // namespace htune

#endif  // HTUNE_MARKET_TASK_H_
