#ifndef HTUNE_MARKET_TASK_H_
#define HTUNE_MARKET_TASK_H_

#include <cstddef>
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

/// The engine-neutral record of a posted task while it is open: what both
/// market engines read after PostTask (the paper's task of §3.1/§4.3: its
/// per-repetition prices, processing rate, answer and outcome), and the
/// repetition lifecycle both engines run on it: Expose, then Accept, then
/// FinishRepetition, then the engine exposes the next repetition or
/// completes the task. An acceptance reads only the record itself: the
/// current price sits beside the hold state, and PostTask reserves the
/// outcome's room for every repetition, so it allocates nothing and reads
/// no price vector. Owned by a TaskStore in a recycled slot;
/// ResetForReuse clears a previous tenant field by field so the slot's
/// vector capacity survives recycling. An engine that needs more per task
/// derives its own slot type (the single-job engine's SimulatorTask in
/// market/simulator.h).
struct OpenTask {
  /// Payment of each repetition, one entry per repetition; its size is the
  /// task's repetition count.
  std::vector<int> rep_prices;
  TaskOutcome outcome;
  /// Processing clock rate lambda_p (difficulty; price independent).
  double processing_rate = 1.0;
  /// Posted time of the currently exposed repetition.
  double current_posted_time = 0.0;
  /// Ground-truth option index, and how many options a worker picks from.
  int true_answer = 0;
  int num_options = 2;
  /// True while the current repetition awaits a worker (on-hold phase).
  bool awaiting_acceptance = true;
  /// What CurrentPrice returns. Derived from rep_prices and the outcome, so
  /// snapshots leave it out.
  int current_price = 0;  // HTUNE_TRANSIENT: RebuildTransient on restore

  /// The repetition the task is working on: the exposed one while on hold,
  /// else the in-flight one, which is the last accepted (both engines'
  /// restores refuse a processing task without one; see RestoreAudit).
  size_t CurrentSlot() const {
    const size_t accepted = outcome.repetitions.size();
    return awaiting_acceptance ? accepted : accepted - 1;
  }

  /// True once every repetition has been accepted.
  bool AllAccepted() const {
    return outcome.repetitions.size() == rep_prices.size();
  }

  /// The price the current repetition pays: the exposed slot's while on
  /// hold, else the one the in-flight repetition was accepted at (a
  /// reprice never changes an accepted repetition's terms).
  int CurrentPrice() const { return current_price; }

  /// Re-reads current_price from the current slot. An engine calls it
  /// after writing rep_prices (a reprice).
  void SyncCurrentPrice() {
    current_price = awaiting_acceptance
                        ? rep_prices[outcome.repetitions.size()]
                        : outcome.repetitions.back().price;
  }

  /// Rebuilds what snapshots leave out, once RestoreAudit::AddTask has
  /// accepted the task: the current price, and the outcome's room for
  /// every repetition.
  void RebuildTransient() {
    outcome.repetitions.reserve(rep_prices.size());
    SyncCurrentPrice();
  }

  /// Puts the next repetition on hold from `now` at its slot's price
  /// (§4.3). The first exposure, at PostTask, also reserves the outcome's
  /// room for every repetition, so no acceptance allocates.
  void Expose(double now) {
    outcome.repetitions.reserve(rep_prices.size());
    awaiting_acceptance = true;
    current_posted_time = now;
    current_price = rep_prices[outcome.repetitions.size()];
  }

  /// `worker` accepts the exposed repetition at `now` (§3.1.2): its terms
  /// are the exposed slot's, its answer is drawn now by DrawAnswer, and the
  /// task leaves hold. Returns the 1-based repetition index.
  int Accept(double now, WorkerId worker, Random& rng, double error_prob);

  /// The in-flight repetition's answer returns at `now` (§3.2): stamps its
  /// completion, and the task's once it was the last repetition. Returns
  /// the price it pays. The engine then completes the task (AllAccepted)
  /// or exposes the next repetition (§4.3).
  int FinishRepetition(double now) {
    RepetitionOutcome& rep = outcome.repetitions.back();
    rep.completed_time = now;
    if (AllAccepted()) {
      outcome.completed_time = now;
    }
    return rep.price;
  }

  void ResetForReuse() {
    rep_prices.clear();
    outcome.id = 0;
    outcome.posted_time = 0.0;
    outcome.completed_time = 0.0;
    outcome.repetitions.clear();
    outcome.abandoned_attempts = 0;
    outcome.expired_posts = 0;
    outcome.reposted_posts = 0;
    processing_rate = 1.0;
    current_posted_time = 0.0;
    true_answer = 0;
    num_options = 2;
    awaiting_acceptance = true;
    current_price = 0;
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
        rng.UniformInt(static_cast<uint64_t>(task.num_options - 1)));
    rep.answer = wrong >= task.true_answer ? wrong + 1 : wrong;
    rep.correct = false;
  } else {
    rep.answer = task.true_answer;
    rep.correct = true;
  }
}

inline int OpenTask::Accept(double now, WorkerId worker, Random& rng,
                            double error_prob) {
  RepetitionOutcome rep;
  rep.posted_time = current_posted_time;
  rep.accepted_time = now;
  rep.worker = worker;
  rep.price = current_price;
  DrawAnswer(rng, error_prob, *this, rep);
  outcome.repetitions.push_back(rep);
  awaiting_acceptance = false;
  return static_cast<int>(outcome.repetitions.size());
}

}  // namespace htune

#endif  // HTUNE_MARKET_TASK_H_
