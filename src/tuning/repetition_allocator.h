#ifndef HTUNE_TUNING_REPETITION_ALLOCATOR_H_
#define HTUNE_TUNING_REPETITION_ALLOCATOR_H_

#include <string>
#include <vector>

#include "tuning/allocator.h"

namespace htune {

/// Scenario II: the Repetition Algorithm ("RA", Algorithm 2). Tasks are
/// grouped by repetition count; the objective is the group-sum surrogate
/// min sum_i E[L1(g_i)] subject to the budget, where group i's tasks all
/// pay a uniform per-repetition price p_i and raising p_i by one unit costs
/// u_i = num_tasks_i * repetitions_i budget units.
///
/// Two solution modes:
///  - kPaperDp: the paper's O(n * B') budget-indexed dynamic program, which
///    extends the best allocation at budget x - u_i by one price unit for
///    group i.
///  - kExactDp: a knapsack-style DP over per-group uniform prices, exact for
///    arbitrary (even non-convex) per-group latency tables; used to verify
///    the paper's algorithm and in ablation benches.
///
/// Caveat: kPaperDp's unit-step extension assumes the latency tables keep
/// strictly improving with price, which holds for the paper's strictly
/// increasing curves. Measured TableCurves can contain flat stretches
/// (plateaus) where the unit step shows zero gain; ties prefer spending so
/// single-group plateaus are crossed, but with several groups a competing
/// positive-gain group can starve a plateaued one. Use kExactDp when the
/// curve may plateau.
class RepetitionAllocator : public BudgetAllocator {
 public:
  enum class Mode { kPaperDp, kExactDp };

  explicit RepetitionAllocator(Mode mode = Mode::kPaperDp) : mode_(mode) {}

  std::string Name() const override {
    return mode_ == Mode::kPaperDp ? "RA" : "RA-exact";
  }
  StatusOr<Allocation> Allocate(const TuningProblem& problem) const override;

  /// Exposes the uniform per-group prices chosen for `problem` (the
  /// allocation is the uniform expansion of these). Used by HA's Utopia
  /// computation and by tests.
  StatusOr<std::vector<int>> SolvePrices(const TuningProblem& problem) const;

 private:
  std::vector<int> SolvePaperDp(const TuningProblem& problem) const;
  std::vector<int> SolveExactDp(const TuningProblem& problem) const;

  Mode mode_;
};

/// The knapsack behind Mode::kExactDp, over phase-1 arrays the caller has
/// already filled: phase1[i][p] is group i's expected phase-1 latency at
/// uniform price p, for every p in 1..budget / u_i (slot 0 unused). Returns
/// the prices minimizing the sum of phase1[i][p_i] within the budget. HA's
/// Utopia point passes the arrays its own loops read.
std::vector<int> ExactDpPrices(const TuningProblem& problem,
                               const std::vector<std::vector<double>>& phase1);

/// Expands uniform per-group prices into a full Allocation.
Allocation UniformAllocation(const TuningProblem& problem,
                             const std::vector<int>& prices);

}  // namespace htune

#endif  // HTUNE_TUNING_REPETITION_ALLOCATOR_H_
