#include "tuning/heterogeneous_allocator.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/check.h"
#include "obs/obs.h"
#include "tuning/brute_force.h"
#include "tuning/dp_price_tree.h"
#include "tuning/group_latency_table.h"
#include "tuning/repetition_allocator.h"

namespace htune {
namespace {

// Each group's phase-1 latency at prices 1..max_price[i] (slot 0 unused)
// and its phase-2 latency. HA's loops read each price many times, so they
// index these arrays rather than evaluate the curves again.
struct GroupLatencies {
  std::vector<std::vector<double>> phase1;
  std::vector<double> phase2;
};

GroupLatencies FlatLatencies(const TuningProblem& problem,
                             const std::vector<int>& max_price) {
  GroupLatencies latencies;
  for (size_t i = 0; i < problem.groups.size(); ++i) {
    const GroupLatencyTable table(problem.groups[i]);
    latencies.phase1.push_back(table.FlatPhase1(max_price[i]));
    latencies.phase2.push_back(table.Phase2());
  }
  return latencies;
}

// Every price any HA phase can reach: budget / u_i for group i. This covers
// the enumeration, the greedy bottleneck, the exact RA used for O1* and the
// unit DP.
GroupLatencies ReachableLatencies(const TuningProblem& problem) {
  std::vector<int> max_price;
  for (const TaskGroup& g : problem.groups) {
    max_price.push_back(static_cast<int>(problem.budget / g.UnitCost()));
  }
  return FlatLatencies(problem, max_price);
}

ObjectivePoint ObjectivesAt(const GroupLatencies& latencies,
                            const std::vector<int>& prices) {
  ObjectivePoint op;
  for (size_t i = 0; i < prices.size(); ++i) {
    const double phase1 = latencies.phase1[i][static_cast<size_t>(prices[i])];
    op.o1 += phase1;
    op.o2 = std::max(op.o2, phase1 + latencies.phase2[i]);
  }
  return op;
}

std::vector<int> MinimizeMostDifficultAt(const TuningProblem& problem,
                                         const GroupLatencies& latencies) {
  const size_t n = problem.groups.size();
  std::vector<int> prices(n, 1);
  long remaining = problem.budget - problem.MinimumBudget();
  while (true) {
    // Find the group attaining the current max of E[L1] + E[L2].
    size_t worst = 0;
    double worst_value = -1.0;
    for (size_t i = 0; i < n; ++i) {
      const double value =
          latencies.phase1[i][static_cast<size_t>(prices[i])] +
          latencies.phase2[i];
      if (value > worst_value) {
        worst_value = value;
        worst = i;
      }
    }
    // Only raising the bottleneck group can lower the max; stop when that
    // is no longer affordable. Zero-gain steps are still taken — a flat
    // stretch of the curve may precede an improving region, and since
    // Phase1 is non-increasing in price the extra spend can never raise O2.
    const long cost = problem.groups[worst].UnitCost();
    if (cost > remaining) break;
    ++prices[worst];
    remaining -= cost;
  }
  return prices;
}

// The Utopia point: O1* from the exact separable DP, which minimizes the
// same group sum over the same arrays, and O2* from the bottleneck greedy.
ObjectivePoint UtopiaAt(const TuningProblem& problem,
                        const GroupLatencies& latencies) {
  const std::vector<int> o1_prices = ExactDpPrices(problem, latencies.phase1);
  const double o1_star = ObjectivesAt(latencies, o1_prices).o1;
  const std::vector<int> o2_prices =
      MinimizeMostDifficultAt(problem, latencies);
  const double o2_star = ObjectivesAt(latencies, o2_prices).o2;
  return ObjectivePoint{o1_star, o2_star};
}

}  // namespace

std::vector<int> MinimizeMostDifficult(const TuningProblem& problem) {
  HTUNE_CHECK_OK(ValidateProblem(problem));
  return MinimizeMostDifficultAt(problem, ReachableLatencies(problem));
}

ObjectivePoint HeterogeneousAllocator::Objectives(
    const TuningProblem& problem, const std::vector<int>& prices) {
  HTUNE_CHECK_EQ(prices.size(), problem.groups.size());
  return ObjectivesAt(FlatLatencies(problem, prices), prices);
}

double HeterogeneousAllocator::Closeness(const ObjectivePoint& op,
                                         const ObjectivePoint& utopia) const {
  const double d1 = std::abs(op.o1 - utopia.o1);
  const double d2 = std::abs(op.o2 - utopia.o2);
  if (norm_ == ClosenessNorm::kL1) {
    return d1 + d2;
  }
  return std::sqrt(d1 * d1 + d2 * d2);
}

StatusOr<ObjectivePoint> HeterogeneousAllocator::UtopiaPoint(
    const TuningProblem& problem) const {
  HTUNE_RETURN_IF_ERROR(ValidateProblem(problem));
  return UtopiaAt(problem, ReachableLatencies(problem));
}

namespace {

// Upper bound on the number of uniform price vectors enumerated exactly.
// Beyond this the budget-indexed unit DP (Algorithm 3) takes over.
constexpr double kMaxEnumeration = 4e6;

double EnumerationBound(const TuningProblem& problem) {
  double bound = 1.0;
  for (const TaskGroup& g : problem.groups) {
    bound *= static_cast<double>(problem.budget / g.UnitCost());
    if (bound > kMaxEnumeration) break;
  }
  return bound;
}

}  // namespace

StatusOr<std::vector<int>> HeterogeneousAllocator::SolvePrices(
    const TuningProblem& problem) const {
  HTUNE_RETURN_IF_ERROR(ValidateProblem(problem));
  const GroupLatencies latencies = ReachableLatencies(problem);
  const ObjectivePoint utopia = UtopiaAt(problem, latencies);

  // Exact path: the closeness objective is not separable (O2 is a max), and
  // the unit-step DP below can stall on plateaus of measured (table)
  // curves, so when the uniform-price space is small enough we enumerate it
  // outright and return the true compromise optimum.
  if (EnumerationBound(problem) <= kMaxEnumeration) {
    HTUNE_OBS_SPAN("allocator.enumeration");
    std::vector<int> best;
    double best_value = std::numeric_limits<double>::infinity();
    ForEachUniformPriceVector(problem, [&](const std::vector<int>& prices) {
      const double value =
          Closeness(ObjectivesAt(latencies, prices), utopia);
      if (value < best_value ||
          (value == best_value && (best.empty() || prices < best))) {
        best_value = value;
        best = prices;
      }
    });
    HTUNE_CHECK(!best.empty());
    return best;
  }

  const size_t n = problem.groups.size();
  std::vector<long> unit_cost(n);
  for (size_t i = 0; i < n; ++i) {
    unit_cost[i] = problem.groups[i].UnitCost();
  }

  // Algorithm 3: budget-indexed DP over price vectors, objective = Closeness
  // to the Utopia point. As in SolvePaperDp, each state is an int32 root
  // into a persistent price tree — O(spare) state memory, no O(n) copies.
  // The tree's leaf values carry each group's E[L1] + E[L2], so the O2 max
  // of a candidate bump is an O(log n) sibling walk instead of an O(n)
  // rescan, and O1 is maintained incrementally from the marginal gain.
  const long spare = problem.budget - problem.MinimumBudget();
  const std::vector<std::vector<double>>& phase1 = latencies.phase1;
  const std::vector<double>& phase2 = latencies.phase2;
  std::vector<double> initial_value(n);
  for (size_t i = 0; i < n; ++i) {
    initial_value[i] = phase1[i][1] + phase2[i];
  }

  DpPriceTree tree(n, /*price=*/1, initial_value);
  tree.ReserveUpdates(static_cast<size_t>(spare));
  std::vector<int32_t> root_at(static_cast<size_t>(spare) + 1, tree.root());
  std::vector<double> o1_at(static_cast<size_t>(spare) + 1, 0.0);
  std::vector<double> closeness_at(static_cast<size_t>(spare) + 1, 0.0);
  double base_o1 = 0.0;
  for (size_t i = 0; i < n; ++i) {
    base_o1 += phase1[i][1];
  }
  o1_at[0] = base_o1;
  closeness_at[0] =
      Closeness(ObjectivePoint{base_o1, tree.MaxValue(tree.root())}, utopia);

  HTUNE_OBS_SPAN("allocator.dp");
  for (long x = 1; x <= spare; ++x) {
    const size_t xi = static_cast<size_t>(x);
    double best = closeness_at[xi - 1];
    size_t best_group = n;  // n = carry previous state
    int best_price = 0;
    double best_o1 = o1_at[xi - 1];
    double best_leaf_value = 0.0;
    for (size_t i = 0; i < n; ++i) {
      if (unit_cost[i] > x) continue;
      const size_t from = static_cast<size_t>(x - unit_cost[i]);
      const int p = tree.PriceAt(root_at[from], i);
      const double next_phase1 = phase1[i][static_cast<size_t>(p) + 1];
      const double o1_candidate =
          o1_at[from] -
          (phase1[i][static_cast<size_t>(p)] - next_phase1);
      const double leaf_value = next_phase1 + phase2[i];
      const double o2_candidate =
          std::max(tree.MaxValueExcluding(root_at[from], i), leaf_value);
      const double candidate =
          Closeness(ObjectivePoint{o1_candidate, o2_candidate}, utopia);
      // Ties prefer spending (see RepetitionAllocator): zero-gain plateaus
      // of the curve must be crossable.
      if (candidate <= best) {
        best = candidate;
        best_group = i;
        best_price = p + 1;
        best_o1 = o1_candidate;
        best_leaf_value = leaf_value;
      }
    }
    if (best_group == n) {
      root_at[xi] = root_at[xi - 1];
    } else {
      const size_t from = static_cast<size_t>(x - unit_cost[best_group]);
      root_at[xi] = tree.WithLeaf(root_at[from], best_group, best_price,
                                  best_leaf_value);
    }
    o1_at[xi] = best_o1;
    closeness_at[xi] = best;
  }
  HTUNE_OBS_SPAN("allocator.backtrack");
  return tree.Prices(root_at[static_cast<size_t>(spare)]);
}

StatusOr<Allocation> HeterogeneousAllocator::Allocate(
    const TuningProblem& problem) const {
  HTUNE_ASSIGN_OR_RETURN(const std::vector<int> prices, SolvePrices(problem));
  return UniformAllocation(problem, prices);
}

}  // namespace htune
