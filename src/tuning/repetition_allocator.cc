#include "tuning/repetition_allocator.h"

#include <algorithm>
#include <limits>

#include "common/check.h"
#include "obs/obs.h"
#include "tuning/dp_price_tree.h"
#include "tuning/group_latency_table.h"

namespace htune {

Allocation UniformAllocation(const TuningProblem& problem,
                             const std::vector<int>& prices) {
  HTUNE_CHECK_EQ(prices.size(), problem.groups.size());
  Allocation allocation;
  allocation.groups.reserve(problem.groups.size());
  for (size_t i = 0; i < problem.groups.size(); ++i) {
    const TaskGroup& g = problem.groups[i];
    allocation.groups.push_back(
        UniformGroupAllocation(g.num_tasks, g.repetitions, prices[i]));
  }
  return allocation;
}

StatusOr<std::vector<int>> RepetitionAllocator::SolvePrices(
    const TuningProblem& problem) const {
  HTUNE_RETURN_IF_ERROR(ValidateProblem(problem));
  if (mode_ == Mode::kPaperDp) {
    return SolvePaperDp(problem);
  }
  return SolveExactDp(problem);
}

StatusOr<Allocation> RepetitionAllocator::Allocate(
    const TuningProblem& problem) const {
  HTUNE_ASSIGN_OR_RETURN(const std::vector<int> prices, SolvePrices(problem));
  return UniformAllocation(problem, prices);
}

std::vector<int> RepetitionAllocator::SolvePaperDp(
    const TuningProblem& problem) const {
  const size_t n = problem.groups.size();
  std::vector<GroupLatencyTable> tables;
  tables.reserve(n);
  std::vector<long> unit_cost(n);
  for (size_t i = 0; i < n; ++i) {
    tables.emplace_back(problem.groups[i]);
    unit_cost[i] = problem.groups[i].UnitCost();
  }

  // Algorithm 2: start every repetition at one unit; the DP state at spare
  // budget x holds the best price vector reachable with x extra units.
  const long spare = problem.budget - problem.MinimumBudget();

  // Group i's price at state x - u_i is at most 1 + (spare - u_i) / u_i, so
  // the loop, which reads E_i at that price and the next one, reads no price
  // above 1 + spare / u_i. Most of that range goes unread: start each group's
  // flat array at price 1 and double it the first time the loop reads past
  // it, capped at the bound.
  std::vector<int> max_price(n);
  std::vector<std::vector<double>> phase1(n);
  for (size_t i = 0; i < n; ++i) {
    max_price[i] = static_cast<int>(1 + spare / unit_cost[i]);
    phase1[i] = tables[i].FlatPhase1(1);
  }
  // Widens group i's array to cover `price`.
  const auto grow = [&](size_t i, int price) {
    HTUNE_CHECK_LE(price, max_price[i]);
    const int band = static_cast<int>(phase1[i].size()) - 1;
    tables[i].ExtendFlatPhase1(
        std::min(std::max(2 * band, price), max_price[i]), &phase1[i]);
  };

  // Each DP state is an int32 root into a persistent price tree plus its
  // objective value — O(spare) state memory, no per-state vector copies.
  DpPriceTree tree(n, /*price=*/1, /*values=*/{});
  tree.ReserveUpdates(static_cast<size_t>(spare));
  std::vector<int32_t> root_at(static_cast<size_t>(spare) + 1, tree.root());
  std::vector<double> objective_at(static_cast<size_t>(spare) + 1, 0.0);
  double base = 0.0;
  for (size_t i = 0; i < n; ++i) {
    base += phase1[i][1];
  }
  objective_at[0] = base;

  {
    HTUNE_OBS_SPAN("allocator.dp");
    for (long x = 1; x <= spare; ++x) {
      // Default: carry the previous state (one unit left unspent).
      double best = objective_at[static_cast<size_t>(x - 1)];
      size_t best_group = n;  // n = carry
      int best_price = 0;
      for (size_t i = 0; i < n; ++i) {
        if (unit_cost[i] > x) continue;
        const size_t from = static_cast<size_t>(x - unit_cost[i]);
        const int p = tree.PriceAt(root_at[from], i);
        if (static_cast<size_t>(p) + 1 >= phase1[i].size()) grow(i, p + 1);
        const double candidate =
            objective_at[from] - (phase1[i][static_cast<size_t>(p)] -
                                  phase1[i][static_cast<size_t>(p) + 1]);
        // Ties prefer spending over carrying: on a flat stretch of the
        // price-rate curve the marginal gain is zero, and only a state that
        // keeps accumulating price units can cross the plateau and reach the
        // improving region beyond it.
        if (candidate <= best) {
          best = candidate;
          best_group = i;
          best_price = p + 1;
        }
      }
      const size_t xi = static_cast<size_t>(x);
      if (best_group == n) {
        root_at[xi] = root_at[xi - 1];
      } else {
        const size_t from = static_cast<size_t>(x - unit_cost[best_group]);
        root_at[xi] = tree.WithLeaf(root_at[from], best_group, best_price, 0.0);
      }
      objective_at[xi] = best;
    }
    HTUNE_OBS_COUNTER_ADD("allocator.dp_states",
                          static_cast<uint64_t>(spare) + 1);
  }
  HTUNE_OBS_SPAN("allocator.backtrack");
  return tree.Prices(root_at[static_cast<size_t>(spare)]);
}

std::vector<int> RepetitionAllocator::SolveExactDp(
    const TuningProblem& problem) const {
  const size_t n = problem.groups.size();
  const long budget = problem.budget;

  // Every price the knapsack loop can touch, hoisted flat so the
  // O(n * B * p_max) inner loop below never leaves straight-line array code.
  std::vector<long> unit_cost(n);
  std::vector<int> max_price(n);
  std::vector<std::vector<double>> phase1(n);
  for (size_t i = 0; i < n; ++i) {
    unit_cost[i] = problem.groups[i].UnitCost();
    max_price[i] = static_cast<int>(budget / unit_cost[i]);
    phase1[i] = GroupLatencyTable(problem.groups[i]).FlatPhase1(max_price[i]);
  }

  constexpr double kInf = std::numeric_limits<double>::infinity();
  // best[b] = min sum of E over groups processed so far spending exactly b;
  // choice[i][b] = price picked for group i to reach b.
  std::vector<double> best(static_cast<size_t>(budget) + 1, kInf);
  best[0] = 0.0;
  std::vector<std::vector<int>> choice(
      n, std::vector<int>(static_cast<size_t>(budget) + 1, 0));

  HTUNE_OBS_SPAN("allocator.dp");
  for (size_t i = 0; i < n; ++i) {
    std::vector<double> next(static_cast<size_t>(budget) + 1, kInf);
    const long group_max = max_price[i];
    const std::vector<double>& phase1_i = phase1[i];
    for (long b = 0; b <= budget; ++b) {
      if (best[static_cast<size_t>(b)] == kInf) continue;
      for (long p = 1; p <= group_max; ++p) {
        const long spend = b + unit_cost[i] * p;
        if (spend > budget) break;
        const double value =
            best[static_cast<size_t>(b)] + phase1_i[static_cast<size_t>(p)];
        if (value < next[static_cast<size_t>(spend)]) {
          next[static_cast<size_t>(spend)] = value;
          choice[i][static_cast<size_t>(spend)] = static_cast<int>(p);
        }
      }
    }
    best = std::move(next);
  }

  // Phase-1 latency is non-increasing in price, but find the best spend
  // level explicitly so the DP is exact for arbitrary tables.
  long best_spend = -1;
  double best_value = kInf;
  for (long b = 0; b <= budget; ++b) {
    if (best[static_cast<size_t>(b)] < best_value) {
      best_value = best[static_cast<size_t>(b)];
      best_spend = b;
    }
  }
  HTUNE_CHECK_GE(best_spend, 0);

  HTUNE_OBS_SPAN("allocator.backtrack");
  std::vector<int> prices(n, 0);
  long b = best_spend;
  for (size_t i = n; i > 0; --i) {
    const int p = choice[i - 1][static_cast<size_t>(b)];
    HTUNE_CHECK_GE(p, 1);
    prices[i - 1] = p;
    b -= unit_cost[i - 1] * p;
  }
  HTUNE_CHECK_EQ(b, 0);
  return prices;
}

}  // namespace htune
