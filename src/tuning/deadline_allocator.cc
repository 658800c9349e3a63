#include "tuning/deadline_allocator.h"

#include <algorithm>
#include <limits>
#include <vector>

#include "common/check.h"
#include "tuning/group_latency_table.h"
#include "tuning/repetition_allocator.h"

namespace htune {
namespace {

double Evaluate(const std::vector<GroupLatencyTable>& tables,
                const std::vector<int>& prices,
                DeadlineObjective objective) {
  if (objective == DeadlineObjective::kPhase1Sum) {
    double total = 0.0;
    for (size_t i = 0; i < tables.size(); ++i) {
      total += tables[i].Phase1(prices[i]);
    }
    return total;
  }
  double worst = 0.0;
  for (size_t i = 0; i < tables.size(); ++i) {
    worst = std::max(worst,
                     tables[i].Phase1(prices[i]) + tables[i].Phase2());
  }
  return worst;
}

// kMostDifficult decomposes per group: every group independently needs the
// cheapest price whose phase-1 + phase-2 is within the deadline, found by a
// serial scan up from price 1.
StatusOr<DeadlinePlan> SolveBottleneck(
    const TuningProblem& problem,
    const std::vector<GroupLatencyTable>& tables,
    const std::vector<long>& unit_cost, double deadline) {
  DeadlinePlan plan;
  const size_t n = tables.size();
  plan.prices.assign(n, 1);
  for (size_t i = 0; i < n; ++i) {
    const long max_price = problem.budget / unit_cost[i];
    int price = 1;
    while (tables[i].Phase1(price) + tables[i].Phase2() > deadline) {
      if (price >= max_price) {
        return OutOfRangeError(
            "SolveDeadline: deadline unreachable within the budget ceiling "
            "for group '" + problem.groups[i].name + "'");
      }
      ++price;
    }
    plan.prices[i] = price;
  }
  for (size_t i = 0; i < n; ++i) {
    plan.cost += unit_cost[i] * plan.prices[i];
  }
  if (plan.cost > problem.budget) {
    return OutOfRangeError(
        "SolveDeadline: per-group requirements exceed the budget ceiling");
  }
  plan.achieved =
      Evaluate(tables, plan.prices, DeadlineObjective::kMostDifficult);
  return plan;
}

// kPhase1Sum: exact knapsack DP over total spend. best[b] = the smallest
// objective achievable spending exactly b, with per-group choices recorded
// for reconstruction; the answer is the smallest b whose value meets the
// deadline.
StatusOr<DeadlinePlan> SolveSeparable(
    const TuningProblem& problem,
    const std::vector<GroupLatencyTable>& tables,
    const std::vector<long>& unit_cost, double deadline) {
  const size_t n = tables.size();
  const long budget = problem.budget;

  // The knapsack touches every price up to budget / u_i for every group:
  // hoist them flat before the DP.
  std::vector<int> max_price(n);
  std::vector<std::vector<double>> phase1(n);
  for (size_t i = 0; i < n; ++i) {
    max_price[i] = static_cast<int>(budget / unit_cost[i]);
    phase1[i] = tables[i].FlatPhase1(max_price[i]);
  }

  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> best(static_cast<size_t>(budget) + 1, kInf);
  best[0] = 0.0;
  std::vector<std::vector<int>> choice(
      n, std::vector<int>(static_cast<size_t>(budget) + 1, 0));

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

  // The per-spend minima are not monotone in b (spending exactly b can be
  // awkward); take the cheapest b whose prefix-minimum meets the deadline.
  long chosen = -1;
  double running = kInf;
  long running_at = -1;
  for (long b = 0; b <= budget; ++b) {
    if (best[static_cast<size_t>(b)] < running) {
      running = best[static_cast<size_t>(b)];
      running_at = b;
    }
    if (running <= deadline) {
      chosen = running_at;
      break;
    }
  }
  if (chosen < 0) {
    return OutOfRangeError(
        "SolveDeadline: deadline unreachable within the budget ceiling");
  }

  DeadlinePlan plan;
  plan.prices.assign(n, 0);
  long b = chosen;
  for (size_t i = n; i > 0; --i) {
    const int p = choice[i - 1][static_cast<size_t>(b)];
    HTUNE_CHECK_GE(p, 1);
    plan.prices[i - 1] = p;
    b -= unit_cost[i - 1] * p;
  }
  HTUNE_CHECK_EQ(b, 0);
  plan.cost = chosen;
  plan.achieved =
      Evaluate(tables, plan.prices, DeadlineObjective::kPhase1Sum);
  return plan;
}

}  // namespace

StatusOr<DeadlinePlan> SolveDeadline(const TuningProblem& problem,
                                     double deadline,
                                     DeadlineObjective objective) {
  HTUNE_RETURN_IF_ERROR(ValidateProblem(problem));
  if (deadline <= 0.0) {
    return InvalidArgumentError("SolveDeadline: deadline must be positive");
  }

  const size_t n = problem.groups.size();
  std::vector<GroupLatencyTable> tables;
  tables.reserve(n);
  std::vector<long> unit_cost(n);
  for (size_t i = 0; i < n; ++i) {
    tables.emplace_back(problem.groups[i]);
    unit_cost[i] = problem.groups[i].UnitCost();
  }

  if (objective == DeadlineObjective::kMostDifficult) {
    // The processing floor is unbuyable: fail fast when the deadline sits
    // below it.
    double floor = 0.0;
    for (const GroupLatencyTable& table : tables) {
      floor = std::max(floor, table.Phase2());
    }
    if (deadline < floor) {
      return OutOfRangeError(
          "SolveDeadline: deadline lies below the processing-latency floor "
          "that no payment can reduce");
    }
    return SolveBottleneck(problem, tables, unit_cost, deadline);
  }
  return SolveSeparable(problem, tables, unit_cost, deadline);
}

Allocation DeadlinePlanToAllocation(const TuningProblem& problem,
                                    const DeadlinePlan& plan) {
  HTUNE_CHECK_EQ(plan.prices.size(), problem.groups.size());
  return UniformAllocation(problem, plan.prices);
}

}  // namespace htune
