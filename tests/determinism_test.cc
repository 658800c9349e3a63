// The parallel runtime's determinism contract, end to end: every allocator
// and the parallel Monte Carlo evaluator must produce bitwise-identical
// results whether the default pool has 1, 4, or hardware_concurrency lanes.
// The paper DP's on-demand price band must match the eager prewarm it
// replaced, and a prewarm the kernel cache already covers must send no work
// to the pool.

#include <algorithm>
#include <bit>
#include <cmath>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.h"
#include "common/parallel.h"
#include "model/latency_cache.h"
#include "obs/metrics.h"
#include "rng/random.h"
#include "spec/job_spec.h"
#include "tuning/deadline_allocator.h"
#include "tuning/dp_price_tree.h"
#include "tuning/evaluator.h"
#include "tuning/group_latency_table.h"
#include "tuning/heterogeneous_allocator.h"
#include "tuning/repetition_allocator.h"

namespace htune {
namespace {

TuningProblem SmallProblem(long budget) {
  const auto curve = std::make_shared<LinearCurve>(1.0, 1.0);
  TuningProblem problem;
  for (const int tasks : {4, 6, 9, 12}) {
    for (const int reps : {2, 3}) {
      TaskGroup g;
      g.name = "g" + std::to_string(problem.groups.size());
      g.num_tasks = tasks;
      g.repetitions = reps;
      g.processing_rate = 2.0;
      g.curve = curve;
      problem.groups.push_back(std::move(g));
    }
  }
  problem.budget = budget;
  return problem;
}

// 12 tiny identical groups: unit cost 4 each, so budget 148 leaves spare
// 100 and a per-group price range of ~26 — an enumeration space of 26^12,
// far beyond HA's enumeration bound, forcing its budget DP path.
TuningProblem WideProblem() {
  const auto curve = std::make_shared<LinearCurve>(1.0, 1.0);
  TuningProblem problem;
  for (int i = 0; i < 12; ++i) {
    TaskGroup g;
    g.name = "w" + std::to_string(i);
    g.num_tasks = 2;
    g.repetitions = 2;
    g.processing_rate = 1.5 + 0.25 * static_cast<double>(i % 4);
    g.curve = curve;
    problem.groups.push_back(std::move(g));
  }
  problem.budget = 148;
  return problem;
}

// Runs `solve` under pools of 1, 4, and hardware lanes (cold cache each
// time) and checks every run reproduces the first bitwise.
template <typename Result, typename Solve>
void ExpectSameAcrossPools(const Solve& solve) {
  std::vector<Result> results;
  for (const int threads : {1, 4, DefaultThreadCount()}) {
    ThreadPool pool(threads);
    ScopedDefaultThreadPool scoped(&pool);
    GlobalLatencyCache().Clear();
    results.push_back(solve());
  }
  for (size_t i = 1; i < results.size(); ++i) {
    EXPECT_EQ(results[i], results[0]) << "pool variant " << i;
  }
}

TEST(DeterminismTest, RepetitionAllocatorPaperDp) {
  const TuningProblem problem = SmallProblem(800);
  const RepetitionAllocator tuner(RepetitionAllocator::Mode::kPaperDp);
  ExpectSameAcrossPools<std::vector<int>>([&] {
    const auto prices = tuner.SolvePrices(problem);
    EXPECT_TRUE(prices.ok());
    return *prices;
  });
  // The objective value, not just the argmax, must match bitwise.
  ExpectSameAcrossPools<double>([&] {
    const auto prices = tuner.SolvePrices(problem);
    return Phase1GroupSum(problem, UniformAllocation(problem, *prices));
  });
}

TEST(DeterminismTest, RepetitionAllocatorExactDp) {
  const TuningProblem problem = SmallProblem(600);
  const RepetitionAllocator tuner(RepetitionAllocator::Mode::kExactDp);
  ExpectSameAcrossPools<std::vector<int>>([&] {
    const auto prices = tuner.SolvePrices(problem);
    EXPECT_TRUE(prices.ok());
    return *prices;
  });
}

TEST(DeterminismTest, HeterogeneousAllocatorEnumerationPath) {
  const TuningProblem problem = SmallProblem(500);
  const HeterogeneousAllocator tuner;
  ExpectSameAcrossPools<std::vector<int>>([&] {
    const auto prices = tuner.SolvePrices(problem);
    EXPECT_TRUE(prices.ok());
    return *prices;
  });
}

TEST(DeterminismTest, HeterogeneousAllocatorDpPath) {
  const TuningProblem problem = WideProblem();
  const HeterogeneousAllocator tuner;
  std::vector<int> first;
  ExpectSameAcrossPools<std::vector<int>>([&] {
    const auto prices = tuner.SolvePrices(problem);
    EXPECT_TRUE(prices.ok());
    return *prices;
  });
  ExpectSameAcrossPools<double>([&] {
    const auto prices = tuner.SolvePrices(problem);
    const ObjectivePoint op =
        HeterogeneousAllocator::Objectives(problem, *prices);
    return op.o1 + op.o2;
  });
}

TEST(DeterminismTest, DeadlineAllocatorBothObjectives) {
  const TuningProblem problem = SmallProblem(2000);
  for (const DeadlineObjective objective :
       {DeadlineObjective::kPhase1Sum, DeadlineObjective::kMostDifficult}) {
    ExpectSameAcrossPools<std::vector<int>>([&] {
      const auto plan = SolveDeadline(problem, 30.0, objective);
      EXPECT_TRUE(plan.ok());
      return plan->prices;
    });
    ExpectSameAcrossPools<double>([&] {
      const auto plan = SolveDeadline(problem, 30.0, objective);
      return plan->achieved;
    });
  }
}

TEST(DeterminismTest, ParallelMonteCarloAcrossPools) {
  const TuningProblem problem = SmallProblem(600);
  const RepetitionAllocator tuner;
  const auto alloc = tuner.Allocate(problem);
  ASSERT_TRUE(alloc.ok());
  ExpectSameAcrossPools<double>([&] {
    return ParallelMonteCarloOverallLatency(problem, *alloc, 500, 99);
  });
  ExpectSameAcrossPools<double>([&] {
    return ParallelMonteCarloPhase1Latency(problem, *alloc, 500, 99);
  });
}

// The kernel cache keys on the on-hold rate, not the curve object, so a
// problem whose groups each carry their own parsed copy of the curve must
// tune bitwise like the one whose groups share a single curve object.
TEST(DeterminismTest, SharedAndPerGroupCurveObjectsTuneIdentically) {
  const TuningProblem shared = SmallProblem(800);
  TuningProblem copies = shared;
  for (TaskGroup& g : copies.groups) {
    const auto curve = ParseCurveSpec("linear 1.0 1.0");
    ASSERT_TRUE(curve.ok());
    g.curve = *curve;
  }
  ASSERT_NE(copies.groups[0].curve.get(), copies.groups[1].curve.get());

  const RepetitionAllocator ra;
  const HeterogeneousAllocator ha;
  const auto solve = [&](const TuningProblem& problem) {
    GlobalLatencyCache().Clear();
    const auto ra_prices = ra.SolvePrices(problem);
    const auto ha_prices = ha.SolvePrices(problem);
    EXPECT_TRUE(ra_prices.ok());
    EXPECT_TRUE(ha_prices.ok());
    const ObjectivePoint op =
        HeterogeneousAllocator::Objectives(problem, *ha_prices);
    return std::make_tuple(
        *ra_prices,
        Phase1GroupSum(problem, UniformAllocation(problem, *ra_prices)),
        *ha_prices, op.o1, op.o2);
  };
  EXPECT_EQ(solve(copies), solve(shared));
}

// The observability layer makes the same promise as the allocators: metric
// values — and therefore whole snapshots — must not depend on which threads
// (and which shards) took which increments.
TEST(DeterminismTest, MetricsRegistryMergeAcrossPools) {
  ExpectSameAcrossPools<obs::MetricsSnapshot>([] {
    obs::MetricsRegistry registry;
    obs::Counter& items = registry.GetCounter("det.items");
    obs::Counter& weighted = registry.GetCounter("det.weighted");
    obs::HistogramMetric& histogram =
        registry.GetHistogram("det.hist", 0.0, 1.0, 32);
    ParallelFor(10000, [&](size_t i) {
      items.Add(1);
      weighted.Add(i % 7);
      // Deterministic per-index value: same observation set regardless of
      // which thread lands it (including some under/overflow and NaN).
      const double value = static_cast<double>(i % 130) / 100.0 - 0.1;
      histogram.Observe(i % 997 == 0 ? std::nan("") : value);
    });
    registry.GetGauge("det.gauge").Set(static_cast<double>(items.Value()));
    return registry.Snapshot();
  });
}

// The paper DP as it ran before its price band grew on demand: prewarm every
// group up to its 1 + spare / u + 1 bound, then the same marginal-gain loop.
// The on-demand band must reproduce its prices exactly.
std::vector<int> EagerPaperDp(const TuningProblem& problem) {
  const size_t n = problem.groups.size();
  std::vector<GroupLatencyTable> tables;
  std::vector<long> unit_cost(n);
  for (size_t i = 0; i < n; ++i) {
    tables.emplace_back(problem.groups[i]);
    unit_cost[i] = problem.groups[i].UnitCost();
  }
  const long spare = problem.budget - problem.MinimumBudget();
  std::vector<int> max_price(n);
  for (size_t i = 0; i < n; ++i) {
    max_price[i] = static_cast<int>(1 + spare / unit_cost[i]) + 1;
  }
  PrewarmTables(tables, max_price);
  std::vector<std::vector<double>> phase1(n);
  for (size_t i = 0; i < n; ++i) {
    phase1[i] = tables[i].FlatPhase1(max_price[i]);
  }

  DpPriceTree tree(n, /*price=*/1, /*values=*/{});
  std::vector<int32_t> root_at(static_cast<size_t>(spare) + 1, tree.root());
  std::vector<double> objective_at(static_cast<size_t>(spare) + 1, 0.0);
  for (size_t i = 0; i < n; ++i) {
    objective_at[0] += phase1[i][1];
  }
  for (long x = 1; x <= spare; ++x) {
    double best = objective_at[static_cast<size_t>(x - 1)];
    size_t best_group = n;
    int best_price = 0;
    for (size_t i = 0; i < n; ++i) {
      if (unit_cost[i] > x) continue;
      const size_t from = static_cast<size_t>(x - unit_cost[i]);
      const int p = tree.PriceAt(root_at[from], i);
      const double candidate =
          objective_at[from] - (phase1[i][static_cast<size_t>(p)] -
                                phase1[i][static_cast<size_t>(p) + 1]);
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
  return tree.Prices(root_at[static_cast<size_t>(spare)]);
}

std::shared_ptr<const PriceRateCurve> Curve(const std::string& spec) {
  auto curve = ParseCurveSpec(spec);
  HTUNE_CHECK_OK(curve.status());
  return *curve;
}

// One seeded problem: 1-64 groups of 1-5 tasks x 1-7 repetitions, each on
// one of the curve families, at a budget factor in [1, 12]. Every fourth
// problem leaves less spare than its costliest group's unit cost, so that
// group can never leave price 1.
TuningProblem BandProblem(uint64_t seed) {
  static const std::vector<std::shared_ptr<const PriceRateCurve>> curves = {
      Curve("linear 0.5 0.5"), Curve("quadratic 0.02 0.5"), Curve("log 2"),
      Curve("sigmoid 6 8 3"),
      // Flat plateaus, then a flat tail: long zero-gain stretches.
      Curve("table 1:0.5,3:0.5,5:1.5,9:1.5,12:3,20:3")};
  Random rng(seed);
  TuningProblem problem;
  const int groups = 1 + static_cast<int>(rng.UniformInt(64));
  long max_unit = 0;
  for (int g = 0; g < groups; ++g) {
    TaskGroup group;
    group.name = "b" + std::to_string(g);
    group.num_tasks = 1 + static_cast<int>(rng.UniformInt(5));
    group.repetitions = 1 + static_cast<int>(rng.UniformInt(7));
    group.processing_rate = 1.0 + static_cast<double>(rng.UniformInt(4));
    group.curve = curves[rng.UniformInt(curves.size())];
    max_unit = std::max(max_unit, group.UnitCost());
    problem.groups.push_back(std::move(group));
  }
  const long minimum = problem.MinimumBudget();
  if (seed % 4 == 0) {
    const uint64_t below = static_cast<uint64_t>(max_unit);
    problem.budget = minimum + static_cast<long>(rng.UniformInt(below));
  } else {
    problem.budget = std::lround(static_cast<double>(minimum) *
                                 rng.UniformRange(1.0, 12.0));
  }
  return problem;
}

TEST(DeterminismTest, OnDemandPaperDpBandMatchesEagerPrewarm) {
  constexpr uint64_t kProblems = 200;
  std::vector<TuningProblem> problems;
  std::vector<std::vector<int>> expected;
  int pinned_at_one = 0;
  for (uint64_t seed = 0; seed < kProblems; ++seed) {
    problems.push_back(BandProblem(seed));
    const TuningProblem& problem = problems.back();
    const long spare = problem.budget - problem.MinimumBudget();
    for (const TaskGroup& g : problem.groups) {
      pinned_at_one += g.UnitCost() > spare ? 1 : 0;
    }
    expected.push_back(EagerPaperDp(problem));
  }
  ASSERT_GT(pinned_at_one, 0);

  const RepetitionAllocator tuner(RepetitionAllocator::Mode::kPaperDp);
  for (const int threads : {1, 4}) {
    ThreadPool pool(threads);
    ScopedDefaultThreadPool scoped(&pool);
    GlobalLatencyCache().Clear();
    for (size_t k = 0; k < problems.size(); ++k) {
      const auto prices = tuner.SolvePrices(problems[k]);
      ASSERT_TRUE(prices.ok());
      EXPECT_EQ(*prices, expected[k])
          << "problem " << k << " under " << threads << " lanes";
    }
  }
}

// serve_plan_heavy's job shape: 24 groups of 1-3 tasks x 1-7 repetitions over
// its three curves, at budget factor 8.
TuningProblem PlanHeavyProblem() {
  const std::vector<std::shared_ptr<const PriceRateCurve>> curves = {
      Curve("linear 0.5 0.5"), Curve("quadratic 0.02 0.5"), Curve("log 2")};
  Random rng(31);
  TuningProblem problem;
  for (int g = 0; g < 24; ++g) {
    TaskGroup group;
    group.name = "p" + std::to_string(g);
    group.num_tasks = 1 + static_cast<int>(rng.UniformInt(3));
    group.repetitions = 1 + static_cast<int>(rng.UniformInt(7));
    group.processing_rate = 1.0 + static_cast<double>(rng.UniformInt(4));
    group.curve = curves[static_cast<size_t>(g % 3)];
    problem.groups.push_back(std::move(group));
  }
  problem.budget =
      std::lround(static_cast<double>(problem.MinimumBudget()) * 8.0);
  return problem;
}

// Each group's 1 + spare / u + 1 bound: what the eager prewarm filled.
std::vector<int> PriceBounds(const TuningProblem& problem) {
  const long spare = problem.budget - problem.MinimumBudget();
  std::vector<int> bounds;
  for (const TaskGroup& g : problem.groups) {
    bounds.push_back(static_cast<int>(1 + spare / g.UnitCost()) + 1);
  }
  return bounds;
}

TEST(PaperDpBandTest, LooksUpUnderATenthOfThePriceBounds) {
  const TuningProblem problem = PlanHeavyProblem();
  long bound_sum = 0;
  for (const int bound : PriceBounds(problem)) {
    bound_sum += bound;
  }
  GlobalLatencyCache().Clear();
  const RepetitionAllocator tuner(RepetitionAllocator::Mode::kPaperDp);
  ASSERT_TRUE(tuner.SolvePrices(problem).ok());
  const LatencyCacheStats stats = GlobalLatencyCache().Stats();
  EXPECT_GT(stats.misses, 0u);
  EXPECT_LT(stats.hits + stats.misses, static_cast<uint64_t>(bound_sum / 10));
}

// The traced benchmark sums the prewarm, dp and backtrack spans as tuning
// time, so a band growth inside the DP must not open a prewarm span of its
// own: one solve, one prewarm span, one dp span.
TEST(PaperDpBandTest, BandGrowthOpensNoPrewarmSpan) {
  const TuningProblem problem = PlanHeavyProblem();
  const obs::Counter& prewarms =
      obs::GlobalMetrics().GetCounter("span.allocator.prewarm.count");
  const obs::Counter& dps =
      obs::GlobalMetrics().GetCounter("span.allocator.dp.count");
  GlobalLatencyCache().Clear();
  const uint64_t prewarms_before = prewarms.Value();
  const uint64_t dps_before = dps.Value();
  const RepetitionAllocator tuner(RepetitionAllocator::Mode::kPaperDp);
  ASSERT_TRUE(tuner.SolvePrices(problem).ok());
  EXPECT_EQ(prewarms.Value() - prewarms_before, 1u);
  EXPECT_EQ(dps.Value() - dps_before, 1u);
}

TEST(LatencyCacheTest, HitOnlyProbeInsertsNothingOnAMiss) {
  LatencyKernelCache cache;
  const auto curve = Curve("linear 0.5 0.5");
  const GroupShape shape{3, 4, 2.0};
  double value = -1.0;
  EXPECT_FALSE(cache.TryPhase1(shape, curve, 5, &value));
  EXPECT_EQ(value, -1.0);
  LatencyCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.entries, 0u);

  const double computed = cache.Phase1(shape, curve, 5);
  ASSERT_TRUE(cache.TryPhase1(shape, curve, 5, &value));
  EXPECT_EQ(std::bit_cast<uint64_t>(value), std::bit_cast<uint64_t>(computed));
  stats = cache.Stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(LatencyCacheTest, WarmPrewarmSendsNoSlotToThePool) {
  const TuningProblem problem = PlanHeavyProblem();
  const std::vector<int> bounds = PriceBounds(problem);
  const auto fresh_tables = [&] {
    std::vector<GroupLatencyTable> tables;
    for (const TaskGroup& g : problem.groups) {
      tables.emplace_back(g);
    }
    return tables;
  };
  const obs::Counter& filled =
      obs::GlobalMetrics().GetCounter("allocator.prewarm_slots_filled");
  ThreadPool pool(4);
  ScopedDefaultThreadPool scoped(&pool);
  GlobalLatencyCache().Clear();

  std::vector<GroupLatencyTable> cold = fresh_tables();
  const uint64_t before_cold = filled.Value();
  PrewarmTables(cold, bounds);
  EXPECT_GT(filled.Value(), before_cold);

  std::vector<GroupLatencyTable> warm = fresh_tables();
  const LatencyCacheStats before = GlobalLatencyCache().Stats();
  const uint64_t before_warm = filled.Value();
  PrewarmTables(warm, bounds);
  EXPECT_EQ(filled.Value(), before_warm);
  const LatencyCacheStats after = GlobalLatencyCache().Stats();
  EXPECT_EQ(after.misses, before.misses);
  EXPECT_EQ(after.entries, before.entries);
  for (size_t i = 0; i < warm.size(); ++i) {
    EXPECT_EQ(warm[i].FlatPhase1(bounds[i]), cold[i].FlatPhase1(bounds[i]));
  }
}

}  // namespace
}  // namespace htune
