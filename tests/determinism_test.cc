// The parallel runtime's determinism contract, end to end: every allocator
// and the parallel Monte Carlo evaluator must produce bitwise-identical
// results whether the default pool has 1, 4, or hardware_concurrency lanes.

#include <cmath>
#include <memory>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "model/latency_cache.h"
#include "obs/metrics.h"
#include "spec/job_spec.h"
#include "tuning/deadline_allocator.h"
#include "tuning/evaluator.h"
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

}  // namespace
}  // namespace htune
