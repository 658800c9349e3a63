#include "common/parallel.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "model/latency_cache.h"
#include "model/latency_model.h"
#include "model/order_statistics.h"
#include "model/price_rate_curve.h"
#include "rng/random.h"
#include "spec/job_spec.h"
#include "tuning/group_latency_table.h"
#include "tuning/repetition_allocator.h"

namespace htune {
namespace {

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  for (const int threads : {1, 4}) {
    ThreadPool pool(threads);
    for (const size_t n : {size_t{1}, size_t{7}, size_t{1000}}) {
      std::vector<std::atomic<int>> hits(n);
      for (auto& h : hits) h.store(0);
      pool.ParallelFor(n, [&](size_t i) { hits[i].fetch_add(1); });
      for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(hits[i].load(), 1) << "threads=" << threads << " i=" << i;
      }
    }
  }
}

TEST(ParallelForTest, ZeroIndicesIsANoOp) {
  ThreadPool pool(4);
  bool ran = false;
  pool.ParallelFor(0, [&](size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ParallelForTest, WritesLandInPerIndexSlots) {
  ThreadPool pool(4);
  std::vector<double> slots(512, 0.0);
  pool.ParallelFor(slots.size(), [&](size_t i) {
    slots[i] = static_cast<double>(i) * 1.5;
  });
  for (size_t i = 0; i < slots.size(); ++i) {
    EXPECT_EQ(slots[i], static_cast<double>(i) * 1.5);
  }
}

TEST(ParallelForTest, PropagatesTheFirstBodyException) {
  for (const int threads : {1, 4}) {
    ThreadPool pool(threads);
    EXPECT_THROW(
        pool.ParallelFor(100,
                         [&](size_t i) {
                           if (i == 37) throw std::runtime_error("boom");
                         }),
        std::runtime_error);
    // The pool survives a failed region: a fresh region still completes.
    std::atomic<int> completed{0};
    pool.ParallelFor(100, [&](size_t) { completed.fetch_add(1); });
    EXPECT_EQ(completed.load(), 100) << "threads=" << threads;
  }
}

TEST(ParallelForTest, NestedRegionsComplete) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(64);
  for (auto& h : hits) h.store(0);
  pool.ParallelFor(8, [&](size_t outer) {
    pool.ParallelFor(8, [&](size_t inner) {
      hits[outer * 8 + inner].fetch_add(1);
    });
  });
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "i=" << i;
  }
}

TEST(ParallelMapTest, SlotsHoldFnOfIndex) {
  ThreadPool pool(4);
  const std::vector<int> out =
      pool.ParallelMap<int>(100, [](size_t i) { return static_cast<int>(i * i); });
  ASSERT_EQ(out.size(), 100u);
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], static_cast<int>(i * i));
  }
}

TEST(DefaultThreadCountTest, HonorsEnvironmentOverride) {
  ::setenv("HTUNE_THREADS", "3", 1);
  EXPECT_EQ(DefaultThreadCount(), 3);
  ::setenv("HTUNE_THREADS", "0", 1);  // out of range: falls back to hardware
  EXPECT_GE(DefaultThreadCount(), 1);
  ::setenv("HTUNE_THREADS", "junk", 1);
  EXPECT_GE(DefaultThreadCount(), 1);
  ::unsetenv("HTUNE_THREADS");
  EXPECT_GE(DefaultThreadCount(), 1);
}

TEST(ScopedDefaultThreadPoolTest, OverridesAndRestores) {
  const int base_threads = DefaultThreadPool().threads();
  {
    ThreadPool pool(2);
    ScopedDefaultThreadPool scoped(&pool);
    EXPECT_EQ(&DefaultThreadPool(), &pool);
    EXPECT_EQ(DefaultThreadPool().threads(), 2);
    std::vector<int> slots(16, 0);
    ParallelFor(slots.size(), [&](size_t i) { slots[i] = 1; });
    for (int v : slots) EXPECT_EQ(v, 1);
  }
  EXPECT_EQ(DefaultThreadPool().threads(), base_threads);
}

GroupShape Shape(int num_tasks, int repetitions) {
  GroupShape shape;
  shape.num_tasks = num_tasks;
  shape.repetitions = repetitions;
  return shape;
}

TaskGroup Group(int num_tasks, int repetitions,
                std::shared_ptr<const PriceRateCurve> curve) {
  TaskGroup group;
  group.name = "g";
  group.num_tasks = num_tasks;
  group.repetitions = repetitions;
  group.curve = std::move(curve);
  return group;
}

// M(n, k): the scale-free kernel at on-hold rate 1, uncached.
double Kernel(int num_tasks, int repetitions) {
  return ExpectedGroupOnHoldLatencyAtRate(Shape(num_tasks, repetitions), 1.0);
}

uint64_t Bits(double value) { return std::bit_cast<uint64_t>(value); }

TEST(LatencyCacheTest, ConcurrentLookupsMatchSerialKernel) {
  GlobalLatencyCache().Clear();
  // 16 distinct (tasks, repetitions) keys, each requested from 64 indices
  // at once on 4 lanes.
  const int kKeys = 16;
  const int kRequests = 64 * kKeys;
  const auto shape_of = [](int key) { return Shape(5 + key % 4, 1 + key / 4); };
  std::vector<double> got(static_cast<size_t>(kRequests), 0.0);
  ThreadPool pool(4);
  pool.ParallelFor(static_cast<size_t>(kRequests), [&](size_t i) {
    got[i] = GlobalLatencyCache().UnitRatePhase1(
        shape_of(static_cast<int>(i) % kKeys));
  });
  for (int key = 0; key < kKeys; ++key) {
    const GroupShape shape = shape_of(key);
    const double expect = Kernel(shape.num_tasks, shape.repetitions);
    for (int i = key; i < kRequests; i += kKeys) {
      EXPECT_EQ(Bits(got[static_cast<size_t>(i)]), Bits(expect))
          << "key=" << key;
    }
  }
  const LatencyCacheStats stats = GlobalLatencyCache().Stats();
  EXPECT_EQ(stats.hits + stats.misses, static_cast<uint64_t>(kRequests));
  // A racing pair may both miss, but entries are keyed uniquely.
  EXPECT_EQ(stats.entries, static_cast<uint64_t>(kKeys));
  // Each lane misses a key at most once before the first insert lands.
  EXPECT_GE(stats.hits,
            static_cast<uint64_t>(kRequests - pool.threads() * kKeys));
}

TEST(LatencyCacheTest, ClearDropsEntriesAndCounters) {
  GlobalLatencyCache().Clear();
  GlobalLatencyCache().UnitRatePhase1(Shape(4, 2));
  EXPECT_EQ(GlobalLatencyCache().Stats().entries, 1u);
  GlobalLatencyCache().Clear();
  const LatencyCacheStats stats = GlobalLatencyCache().Stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);
}

// Tables over fresh curve objects against a concurrent Clear(): whatever
// entries a wipe drops or keeps, every lookup returns the kernel's value
// over the curve's rate.
TEST(LatencyCacheTest, ClearRacingLookupsReturnKernelValues) {
  GlobalLatencyCache().Clear();
  ThreadPool pool(4);
  const size_t kIters = 4000;
  const auto group_of = [](size_t i) {
    return Group(2 + static_cast<int>(i % 3), 1 + static_cast<int>(i % 2),
                 std::make_shared<LinearCurve>(
                     1.0 + static_cast<double>(i % 7), 1.0));
  };
  const auto price_of = [](size_t i) { return 1 + static_cast<int>(i % 4); };
  std::vector<double> got(kIters, 0.0);
  pool.ParallelFor(kIters, [&](size_t i) {
    if (i % 17 == 0) {
      GlobalLatencyCache().Clear();
      return;
    }
    got[i] = GroupLatencyTable(group_of(i)).Phase1(price_of(i));
  });
  for (size_t i = 0; i < kIters; ++i) {
    if (i % 17 == 0) continue;
    const TaskGroup group = group_of(i);
    const double rate = group.curve->Rate(price_of(i));
    EXPECT_EQ(Bits(got[i]),
              Bits(Kernel(group.num_tasks, group.repetitions) / rate))
        << "i=" << i;
  }
  GlobalLatencyCache().Clear();
}

TEST(LatencyCacheTest, ProcessingRateDoesNotSplitEntries) {
  GlobalLatencyCache().Clear();
  GroupShape fast = Shape(6, 3);
  fast.processing_rate = 10.0;
  GroupShape slow = fast;
  slow.processing_rate = 0.5;
  const double a = GlobalLatencyCache().UnitRatePhase1(fast);
  const double b = GlobalLatencyCache().UnitRatePhase1(slow);
  EXPECT_EQ(Bits(a), Bits(b));
  const LatencyCacheStats stats = GlobalLatencyCache().Stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.hits, 1u);
}

TEST(LatencyCacheTest, SeparatelyParsedCurvesShareOneEntry) {
  GlobalLatencyCache().Clear();
  const auto first = ParseCurveSpec("linear 0.5 0.5");
  const auto second = ParseCurveSpec("linear 0.5 0.5");
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  ASSERT_NE(first->get(), second->get());
  const double a = GroupLatencyTable(Group(7, 3, *first)).Phase1(4);
  const double b = GroupLatencyTable(Group(7, 3, *second)).Phase1(4);
  EXPECT_EQ(Bits(a), Bits(b));
  const LatencyCacheStats stats = GlobalLatencyCache().Stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.hits, 1u);
}

TEST(LatencyCacheTest, DifferentCurvesAtTheSameRateShareOneEntry) {
  GlobalLatencyCache().Clear();
  // 1 * 2 + 1 == 0.5 * 2 + 2 == 3, exactly.
  const GroupLatencyTable steep(
      Group(5, 2, std::make_shared<LinearCurve>(1.0, 1.0)));
  const GroupLatencyTable flat(
      Group(5, 2, std::make_shared<LinearCurve>(0.5, 2.0)));
  const double a = steep.Phase1(2);
  EXPECT_EQ(Bits(a), Bits(flat.Phase1(2)));
  EXPECT_EQ(Bits(a), Bits(Kernel(5, 2) / 3.0));
  // Curves that differ in rate share the entry too: it holds no rate.
  EXPECT_EQ(Bits(flat.Phase1(4)), Bits(Kernel(5, 2) / 4.0));
  const LatencyCacheStats stats = GlobalLatencyCache().Stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.hits, 1u);
}

TEST(LatencyCacheTest, AbandonmentAdjustedCurveUsesTheCorrectedRate) {
  GlobalLatencyCache().Clear();
  const auto base = std::make_shared<LinearCurve>(1.0, 1.0);
  AbandonmentModel model;
  model.prob = 0.3;
  model.hold_rate = 2.0;
  const auto adjusted = AdjustCurveForAbandonment(base, model);
  const double corrected = EffectiveOnHoldRate(base->Rate(3.0), model);
  ASSERT_NE(corrected, base->Rate(3.0));
  EXPECT_EQ(Bits(GroupLatencyTable(Group(6, 2, adjusted)).Phase1(3)),
            Bits(Kernel(6, 2) / corrected));
  EXPECT_EQ(Bits(GroupLatencyTable(Group(6, 2, base)).Phase1(3)),
            Bits(Kernel(6, 2) / base->Rate(3.0)));
  EXPECT_EQ(GlobalLatencyCache().Stats().entries, 1u);
}

// The scale-free kernel behind every allocator: Erlang(k, lambda) is
// Erlang(k, 1) / lambda in distribution, so a table's phase-1 latency is
// M(n, k) / lambda with M(n, k) = E[max of n Erlang(k, 1)].
TEST(LatencyCacheScalingTest, TablePhase1IsTheKernelOverTheRateBitwise) {
  GlobalLatencyCache().Clear();
  for (const char* spec : {"linear 0.5 0.5", "quadratic 0.02 0.5", "log 2",
                           "sigmoid 6 8 3",
                           "table 1:0.5,3:0.5,5:1.5,9:1.5,12:3,20:3"}) {
    const auto curve = ParseCurveSpec(spec);
    ASSERT_TRUE(curve.ok());
    for (const int n : {1, 3, 40}) {
      for (const int k : {1, 2, 5}) {
        const GroupLatencyTable table(Group(n, k, *curve));
        const std::vector<double> flat = table.FlatPhase1(30);
        for (int price = 1; price <= 30; ++price) {
          const double expect = Kernel(n, k) / (*curve)->Rate(price);
          EXPECT_EQ(Bits(table.Phase1(price)), Bits(expect))
              << spec << " n=" << n << " k=" << k << " price=" << price;
          EXPECT_EQ(Bits(flat[static_cast<size_t>(price)]), Bits(expect));
        }
      }
    }
  }
}

TEST(LatencyCacheScalingTest, SingleRepetitionKernelIsTheHarmonicNumber) {
  for (const int n : {1, 2, 3, 10, 64, 65, 512, 10000}) {
    long double harmonic = 0.0L;
    for (int i = n; i >= 1; --i) {
      harmonic += 1.0L / static_cast<long double>(i);
    }
    const double expect = static_cast<double>(harmonic);
    EXPECT_NEAR(GlobalLatencyCache().UnitRatePhase1(Shape(n, 1)), expect,
                1e-12 * expect)
        << "n=" << n;
  }
}

// The largest relative gap between M(n, k) / lambda and the at-rate
// quadrature ExpectedMaxErlang(n, k, lambda): both integrate to an absolute
// tolerance, so the gap is widest at the fastest rates, where the latency
// itself is smallest.
constexpr double kScalingTolerance = 1e-8;

TEST(LatencyCacheScalingTest, KernelMatchesTheAtRateReference) {
  for (const int n : {1, 2, 64, 512}) {
    for (int k = 1; k <= 7; ++k) {
      const double kernel = GlobalLatencyCache().UnitRatePhase1(Shape(n, k));
      for (const double lambda : {1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0, 1e3}) {
        const double reference = ExpectedMaxErlang(n, k, lambda);
        EXPECT_NEAR(kernel / lambda, reference,
                    kScalingTolerance * reference)
            << "n=" << n << " k=" << k << " lambda=" << lambda;
      }
    }
  }
}

TEST(LatencyCacheScalingTest, KernelMatchesMonteCarloAtExtremeRates) {
  constexpr int kTrials = 20000;
  for (const double lambda : {1e-3, 1e3}) {
    for (const auto& [n, k] : {std::pair{1, 4}, std::pair{8, 3},
                               std::pair{64, 2}}) {
      Random rng(static_cast<uint64_t>(n * 10 + k));
      double sum = 0.0;
      double sum_sq = 0.0;
      for (int trial = 0; trial < kTrials; ++trial) {
        double worst = 0.0;
        for (int task = 0; task < n; ++task) {
          worst = std::max(worst, rng.Erlang(k, lambda));
        }
        sum += worst;
        sum_sq += worst * worst;
      }
      const double mean = sum / kTrials;
      const double stderr_mean =
          std::sqrt((sum_sq / kTrials - mean * mean) / kTrials);
      const double kernel = GlobalLatencyCache().UnitRatePhase1(Shape(n, k));
      EXPECT_NEAR(kernel / lambda, mean, 4.0 * stderr_mean)
          << "n=" << n << " k=" << k << " lambda=" << lambda;
    }
  }
}

// A long-running server parses a fresh curve object for every job; serving
// the same job again must not add entries.
TEST(LatencyCacheTest, RepeatedJobSpecSolvesDoNotGrowTheCache) {
  GlobalLatencyCache().Clear();
  const char* kSpec =
      "budget = 400\n"
      "[group]\n"
      "tasks = 6\n"
      "repetitions = 3\n"
      "curve = linear 0.5 0.5\n"
      "[group]\n"
      "tasks = 9\n"
      "repetitions = 2\n"
      "curve = log 2\n";
  const RepetitionAllocator tuner;
  uint64_t first_entries = 0;
  for (int run = 0; run < 10; ++run) {
    const auto spec = ParseJobSpec(kSpec);
    ASSERT_TRUE(spec.ok()) << spec.status();
    ASSERT_TRUE(tuner.SolvePrices(spec->problem).ok());
    const uint64_t entries = GlobalLatencyCache().Stats().entries;
    if (run == 0) {
      first_entries = entries;
      ASSERT_GT(first_entries, 0u);
    }
    EXPECT_EQ(entries, first_entries) << "run=" << run;
  }
}

}  // namespace
}  // namespace htune
