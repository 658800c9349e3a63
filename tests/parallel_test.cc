#include "common/parallel.h"

#include <atomic>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "model/latency_cache.h"
#include "model/latency_model.h"
#include "model/price_rate_curve.h"
#include "spec/job_spec.h"
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

TEST(LatencyCacheTest, ConcurrentLookupsMatchSerialKernel) {
  GlobalLatencyCache().Clear();
  const auto curve = std::make_shared<LinearCurve>(1.0, 1.0);
  // 16 distinct (shape, price) keys, each requested from 64 indices at once.
  const int kKeys = 16;
  const int kRequests = 64 * kKeys;
  std::vector<double> got(static_cast<size_t>(kRequests), 0.0);
  ThreadPool pool(4);
  pool.ParallelFor(static_cast<size_t>(kRequests), [&](size_t i) {
    const int key = static_cast<int>(i) % kKeys;
    GroupShape shape;
    shape.num_tasks = 5 + key % 4;
    shape.repetitions = 1 + key / 4;
    got[i] = GlobalLatencyCache().Phase1(shape, curve, 1 + key % 3);
  });
  for (int key = 0; key < kKeys; ++key) {
    GroupShape shape;
    shape.num_tasks = 5 + key % 4;
    shape.repetitions = 1 + key / 4;
    const double expect =
        ExpectedGroupOnHoldLatency(shape, *curve, 1 + key % 3);
    for (int i = key; i < kRequests; i += kKeys) {
      EXPECT_EQ(got[static_cast<size_t>(i)], expect) << "key=" << key;
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
  const auto curve = std::make_shared<LinearCurve>(1.0, 1.0);
  GroupShape shape;
  shape.num_tasks = 4;
  shape.repetitions = 2;
  GlobalLatencyCache().Phase1(shape, curve, 2);
  EXPECT_GE(GlobalLatencyCache().Stats().entries, 1u);
  GlobalLatencyCache().Clear();
  const LatencyCacheStats stats = GlobalLatencyCache().Stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);
}

// Fresh curve objects per lookup against a concurrent Clear(): whatever
// entries a wipe drops or keeps, every lookup returns the kernel's value
// at the curve's rate.
TEST(LatencyCacheTest, ClearRacingLookupsReturnKernelValues) {
  GlobalLatencyCache().Clear();
  ThreadPool pool(4);
  const size_t kIters = 4000;
  const auto shape_of = [](size_t i) {
    GroupShape shape;
    shape.num_tasks = 2 + static_cast<int>(i % 3);
    shape.repetitions = 1 + static_cast<int>(i % 2);
    return shape;
  };
  const auto curve_of = [](size_t i) {
    return std::make_shared<LinearCurve>(1.0 + static_cast<double>(i % 7),
                                         1.0);
  };
  const auto price_of = [](size_t i) { return 1 + static_cast<int>(i % 4); };
  std::vector<double> got(kIters, 0.0);
  pool.ParallelFor(kIters, [&](size_t i) {
    if (i % 17 == 0) {
      GlobalLatencyCache().Clear();
      return;
    }
    got[i] = GlobalLatencyCache().Phase1(shape_of(i), curve_of(i),
                                         price_of(i));
  });
  for (size_t i = 0; i < kIters; ++i) {
    if (i % 17 == 0) continue;
    const double rate = curve_of(i)->Rate(price_of(i));
    EXPECT_EQ(got[i], ExpectedGroupOnHoldLatencyAtRate(shape_of(i), rate))
        << "i=" << i;
  }
  GlobalLatencyCache().Clear();
}

TEST(LatencyCacheTest, ProcessingRateDoesNotSplitEntries) {
  GlobalLatencyCache().Clear();
  const auto curve = std::make_shared<LinearCurve>(1.0, 1.0);
  GroupShape fast;
  fast.num_tasks = 6;
  fast.repetitions = 3;
  fast.processing_rate = 10.0;
  GroupShape slow = fast;
  slow.processing_rate = 0.5;
  const double a = GlobalLatencyCache().Phase1(fast, curve, 2);
  const double b = GlobalLatencyCache().Phase1(slow, curve, 2);
  EXPECT_EQ(a, b);
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
  GroupShape shape;
  shape.num_tasks = 7;
  shape.repetitions = 3;
  const double a = GlobalLatencyCache().Phase1(shape, *first, 4);
  const double b = GlobalLatencyCache().Phase1(shape, *second, 4);
  EXPECT_EQ(a, b);
  const LatencyCacheStats stats = GlobalLatencyCache().Stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.hits, 1u);
}

TEST(LatencyCacheTest, DifferentCurvesAtTheSameRateShareOneEntry) {
  GlobalLatencyCache().Clear();
  // 1 * 2 + 1 == 0.5 * 2 + 2 == 3, exactly.
  const auto steep = std::make_shared<LinearCurve>(1.0, 1.0);
  const auto flat = std::make_shared<LinearCurve>(0.5, 2.0);
  GroupShape shape;
  shape.num_tasks = 5;
  shape.repetitions = 2;
  const double a = GlobalLatencyCache().Phase1(shape, steep, 2);
  const double b = GlobalLatencyCache().Phase1(shape, flat, 2);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, ExpectedGroupOnHoldLatencyAtRate(shape, 3.0));
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
  GroupShape shape;
  shape.num_tasks = 6;
  shape.repetitions = 2;
  const double corrected = EffectiveOnHoldRate(base->Rate(3.0), model);
  ASSERT_NE(corrected, base->Rate(3.0));
  EXPECT_EQ(GlobalLatencyCache().Phase1(shape, adjusted, 3),
            ExpectedGroupOnHoldLatencyAtRate(shape, corrected));
  // The base curve's entry at the same price is a different key.
  EXPECT_EQ(GlobalLatencyCache().Phase1(shape, base, 3),
            ExpectedGroupOnHoldLatencyAtRate(shape, base->Rate(3.0)));
  EXPECT_EQ(GlobalLatencyCache().Stats().entries, 2u);
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
