// Observability overhead bench: the hot tuning + execution paths run twice
// in one binary — instrumentation enabled vs disabled via the runtime
// obs::SetEnabled switch — and the wall-clock ratio is reported. The design
// claim (DESIGN.md §8) is that spans and counters ride only coarse
// operations, so the enabled/disabled ratio stays within noise of 1.0;
// the bench FAILS (exit 1) when the ratio exceeds --max-ratio.
//
//   observability_overhead [--smoke] [--max-ratio=R]
//
// --smoke shrinks the workload for CI gating (default max ratio 1.05: the
// claimed <=2% overhead plus shared-runner noise headroom). Trials
// alternate enabled/disabled and each mode scores its MINIMUM wall time, so
// one-sided interference (page cache, turbo ramps, noisy neighbors) cannot
// fake an overhead or mask one.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/report.h"
#include "control/fault_tolerant_executor.h"
#include "market/simulator.h"
#include "model/price_rate_curve.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tuning/problem.h"
#include "tuning/repetition_allocator.h"

namespace htune {
namespace {

TuningProblem BenchProblem(long budget, int num_tasks,
                           const std::shared_ptr<const PriceRateCurve>& curve) {
  TaskGroup a;
  a.name = "a";
  a.num_tasks = num_tasks;
  a.repetitions = 3;
  a.processing_rate = 2.0;
  a.curve = curve;
  TaskGroup b = a;
  b.name = "b";
  b.repetitions = 5;
  b.processing_rate = 3.0;
  TuningProblem problem;
  problem.groups = {a, b};
  problem.budget = budget;
  return problem;
}

/// One end-to-end rep of the instrumented hot paths: allocate (latency
/// tables + DP + backtrack), then execute the job with reviews (market
/// dispatch + straggler/repost decisions).
double RunWorkload(long budget, int num_tasks, int reviews, uint64_t seed) {
  const auto curve = std::make_shared<LinearCurve>(1.0, 1.0);
  const TuningProblem problem = BenchProblem(budget, num_tasks, curve);

  const RepetitionAllocator allocator;
  FaultTolerantConfig config;
  config.review_interval = 0.5;
  config.max_reviews = reviews;
  const FaultTolerantExecutor executor(&allocator, config);

  MarketConfig market_config;
  market_config.worker_arrival_rate = 100.0;
  market_config.seed = seed;
  market_config.record_trace = false;
  MarketSimulator market(market_config);
  const std::vector<QuestionSpec> questions(
      static_cast<size_t>(problem.TotalTasks()));
  const auto report = executor.Run(market, problem, questions);
  if (!report.ok()) {
    std::fprintf(stderr, "workload failed: %s\n",
                 report.status().ToString().c_str());
    std::exit(2);
  }
  return report->latency;
}

double TimeWorkloadMs(int reps, long budget, int num_tasks, int reviews) {
  const auto start = std::chrono::steady_clock::now();
  double sink = 0.0;
  for (int r = 0; r < reps; ++r) {
    sink += RunWorkload(budget, num_tasks, reviews,
                        /*seed=*/1 + static_cast<uint64_t>(r));
  }
  const auto end = std::chrono::steady_clock::now();
  // Keep the accumulated latencies observable so the loop cannot fold.
  std::fprintf(stderr, "  (sink %.3f)\n", sink);
  return std::chrono::duration<double, std::milli>(end - start).count();
}

}  // namespace
}  // namespace htune

int main(int argc, char** argv) {
  bool smoke = false;
  double max_ratio = 1.05;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strncmp(argv[i], "--max-ratio=", 12) == 0) {
      max_ratio = std::atof(argv[i] + 12);
    }
  }

  // Each timed sample must be well clear of scheduler/timer noise (tens of
  // milliseconds), or the ratio gate flakes — smoke trims trials, not the
  // per-sample workload size.
  const int trials = smoke ? 3 : 5;
  const int reps = smoke ? 40 : 60;
  const long budget = smoke ? 1000 : 1200;
  const int num_tasks = smoke ? 50 : 60;
  const int reviews = smoke ? 16 : 24;

  htune::bench::Banner(
      "observability overhead (enabled vs disabled instrumentation)",
      "DESIGN.md §8 overhead bound");

  // Warm-up: fault in code paths and the thread pool before timing.
  htune::obs::SetEnabled(true);
  htune::TimeWorkloadMs(1, budget, num_tasks, reviews);

  double best_on = -1.0;
  double best_off = -1.0;
  for (int t = 0; t < trials; ++t) {
    htune::obs::SetEnabled(true);
    const double on = htune::TimeWorkloadMs(reps, budget, num_tasks, reviews);
    htune::obs::SetEnabled(false);
    const double off = htune::TimeWorkloadMs(reps, budget, num_tasks, reviews);
    htune::obs::SetEnabled(true);
    if (best_on < 0.0 || on < best_on) best_on = on;
    if (best_off < 0.0 || off < best_off) best_off = off;
    std::printf("trial %d: enabled %.2f ms, disabled %.2f ms\n", t + 1, on,
                off);
  }

  const double ratio = best_on / best_off;
  const htune::obs::MetricsSnapshot snapshot =
      htune::obs::GlobalMetrics().Snapshot();
  std::printf("\nbest-of-%d: enabled %.2f ms, disabled %.2f ms, "
              "ratio %.4f (max allowed %.2f)\n",
              trials, best_on, best_off, ratio, max_ratio);
  std::printf("instrumentation recorded %zu counters, %zu gauges; span ring "
              "holds %zu records (%llu dropped)\n",
              snapshot.counters.size(), snapshot.gauges.size(),
              htune::obs::GlobalTracer().Drain().size(),
              static_cast<unsigned long long>(
                  htune::obs::GlobalTracer().dropped()));
  if (ratio > max_ratio) {
    std::printf("FAIL: instrumentation overhead %.1f%% exceeds the %.1f%% "
                "budget\n",
                (ratio - 1.0) * 100.0, (max_ratio - 1.0) * 100.0);
    return 1;
  }
  std::printf("PASS: instrumentation overhead %.1f%% within budget\n",
              (ratio - 1.0) * 100.0);
  return 0;
}
