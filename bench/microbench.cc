// Micro-cost suite (google-benchmark): the numerical kernels and optimizer
// inner loops whose constants determine whether the tuners are usable
// interactively, plus market simulator event throughput.

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "common/parallel.h"
#include "market/simulator.h"
#include "model/latency_cache.h"
#include "spec/job_spec.h"
#include "stats/kaplan_meier.h"
#include "tuning/evaluator.h"
#include "tuning/quantile.h"
#include "model/distributions.h"
#include "model/hypoexponential.h"
#include "model/order_statistics.h"
#include "rng/random.h"
#include "tuning/heterogeneous_allocator.h"
#include "tuning/repetition_allocator.h"

namespace htune {
namespace {

void BM_ErlangCdf(benchmark::State& state) {
  const ErlangDist dist(static_cast<int>(state.range(0)), 2.0);
  double t = 0.1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(dist.Cdf(t));
    t += 0.1;
    if (t > 20.0) t = 0.1;
  }
}
BENCHMARK(BM_ErlangCdf)->Arg(1)->Arg(5)->Arg(20);

void BM_HypoexponentialCdf(benchmark::State& state) {
  std::vector<double> rates;
  for (long i = 0; i < state.range(0); ++i) {
    rates.push_back(1.0 + static_cast<double>(i % 4));
  }
  const HypoexponentialDist dist(rates);
  double t = 0.5;
  for (auto _ : state) {
    benchmark::DoNotOptimize(dist.Cdf(t));
    t += 0.5;
    if (t > 30.0) t = 0.5;
  }
}
BENCHMARK(BM_HypoexponentialCdf)->Arg(2)->Arg(8)->Arg(24);

void BM_ExpectedMaxErlang(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ExpectedMaxErlang(static_cast<int>(state.range(0)), 5, 3.0));
  }
}
BENCHMARK(BM_ExpectedMaxErlang)->Arg(10)->Arg(100);

std::shared_ptr<const PriceRateCurve> BenchCurve() {
  static const auto curve = std::make_shared<LinearCurve>(1.0, 1.0);
  return curve;
}

TuningProblem BenchProblem(long budget) {
  TaskGroup a;
  a.name = "a";
  a.num_tasks = 50;
  a.repetitions = 3;
  a.processing_rate = 2.0;
  a.curve = BenchCurve();
  TaskGroup b = a;
  b.repetitions = 5;
  b.processing_rate = 3.0;
  TuningProblem problem;
  problem.groups = {a, b};
  problem.budget = budget;
  return problem;
}

void BM_RepetitionAllocator(benchmark::State& state) {
  const TuningProblem problem = BenchProblem(state.range(0));
  const RepetitionAllocator tuner;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tuner.SolvePrices(problem));
  }
}
BENCHMARK(BM_RepetitionAllocator)->Arg(1000)->Arg(5000)
    ->Unit(benchmark::kMillisecond);

void BM_HeterogeneousAllocator(benchmark::State& state) {
  const TuningProblem problem = BenchProblem(state.range(0));
  const HeterogeneousAllocator tuner;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tuner.SolvePrices(problem));
  }
}
BENCHMARK(BM_HeterogeneousAllocator)->Arg(1000)->Arg(5000)
    ->Unit(benchmark::kMillisecond);

// 16 distinct group shapes (tasks x repetitions cross product) replicated
// `copies` times each — 64 groups at copies=4, 256 at copies=16. Copies of a
// shape reach the same on-hold rates, so the global latency cache dedupes
// the quadrature kernel across them.
TuningProblem ManyGroupProblem(int copies) {
  TuningProblem problem;
  long unit_cost_sum = 0;
  for (int c = 0; c < copies; ++c) {
    for (const int tasks : {20, 30, 40, 50}) {
      for (const int reps : {2, 3, 4, 5}) {
        TaskGroup g;
        g.name = "g" + std::to_string(problem.groups.size());
        g.num_tasks = tasks;
        g.repetitions = reps;
        g.processing_rate = 2.0;
        g.curve = BenchCurve();
        unit_cost_sum += tasks * reps;
        problem.groups.push_back(std::move(g));
      }
    }
  }
  // Minimum spend plus a fixed spare so the DP depth (and therefore the
  // price range the kernels are evaluated over) is the same at every size.
  problem.budget = unit_cost_sum + 2000;
  return problem;
}

// End-to-end cold solve: the cache is cleared outside the timed region, so
// each iteration pays the full quadrature bill once per distinct
// (shape, rate) — copies of a shape share entries.
void BM_RepetitionAllocatorManyGroups(benchmark::State& state) {
  const TuningProblem problem =
      ManyGroupProblem(static_cast<int>(state.range(0)));
  const RepetitionAllocator tuner;
  for (auto _ : state) {
    state.PauseTiming();
    GlobalLatencyCache().Clear();
    state.ResumeTiming();
    benchmark::DoNotOptimize(tuner.SolvePrices(problem));
  }
  state.counters["groups"] =
      static_cast<double>(problem.groups.size());
}
BENCHMARK(BM_RepetitionAllocatorManyGroups)->Arg(4)->Arg(16)
    ->Unit(benchmark::kMillisecond);

void BM_HeterogeneousAllocatorManyGroups(benchmark::State& state) {
  const TuningProblem problem =
      ManyGroupProblem(static_cast<int>(state.range(0)));
  const HeterogeneousAllocator tuner;
  for (auto _ : state) {
    state.PauseTiming();
    GlobalLatencyCache().Clear();
    state.ResumeTiming();
    benchmark::DoNotOptimize(tuner.SolvePrices(problem));
  }
  state.counters["groups"] =
      static_cast<double>(problem.groups.size());
}
BENCHMARK(BM_HeterogeneousAllocatorManyGroups)->Arg(4)
    ->Unit(benchmark::kMillisecond);

// serve_plan_heavy's job shape: 24 groups of 1-3 tasks x 1-7 repetitions over
// its three curves, at budget factor 8 (the same problem as the paper DP's
// work-bound test).
TuningProblem PlanHeavyProblem() {
  std::vector<std::shared_ptr<const PriceRateCurve>> curves;
  for (const char* spec : {"linear 0.5 0.5", "quadratic 0.02 0.5", "log 2"}) {
    curves.push_back(*ParseCurveSpec(spec));
  }
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

// One plan_heavy job's paper-DP solve on a warm kernel cache, the state a
// serving process reaches after its first few jobs.
void BM_RepetitionAllocatorPlanHeavy(benchmark::State& state) {
  const TuningProblem problem = PlanHeavyProblem();
  const RepetitionAllocator tuner;
  benchmark::DoNotOptimize(tuner.SolvePrices(problem));  // warm the cache
  for (auto _ : state) {
    benchmark::DoNotOptimize(tuner.SolvePrices(problem));
  }
}
BENCHMARK(BM_RepetitionAllocatorPlanHeavy)->Unit(benchmark::kMicrosecond);

// Warm-path cost of one memoized kernel lookup.
void BM_LatencyCacheHit(benchmark::State& state) {
  const auto curve = BenchCurve();
  GroupShape shape;
  shape.num_tasks = 50;
  shape.repetitions = 3;
  GlobalLatencyCache().Phase1(shape, curve, 2);  // warm the entry
  for (auto _ : state) {
    benchmark::DoNotOptimize(GlobalLatencyCache().Phase1(shape, curve, 2));
  }
}
BENCHMARK(BM_LatencyCacheHit);

// Fork/join overhead of an n-index region with a trivial body.
void BM_ParallelForOverhead(benchmark::State& state) {
  std::vector<double> slots(static_cast<size_t>(state.range(0)), 0.0);
  for (auto _ : state) {
    ParallelFor(slots.size(), [&](size_t i) {
      slots[i] += 1.0;
    });
    benchmark::DoNotOptimize(slots.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ParallelForOverhead)->Arg(64)->Arg(4096);

void BM_ParallelMonteCarlo(benchmark::State& state) {
  const TuningProblem problem = BenchProblem(2000);
  const RepetitionAllocator tuner;
  const auto alloc = tuner.Allocate(problem);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ParallelMonteCarloOverallLatency(
        problem, *alloc, static_cast<int>(state.range(0)), 12345));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ParallelMonteCarlo)->Arg(400)
    ->Unit(benchmark::kMillisecond);

void BM_MarketThroughput(benchmark::State& state) {
  for (auto _ : state) {
    MarketConfig config;
    config.worker_arrival_rate = 100.0;
    config.seed = 1;
    config.record_trace = false;
    MarketSimulator market(config);
    for (long i = 0; i < state.range(0); ++i) {
      TaskSpec spec;
      spec.price_per_repetition = 2;
      spec.repetitions = 3;
      spec.on_hold_rate = 5.0;
      spec.processing_rate = 2.0;
      benchmark::DoNotOptimize(market.PostTask(spec));
    }
    benchmark::DoNotOptimize(market.RunToCompletion());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) * 3);
}
BENCHMARK(BM_MarketThroughput)->Arg(100)->Arg(1000)
    ->Unit(benchmark::kMillisecond);

void BM_KaplanMeierFit(benchmark::State& state) {
  Random rng(7);
  std::vector<SurvivalObservation> data;
  for (long i = 0; i < state.range(0); ++i) {
    const double t = rng.Exponential(1.0);
    data.push_back({std::min(t, 2.0), t <= 2.0});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(KaplanMeier::Fit(data));
  }
}
BENCHMARK(BM_KaplanMeierFit)->Arg(100)->Arg(10000);

void BM_SolveQuantileDeadline(benchmark::State& state) {
  const TuningProblem problem = BenchProblem(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(SolveQuantileDeadline(problem, 4.0, 0.9));
  }
}
BENCHMARK(BM_SolveQuantileDeadline)->Arg(600)
    ->Unit(benchmark::kMillisecond);

void BM_ParseJobSpec(benchmark::State& state) {
  const std::string spec =
      "budget = 1500\n[group]\ntasks = 30\nrepetitions = 3\n"
      "processing_rate = 2.0\ncurve = linear 1.0 1.0\n[group]\n"
      "tasks = 30\nrepetitions = 5\nprocessing_rate = 2.0\n"
      "curve = table 1:0.5,5:2.5,9:4.0\n";
  for (auto _ : state) {
    benchmark::DoNotOptimize(ParseJobSpec(spec));
  }
}
BENCHMARK(BM_ParseJobSpec);

void BM_MonteCarloSampling(benchmark::State& state) {
  Random rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.Erlang(5, 2.0));
  }
}
BENCHMARK(BM_MonteCarloSampling);

}  // namespace
}  // namespace htune

int main(int argc, char** argv) {
  benchmark::AddCustomContext("build_type", HTUNE_BUILD_TYPE);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
