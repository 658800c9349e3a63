#include "platform/shared_market.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "durability/crc32c.h"
#include "durability/serialize.h"
#include "durability/snapshot.h"
#include "market/simulator.h"
#include "model/price_rate_curve.h"

namespace htune {
namespace {

std::shared_ptr<const PriceRateCurve> UnitCurve() {
  // Rate(p) = p: weights read directly as payment units.
  return std::make_shared<LinearCurve>(1.0, 0.0);
}

SharedMarketConfig BaseConfig() {
  SharedMarketConfig config;
  config.worker_arrival_rate = 50.0;
  config.worker_error_prob = 0.0;
  config.curve = UnitCurve();
  config.seed = 7;
  return config;
}

size_t CountAcceptances(const std::vector<TraceEvent>& trace) {
  size_t n = 0;
  for (const TraceEvent& event : trace) {
    if (event.kind == TraceEventKind::kTaskAccepted) ++n;
  }
  return n;
}

TEST(SharedMarketTest, ValidatesConfig) {
  SharedMarketConfig config = BaseConfig();
  EXPECT_TRUE(ValidateSharedMarketConfig(config).ok());
  config.worker_arrival_rate = 0.0;
  EXPECT_FALSE(ValidateSharedMarketConfig(config).ok());
  config = BaseConfig();
  config.worker_error_prob = 1.5;
  EXPECT_FALSE(ValidateSharedMarketConfig(config).ok());
  config = BaseConfig();
  config.curve = nullptr;
  EXPECT_FALSE(ValidateSharedMarketConfig(config).ok());
}

TEST(SharedMarketTest, RejectsMalformedSubmissions) {
  SharedMarket market(BaseConfig());
  ASSERT_TRUE(market.AddJob(3, 11).ok());
  EXPECT_FALSE(market.AddJob(3, 12).ok());  // not strictly ascending
  EXPECT_FALSE(market.AddJob(1, 13).ok());
  EXPECT_FALSE(market.PostTask(99, {5}, 1.0).ok());        // unknown job
  EXPECT_FALSE(market.PostTask(3, {}, 1.0).ok());          // no repetitions
  EXPECT_FALSE(market.PostTask(3, {5, 0}, 1.0).ok());      // price < 1
  EXPECT_FALSE(market.PostTask(3, {5}, 0.0).ok());         // bad rate
  EXPECT_FALSE(market.PostTask(3, {5}, 1.0, 2, 2).ok());   // answer range
  EXPECT_FALSE(market.Reprice(3, 1, 5).ok());              // unknown task
}

TEST(SharedMarketTest, SingleJobRunsToCompleteOutcomes) {
  SharedMarket market(BaseConfig());
  ASSERT_TRUE(market.AddJob(1, 42).ok());
  for (int t = 0; t < 20; ++t) {
    auto id = market.PostTask(1, {3, 3, 3}, 4.0, /*true_answer=*/1,
                              /*num_options=*/4);
    ASSERT_TRUE(id.ok());
    EXPECT_EQ(*id, static_cast<TaskId>(t + 1));
  }
  EXPECT_EQ(market.OpenTaskCount(), 20u);
  ASSERT_TRUE(market.RunToCompletion().ok());
  EXPECT_EQ(market.OpenTaskCount(), 0u);

  const std::vector<TaskOutcome>& done = market.CompletedOutcomes(1);
  ASSERT_EQ(done.size(), 20u);
  long expected_spent = 0;
  for (const TaskOutcome& outcome : done) {
    ASSERT_EQ(outcome.repetitions.size(), 3u);
    EXPECT_GT(outcome.completed_time, outcome.posted_time);
    double prev_completed = 0.0;
    for (const RepetitionOutcome& rep : outcome.repetitions) {
      EXPECT_GE(rep.accepted_time, rep.posted_time);
      EXPECT_GT(rep.completed_time, rep.accepted_time);
      EXPECT_GE(rep.posted_time, prev_completed);
      prev_completed = rep.completed_time;
      EXPECT_EQ(rep.price, 3);
      EXPECT_TRUE(rep.correct);
      EXPECT_EQ(rep.answer, 1);
      expected_spent += rep.price;
    }
  }
  EXPECT_EQ(market.TotalSpent(1), expected_spent);
  EXPECT_EQ(CountAcceptances(market.Trace(1)), 60u);
  EXPECT_EQ(market.Counts().completions, 60u);
  EXPECT_EQ(market.Counts().tasks_posted, 20u);
}

TEST(SharedMarketTest, WorkerErrorsDrawFromTheJobLocalStream) {
  SharedMarketConfig config = BaseConfig();
  config.worker_error_prob = 1.0;  // every answer wrong
  SharedMarket market(config);
  ASSERT_TRUE(market.AddJob(1, 42).ok());
  for (int t = 0; t < 10; ++t) {
    ASSERT_TRUE(
        market.PostTask(1, {2, 2}, 4.0, /*true_answer=*/2, /*num_options=*/5)
            .ok());
  }
  ASSERT_TRUE(market.RunToCompletion().ok());
  for (const TaskOutcome& outcome : market.CompletedOutcomes(1)) {
    for (const RepetitionOutcome& rep : outcome.repetitions) {
      EXPECT_FALSE(rep.correct);
      EXPECT_NE(rep.answer, 2);
      EXPECT_GE(rep.answer, 0);
      EXPECT_LT(rep.answer, 5);
    }
  }
}

// The capstone law at engine level: two identical jobs competing on one
// market each see about half the acceptance rate either sees alone. Each
// job keeps one saturating many-repetition task permanently on hold (fast
// processing), so acceptances per unit time read the effective rate.
TEST(SharedMarketTest, TwoIdenticalJobsEachSeeHalfTheIsolatedRate) {
  constexpr double kWindow = 400.0;
  constexpr double kProcessingRate = 1e6;  // turnaround is negligible
  constexpr int kSaturatingPrice = 200;    // weight 200 > arrival rate 50

  const std::vector<int> reps(200000, kSaturatingPrice);

  SharedMarket isolated(BaseConfig());
  ASSERT_TRUE(isolated.AddJob(1, 21).ok());
  ASSERT_TRUE(isolated.PostTask(1, reps, kProcessingRate).ok());
  isolated.RunUntil(kWindow);
  const double isolated_rate =
      static_cast<double>(CountAcceptances(isolated.Trace(1))) / kWindow;
  // Saturated single job accepts (nearly) every arrival.
  EXPECT_NEAR(isolated_rate, 50.0, 2.5);

  SharedMarket shared(BaseConfig());
  ASSERT_TRUE(shared.AddJob(1, 21).ok());
  ASSERT_TRUE(shared.AddJob(2, 22).ok());
  ASSERT_TRUE(shared.PostTask(1, reps, kProcessingRate).ok());
  ASSERT_TRUE(shared.PostTask(2, reps, kProcessingRate).ok());
  shared.RunUntil(kWindow);
  const double rate_1 =
      static_cast<double>(CountAcceptances(shared.Trace(1))) / kWindow;
  const double rate_2 =
      static_cast<double>(CountAcceptances(shared.Trace(2))) / kWindow;
  EXPECT_NEAR(rate_1 / isolated_rate, 0.5, 0.05);
  EXPECT_NEAR(rate_2 / isolated_rate, 0.5, 0.05);
  // Nothing is lost to the split: together they still drain the stream.
  EXPECT_NEAR((rate_1 + rate_2) / isolated_rate, 1.0, 0.05);
}

// One job raising its price mid-run drains the rival's effective rate
// through the shared denominator — no explicit coupling anywhere.
TEST(SharedMarketTest, RepriceDrainsTheRivalsEffectiveRate) {
  constexpr double kPhase = 300.0;
  const std::vector<int> reps(200000, 100);

  SharedMarket market(BaseConfig());
  ASSERT_TRUE(market.AddJob(1, 5).ok());
  ASSERT_TRUE(market.AddJob(2, 6).ok());
  auto task_1 = market.PostTask(1, reps, 1e6);
  ASSERT_TRUE(task_1.ok());
  ASSERT_TRUE(market.PostTask(2, reps, 1e6).ok());

  market.RunUntil(kPhase);
  const size_t rival_before = CountAcceptances(market.Trace(2));

  // Job 1 triples its price: weights 300 vs 100 → shares 3/4 vs 1/4.
  ASSERT_TRUE(market.Reprice(1, *task_1, 300).ok());
  market.RunUntil(2.0 * kPhase);
  const size_t rival_after = CountAcceptances(market.Trace(2)) - rival_before;

  // Equal-length windows: the rival's acceptance rate halves (Λ/4 vs Λ/2).
  const double ratio = static_cast<double>(rival_after) /
                       static_cast<double>(rival_before);
  EXPECT_NEAR(ratio, 0.5, 0.08);
}

TEST(SharedMarketTest, RepriceLeavesCompletedRepetitionsAlone) {
  SharedMarket market(BaseConfig());
  ASSERT_TRUE(market.AddJob(1, 9).ok());
  auto task = market.PostTask(1, {2, 2, 2, 2}, 5.0);
  ASSERT_TRUE(task.ok());

  // Let some repetitions complete, then reprice the remainder.
  while (true) {
    market.RunUntil(market.now() + 0.5);
    const auto& trace = market.Trace(1);
    size_t completed = 0;
    for (const TraceEvent& event : trace) {
      if (event.kind == TraceEventKind::kRepetitionCompleted) ++completed;
    }
    if (completed >= 2) break;
    ASSERT_LT(market.now(), 1e4) << "market stalled";
  }
  ASSERT_TRUE(market.Reprice(1, *task, 7).ok());
  ASSERT_TRUE(market.RunToCompletion().ok());

  const std::vector<TaskOutcome>& done = market.CompletedOutcomes(1);
  ASSERT_EQ(done.size(), 1u);
  ASSERT_EQ(done[0].repetitions.size(), 4u);
  EXPECT_EQ(done[0].repetitions.front().price, 2);
  EXPECT_EQ(done[0].repetitions.back().price, 7);
  long spent = 0;
  for (const RepetitionOutcome& rep : done[0].repetitions) spent += rep.price;
  EXPECT_EQ(market.TotalSpent(1), spent);

  EXPECT_FALSE(market.Reprice(1, *task, 9).ok());  // completed now
}

TEST(SharedMarketTest, OnHoldSinceAndCurrentPriceTrackTheOpenRepetition) {
  SharedMarket market(BaseConfig());
  ASSERT_TRUE(market.AddJob(1, 9).ok());
  auto task = market.PostTask(1, {4, 6}, 5.0);
  ASSERT_TRUE(task.ok());
  auto since = market.OnHoldSince(1, *task);
  ASSERT_TRUE(since.ok());
  EXPECT_EQ(*since, 0.0);
  auto price = market.CurrentPrice(1, *task);
  ASSERT_TRUE(price.ok());
  EXPECT_EQ(*price, 4);
  EXPECT_FALSE(market.OnHoldSince(1, 99).ok());
  ASSERT_TRUE(market.RunToCompletion().ok());
  EXPECT_FALSE(market.OnHoldSince(1, *task).ok());
  EXPECT_FALSE(market.CurrentPrice(1, *task).ok());
}

// The single-job engine with the shared engine's acceptance law: one
// task's acceptance rate is its curve rate, under the same curve and
// arrival rate as BaseConfig.
MarketConfig SimulatorConfig(uint64_t seed) {
  MarketConfig config;
  config.worker_arrival_rate = BaseConfig().worker_arrival_rate;
  config.true_curve = UnitCurve();
  config.seed = seed;
  return config;
}

StatusOr<TaskId> PostToSimulator(MarketSimulator& market, int price,
                                 int repetitions, double processing_rate) {
  TaskSpec spec;
  spec.price_per_repetition = price;
  spec.repetitions = repetitions;
  spec.processing_rate = processing_rate;
  return market.PostTask(spec);
}

/// One job of a SharedMarket behind MarketSimulator's task API, so one
/// driver can run a task through either engine.
struct SharedJobView {
  SharedMarket& market;
  uint64_t job;
  void RunUntil(double deadline) { market.RunUntil(deadline); }
  Status Reprice(TaskId id, int price) {
    return market.Reprice(job, id, price);
  }
  StatusOr<double> OnHoldSince(TaskId id) const {
    return market.OnHoldSince(job, id);
  }
  StatusOr<int> CurrentPrice(TaskId id) const {
    return market.CurrentPrice(job, id);
  }
  size_t OpenTaskCount() const { return market.OpenTaskCount(job); }
  const std::vector<TaskOutcome>& CompletedOutcomes() const {
    return market.CompletedOutcomes(job);
  }
  long TotalSpent() const { return market.TotalSpent(job); }
};

struct SimulatorView {
  MarketSimulator& market;
  void RunUntil(double deadline) { market.RunUntil(deadline); }
  Status Reprice(TaskId id, int price) { return market.Reprice(id, price); }
  StatusOr<double> OnHoldSince(TaskId id) const {
    return market.OnHoldSince(id);
  }
  StatusOr<int> CurrentPrice(TaskId id) const {
    return market.CurrentPrice(id);
  }
  size_t OpenTaskCount() const { return market.OpenTaskCount(); }
  const std::vector<TaskOutcome>& CompletedOutcomes() const {
    return market.CompletedOutcomes();
  }
  long TotalSpent() const { return market.TotalSpent(); }
};

/// Runs `view` in small steps until `done()` holds; false if it never does.
template <typename View, typename Done>
bool AdvanceUntil(View& view, double& clock, Done done) {
  while (!done()) {
    if (clock > 1e3) return false;
    clock += 0.002;
    view.RunUntil(clock);
  }
  return true;
}

// After a reprice, an in-flight repetition still pays, and both engines
// report, the price it was accepted at.
TEST(SharedMarketTest, InFlightRepetitionReportsItsAcceptedPrice) {
  SharedMarket shared(BaseConfig());
  ASSERT_TRUE(shared.AddJob(1, 5).ok());
  MarketSimulator simulator(SimulatorConfig(5));
  const auto shared_task = shared.PostTask(1, {2, 2}, 1e-6);
  const auto simulator_task = PostToSimulator(simulator, 2, 2, 1e-6);
  ASSERT_TRUE(shared_task.ok());
  ASSERT_TRUE(simulator_task.ok());

  auto expect_accepted_price = [](auto view, TaskId id) {
    double clock = 0.0;
    ASSERT_TRUE(AdvanceUntil(view, clock,
                             [&] { return !view.OnHoldSince(id).ok(); }));
    ASSERT_EQ(view.OpenTaskCount(), 1u);  // accepted, processing
    ASSERT_TRUE(view.Reprice(id, 5).ok());
    const auto price = view.CurrentPrice(id);
    ASSERT_TRUE(price.ok()) << price.status();
    EXPECT_EQ(*price, 2);
  };
  expect_accepted_price(SharedJobView{shared, 1}, *shared_task);
  expect_accepted_price(SimulatorView{simulator}, *simulator_task);
}

/// What one task's run through an engine showed.
struct Lifecycle {
  std::vector<int> exposed_prices;  // CurrentPrice at each exposure
  int in_flight_price = 0;  // CurrentPrice after the in-flight reprice
  std::vector<double> hold_starts;  // OnHoldSince at each exposure
  TaskOutcome outcome;
  long spent = 0;
  std::vector<StatusCode> completed_codes;  // Reprice, OnHoldSince, Price
  std::vector<StatusCode> unknown_codes;
};

/// Runs task `id` (3 repetitions at price 2) to completion: repriced to 3
/// while its first repetition is on hold, and to 5 while it is in flight.
template <typename View>
void DriveLifecycle(View view, TaskId id, Lifecycle* out) {
  double clock = 0.0;
  for (int k = 0; k < 3; ++k) {
    const auto since = view.OnHoldSince(id);
    ASSERT_TRUE(since.ok()) << since.status();
    out->hold_starts.push_back(*since);
    if (k == 0) {
      EXPECT_EQ(*view.CurrentPrice(id), 2);
      ASSERT_TRUE(view.Reprice(id, 3).ok());
      EXPECT_EQ(*view.OnHoldSince(id), *since);  // not a new exposure
    }
    out->exposed_prices.push_back(*view.CurrentPrice(id));
    ASSERT_TRUE(AdvanceUntil(view, clock,
                             [&] { return !view.OnHoldSince(id).ok(); }));
    if (k == 0) {
      ASSERT_EQ(view.OpenTaskCount(), 1u);
      ASSERT_TRUE(view.Reprice(id, 5).ok());
      out->in_flight_price = *view.CurrentPrice(id);
    }
    ASSERT_TRUE(AdvanceUntil(view, clock, [&] {
      return view.OnHoldSince(id).ok() || view.OpenTaskCount() == 0;
    }));
  }
  ASSERT_EQ(view.OpenTaskCount(), 0u);
  ASSERT_EQ(view.CompletedOutcomes().size(), 1u);
  out->outcome = view.CompletedOutcomes().front();
  out->spent = view.TotalSpent();
  for (const TaskId probe : {id, id + 1}) {
    std::vector<StatusCode>& codes =
        probe == id ? out->completed_codes : out->unknown_codes;
    codes = {view.Reprice(probe, 4).code(),
             view.OnHoldSince(probe).status().code(),
             view.CurrentPrice(probe).status().code()};
  }
}

// One task through both engines' lifecycle (expose, accept, finish, pay,
// expose the next): they agree on what each repetition pays, what spend
// sums, when each exposure starts and which codes unknown and completed
// ids get.
TEST(SharedMarketTest, BothEnginesShareOneTaskLifecycle) {
  SharedMarket shared(BaseConfig());
  ASSERT_TRUE(shared.AddJob(1, 12).ok());
  const auto shared_task = shared.PostTask(1, {2, 2, 2}, 4.0);
  ASSERT_TRUE(shared_task.ok());
  MarketSimulator simulator(SimulatorConfig(12));
  const auto simulator_task = PostToSimulator(simulator, 2, 3, 4.0);
  ASSERT_TRUE(simulator_task.ok());

  Lifecycle runs[2];
  DriveLifecycle(SharedJobView{shared, 1}, *shared_task, &runs[0]);
  ASSERT_FALSE(testing::Test::HasFatalFailure());
  DriveLifecycle(SimulatorView{simulator}, *simulator_task, &runs[1]);
  ASSERT_FALSE(testing::Test::HasFatalFailure());

  for (const Lifecycle& run : runs) {
    EXPECT_EQ(run.exposed_prices, (std::vector<int>{3, 5, 5}));
    EXPECT_EQ(run.in_flight_price, 3);
    const std::vector<RepetitionOutcome>& reps = run.outcome.repetitions;
    ASSERT_EQ(reps.size(), 3u);
    long paid = 0;
    for (size_t k = 0; k < reps.size(); ++k) {
      EXPECT_EQ(reps[k].price, run.exposed_prices[k]) << k;
      paid += reps[k].price;
      // Each exposure starts its own on-hold clock: at posting, then when
      // the previous repetition's answer returned.
      EXPECT_EQ(run.hold_starts[k], reps[k].posted_time) << k;
      EXPECT_EQ(run.hold_starts[k],
                k == 0 ? run.outcome.posted_time : reps[k - 1].completed_time)
          << k;
    }
    EXPECT_EQ(run.spent, paid);
    EXPECT_EQ(run.outcome.completed_time, reps.back().completed_time);
    EXPECT_EQ(run.completed_codes,
              std::vector<StatusCode>(3, StatusCode::kFailedPrecondition));
    EXPECT_EQ(run.unknown_codes,
              std::vector<StatusCode>(3, StatusCode::kNotFound));
  }
  EXPECT_EQ(runs[0].spent, runs[1].spent);
}

// The bitwise-resume contract: capture mid-competition, restore into a
// fresh engine, and both finish with byte-identical state.
TEST(SharedMarketTest, CaptureRestoreContinuesBitwise) {
  const std::vector<int> reps(40, 3);
  auto build = [&]() {
    auto market = std::make_unique<SharedMarket>(BaseConfig());
    EXPECT_TRUE(market->AddJob(1, 31).ok());
    EXPECT_TRUE(market->AddJob(2, 32).ok());
    EXPECT_TRUE(market->AddJob(5, 33).ok());
    return market;
  };

  auto original = build();
  for (uint64_t job : {1u, 2u, 5u}) {
    for (int t = 0; t < 6; ++t) {
      ASSERT_TRUE(original->PostTask(job, reps, 8.0).ok());
    }
  }
  original->RunUntil(2.0);
  ASSERT_GT(original->OpenTaskCount(), 0u);
  const std::string snapshot = original->CaptureState();

  // Equal states encode to equal bytes.
  EXPECT_EQ(original->CaptureState(), snapshot);

  SharedMarket resumed(BaseConfig());
  ASSERT_TRUE(resumed.RestoreState(snapshot).ok());
  EXPECT_EQ(resumed.CaptureState(), snapshot);
  EXPECT_EQ(resumed.OpenTaskCount(), original->OpenTaskCount());
  EXPECT_EQ(resumed.now(), original->now());

  ASSERT_TRUE(original->RunToCompletion().ok());
  ASSERT_TRUE(resumed.RunToCompletion().ok());
  EXPECT_EQ(resumed.CaptureState(), original->CaptureState());
  EXPECT_EQ(resumed.now(), original->now());
  for (uint64_t job : {1u, 2u, 5u}) {
    EXPECT_EQ(resumed.TotalSpent(job), original->TotalSpent(job));
    ASSERT_EQ(resumed.Trace(job).size(), original->Trace(job).size());
  }
}

// Interrupting at an arbitrary point must not perturb anything: resumed
// and uninterrupted runs produce identical bytes.
TEST(SharedMarketTest, ResumeMatchesUninterruptedRun) {
  auto run = [](double interrupt_at) {
    SharedMarketConfig config = BaseConfig();
    config.worker_error_prob = 0.2;
    SharedMarket market(config);
    EXPECT_TRUE(market.AddJob(1, 51).ok());
    EXPECT_TRUE(market.AddJob(2, 52).ok());
    for (int t = 0; t < 8; ++t) {
      EXPECT_TRUE(market.PostTask(1, {2, 5}, 6.0, 0, 3).ok());
      EXPECT_TRUE(market.PostTask(2, {4}, 6.0, 1, 3).ok());
    }
    if (interrupt_at > 0.0) {
      market.RunUntil(interrupt_at);
      const std::string snapshot = market.CaptureState();
      SharedMarket resumed(config);
      EXPECT_TRUE(resumed.RestoreState(snapshot).ok());
      if (resumed.OpenTaskCount() > 0) {
        EXPECT_TRUE(resumed.RunToCompletion().ok());
      }
      return resumed.CaptureState();
    }
    EXPECT_TRUE(market.RunToCompletion().ok());
    return market.CaptureState();
  };

  const std::string uninterrupted = run(0.0);
  EXPECT_EQ(run(0.3), uninterrupted);
  EXPECT_EQ(run(1.1), uninterrupted);
  EXPECT_EQ(run(2.7), uninterrupted);
}

// Golden transcript: a CRC32C of the total posted weight at each
// checkpoint, the mid-run snapshot, the final state and every job's trace
// and outcomes. The run covers mid-run reprices (on-hold and in-flight
// tasks), tasks posted after completions, over half of a job's tasks
// completing before the capture (so jobs compact), and a capture/restore
// that must continue bitwise. To print a digest after an intentional
// contract change, run with HTUNE_GOLDEN_PRINT=1.
void PinnedTranscript(std::shared_ptr<const PriceRateCurve> curve,
                      const char* name, uint32_t* crc) {
  SharedMarketConfig config;
  config.worker_arrival_rate = 60.0;
  config.worker_error_prob = 0.15;
  config.curve = std::move(curve);
  config.seed = 2027;
  const std::vector<uint64_t> jobs = {2, 3, 7, 11};

  Encoder digest;
  auto checkpoint = [&digest](SharedMarket& market) {
    digest.PutDouble(market.TotalPostedWeight());
    digest.PutDouble(market.now());
    digest.PutU64(market.OpenTaskCount());
  };

  SharedMarket original(config);
  std::vector<size_t> posted(jobs.size(), 0);
  for (size_t j = 0; j < jobs.size(); ++j) {
    ASSERT_TRUE(original.AddJob(jobs[j], 900 + jobs[j]).ok());
  }
  auto post = [&](size_t j, int count, int salt) {
    for (int t = 0; t < count; ++t) {
      const int price = 1 + (t * 7 + salt) % 5;
      const std::vector<int> reps(static_cast<size_t>(1 + (t + salt) % 3),
                                  price);
      const double processing = 2.0 + 0.37 * static_cast<double>((t + j) % 4);
      ASSERT_TRUE(original
                      .PostTask(jobs[j], reps, processing,
                                /*true_answer=*/t % 3, /*num_options=*/3)
                      .ok());
      ++posted[j];
    }
  };
  for (size_t j = 0; j < jobs.size(); ++j) {
    post(j, 120 + 20 * static_cast<int>(j), static_cast<int>(j));
  }
  checkpoint(original);

  original.RunUntil(4.0);
  checkpoint(original);
  // Escalate every third open task; some are on hold, some in flight.
  for (size_t j = 0; j < jobs.size(); ++j) {
    const std::vector<TaskId> open = original.OpenTaskIds(jobs[j]);
    for (size_t k = 0; k < open.size(); k += 3) {
      const auto price = original.CurrentPrice(jobs[j], open[k]);
      ASSERT_TRUE(price.ok());
      ASSERT_TRUE(original
                      .Reprice(jobs[j], open[k],
                               *price + 1 + static_cast<int>(j))
                      .ok());
    }
  }
  checkpoint(original);

  original.RunUntil(9.0);
  checkpoint(original);
  post(1, 25, 4);  // appended behind completed tasks
  post(3, 10, 2);
  checkpoint(original);
  original.RunUntil(15.0);
  checkpoint(original);

  bool some_job_mostly_done = false;
  for (size_t j = 0; j < jobs.size(); ++j) {
    some_job_mostly_done |=
        original.CompletedOutcomes(jobs[j]).size() * 2 > posted[j];
  }
  ASSERT_TRUE(some_job_mostly_done);
  ASSERT_GT(original.OpenTaskCount(), 0u);
  const std::string snapshot = original.CaptureState();
  digest.PutString(snapshot);

  SharedMarket resumed(config);
  ASSERT_TRUE(resumed.RestoreState(snapshot).ok());
  EXPECT_EQ(resumed.CaptureState(), snapshot);
  EXPECT_EQ(resumed.TotalPostedWeight(), original.TotalPostedWeight());
  for (SharedMarket* market : {&original, &resumed}) {
    const std::vector<TaskId> open = market->OpenTaskIds(jobs[2]);
    for (size_t k = 1; k < open.size(); k += 4) {
      ASSERT_TRUE(market->Reprice(jobs[2], open[k], 6).ok());
    }
    market->RunUntil(18.0);
    checkpoint(*market);
    ASSERT_TRUE(market->RunToCompletion().ok());
  }
  EXPECT_EQ(resumed.CaptureState(), original.CaptureState());

  const std::string final_state = original.CaptureState();
  digest.PutString(final_state);
  for (const uint64_t job : jobs) {
    EncodeTraceEvents(original.Trace(job), digest);
    for (const TaskOutcome& outcome : original.CompletedOutcomes(job)) {
      EncodeTaskOutcome(outcome, digest);
    }
    digest.PutI64(original.TotalSpent(job));
  }
  *crc = Crc32c(digest.Release());
  if (std::getenv("HTUNE_GOLDEN_PRINT") != nullptr) {
    std::printf("GOLDEN %s: 0x%08x\n", name, *crc);
  }
}

// Rate(p) = 0.25 p + 0.5: fractional weights that lie on the 2^-20 grid,
// so grid units and a float left-to-right sum agree exactly. The constant
// was recorded from the engine that summed float weights left to right
// and re-summed each job's changed suffix, and must not move.
TEST(SharedMarketTest, OnGridFractionalWeightTranscriptIsPinned) {
  uint32_t crc = 0;
  PinnedTranscript(std::make_shared<LinearCurve>(0.25, 0.5),
                   "OnGridFractionalWeightTranscript", &crc);
  EXPECT_EQ(crc, 0xec765d19u);
}

// LogCurve(7.3) weights are off the grid and get quantized to whole
// units, so this transcript differs from the float engine's, 0xbc2c0edf.
TEST(SharedMarketTest, NonIntegerWeightTranscriptIsPinned) {
  uint32_t crc = 0;
  PinnedTranscript(std::make_shared<LogCurve>(7.3),
                   "NonIntegerWeightTranscript", &crc);
  EXPECT_EQ(crc, 0x948ab3cdu);
}

// Integer weight sums do not depend on their order: a running engine with
// many completed tasks and an engine restored from its snapshot report
// bit-equal totals and bytes under off-grid weights, and continue
// identically.
TEST(SharedMarketTest, WeightTotalsAreOrderFree) {
  SharedMarketConfig config = BaseConfig();
  config.curve = std::make_shared<LogCurve>(7.3);
  config.worker_arrival_rate = 20.0;
  SharedMarket compacted(config);
  ASSERT_TRUE(compacted.AddJob(1, 91).ok());
  ASSERT_TRUE(compacted.AddJob(4, 94).ok());
  constexpr int kTasks = 60;
  for (int t = 0; t < kTasks; ++t) {
    ASSERT_TRUE(compacted.PostTask(1, {1 + t % 7, 2}, 4.0).ok());
    ASSERT_TRUE(compacted.PostTask(4, {1 + t % 5}, 4.0).ok());
  }
  const std::vector<TaskId> early = compacted.OpenTaskIds(1);
  for (size_t k = 0; k < early.size(); k += 5) {
    ASSERT_TRUE(compacted.Reprice(1, early[k], 9).ok());
  }
  // Over half of job 1's tasks complete before the capture.
  for (double clock = 0.1; compacted.CompletedOutcomes(1).size() * 2 <= kTasks;
       clock += 0.1) {
    compacted.RunUntil(clock);
    ASSERT_LT(clock, 1e4) << "market stalled";
  }
  ASSERT_GT(compacted.OpenTaskCount(1), 0u);
  for (int t = 0; t < 10; ++t) {
    ASSERT_TRUE(compacted.PostTask(1, {3 + t % 4}, 4.0).ok());
  }

  const std::string snapshot = compacted.CaptureState();
  SharedMarket restored(config);
  ASSERT_TRUE(restored.RestoreState(snapshot).ok());
  EXPECT_EQ(restored.CaptureState(), snapshot);
  EXPECT_EQ(std::bit_cast<uint64_t>(restored.TotalPostedWeight()),
            std::bit_cast<uint64_t>(compacted.TotalPostedWeight()));
  EXPECT_GT(compacted.TotalPostedWeight(), 0.0);

  for (SharedMarket* market : {&compacted, &restored}) {
    const std::vector<TaskId> open = market->OpenTaskIds(4);
    for (size_t k = 0; k < open.size(); k += 3) {
      ASSERT_TRUE(market->Reprice(4, open[k], 8).ok());
    }
    ASSERT_TRUE(market->RunToCompletion().ok());
  }
  EXPECT_EQ(restored.CaptureState(), compacted.CaptureState());
  for (const uint64_t job : {1u, 4u}) {
    Encoder left;
    Encoder right;
    EncodeTraceEvents(compacted.Trace(job), left);
    EncodeTraceEvents(restored.Trace(job), right);
    EXPECT_EQ(left.Release(), right.Release()) << job;
  }
}

// Completed tasks leave every view at once, however the engine stores
// them: over half of job 1's tasks complete before the capture, and the
// views, the errors and the captured bytes match a restored engine's.
TEST(SharedMarketTest, CompletedTasksVanishFromEveryView) {
  constexpr int kTasks = 40;
  SharedMarket market(BaseConfig());
  ASSERT_TRUE(market.AddJob(1, 71).ok());
  ASSERT_TRUE(market.AddJob(2, 72).ok());
  for (int t = 0; t < kTasks; ++t) {
    ASSERT_TRUE(market.PostTask(1, {2}, 3.0).ok());
    ASSERT_TRUE(market.PostTask(2, {2, 2}, 3.0).ok());
  }
  for (double clock = 0.05; market.CompletedOutcomes(1).size() * 2 <= kTasks;
       clock += 0.05) {
    market.RunUntil(clock);
    ASSERT_LT(clock, 1e4) << "market stalled";
  }
  const std::vector<TaskOutcome>& done = market.CompletedOutcomes(1);
  ASSERT_LT(done.size(), static_cast<size_t>(kTasks));

  const std::vector<TaskId> open = market.OpenTaskIds(1);
  EXPECT_EQ(open.size(), kTasks - done.size());
  EXPECT_EQ(market.OpenTaskCount(1), open.size());
  EXPECT_TRUE(std::is_sorted(open.begin(), open.end()));
  for (const TaskOutcome& outcome : done) {
    EXPECT_FALSE(std::binary_search(open.begin(), open.end(), outcome.id));
  }

  const TaskId finished = done.front().id;
  EXPECT_EQ(market.Reprice(1, finished, 5).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(market.OnHoldSince(1, finished).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(market.CurrentPrice(1, finished).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(market.Reprice(1, kTasks + 1, 5).code(), StatusCode::kNotFound);

  const std::string snapshot = market.CaptureState();
  SharedMarket resumed(BaseConfig());
  ASSERT_TRUE(resumed.RestoreState(snapshot).ok());
  EXPECT_EQ(resumed.CaptureState(), snapshot);
  EXPECT_EQ(resumed.OpenTaskIds(1), open);
  EXPECT_EQ(resumed.OpenTaskCount(1), open.size());
  EXPECT_EQ(resumed.TotalPostedWeight(), market.TotalPostedWeight());
  EXPECT_EQ(resumed.Reprice(1, finished, 5).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(resumed.OnHoldSince(1, finished).status().code(),
            StatusCode::kFailedPrecondition);

  ASSERT_TRUE(market.RunToCompletion().ok());
  ASSERT_TRUE(resumed.RunToCompletion().ok());
  EXPECT_EQ(resumed.CaptureState(), market.CaptureState());
  EXPECT_TRUE(market.OpenTaskIds(1).empty());
  EXPECT_EQ(market.TotalPostedWeight(), 0.0);
}

// A curve rate that is negative, NaN or infinite would make the weight
// total and the selection disagree, so such prices never enter the market.
TEST(SharedMarketTest, RejectsPricesWithNegativeOrNonFiniteWeight) {
  SharedMarketConfig config = BaseConfig();
  config.curve = std::make_shared<FunctionCurve>(
      [](double price) {
        if (price == 5.0) return -1.0;
        if (price == 6.0) return std::numeric_limits<double>::quiet_NaN();
        if (price == 7.0) return std::numeric_limits<double>::infinity();
        return price;
      },
      "holes at 5, 6, 7");
  SharedMarket market(config);
  ASSERT_TRUE(market.AddJob(1, 81).ok());
  for (const int bad : {5, 6, 7}) {
    EXPECT_EQ(market.PostTask(1, {2, bad}, 1.0).status().code(),
              StatusCode::kInvalidArgument)
        << bad;
  }
  EXPECT_EQ(market.OpenTaskCount(), 0u);
  EXPECT_EQ(market.Counts().tasks_posted, 0u);

  auto task = market.PostTask(1, {2, 3}, 1.0);
  ASSERT_TRUE(task.ok());
  EXPECT_EQ(*task, 1u);  // rejected posts consumed no id
  for (const int bad : {5, 6, 7}) {
    EXPECT_EQ(market.Reprice(1, *task, bad).code(),
              StatusCode::kInvalidArgument)
        << bad;
  }
  EXPECT_EQ(market.Counts().reprices, 0u);
  EXPECT_EQ(*market.CurrentPrice(1, *task), 2);
  EXPECT_EQ(market.TotalPostedWeight(), 2.0);
  ASSERT_TRUE(market.Reprice(1, *task, 4).ok());
  EXPECT_EQ(market.TotalPostedWeight(), 4.0);
  ASSERT_TRUE(market.RunToCompletion().ok());

  // Restore checks the snapshot's prices against the same rule.
  SharedMarket donor(BaseConfig());
  ASSERT_TRUE(donor.AddJob(1, 82).ok());
  ASSERT_TRUE(donor.PostTask(1, {2, 6}, 1.0).ok());
  EXPECT_EQ(SharedMarket(config).RestoreState(donor.CaptureState()).code(),
            StatusCode::kInvalidArgument);
}

// The weight range is exact: kMaxSharedWeight is the largest weight, half
// a grid unit the smallest positive one (it rounds up to one unit), and
// anything past either edge would overflow the int64 sums or round to a
// weight that is never accepted.
TEST(SharedMarketTest, WeightRangeEdgesAreExact) {
  constexpr double kHalfUnit = 0x1p-21;
  SharedMarketConfig config = BaseConfig();
  config.curve = std::make_shared<FunctionCurve>(
      [](double price) {
        if (price == 2.0) return kMaxSharedWeight;
        if (price == 3.0) return std::nextafter(kMaxSharedWeight, 1e300);
        if (price == 4.0) return kHalfUnit;
        if (price == 5.0) return std::nextafter(kHalfUnit, 0.0);
        if (price == 6.0) return 0.0;
        return 1.0;
      },
      "edges of the weight range");
  SharedMarket market(config);
  ASSERT_TRUE(market.AddJob(1, 83).ok());
  for (const int bad : {3, 5}) {
    EXPECT_EQ(market.PostTask(1, {bad}, 1.0).status().code(),
              StatusCode::kInvalidArgument)
        << bad;
  }
  EXPECT_EQ(market.Counts().tasks_posted, 0u);

  auto top = market.PostTask(1, {2}, 1.0);
  ASSERT_TRUE(top.ok());
  EXPECT_EQ(market.TotalPostedWeight(), kMaxSharedWeight);
  auto bottom = market.PostTask(1, {4}, 1.0);
  ASSERT_TRUE(bottom.ok());
  EXPECT_EQ(market.TotalPostedWeight(), kMaxSharedWeight + 0x1p-20);
  ASSERT_TRUE(market.PostTask(1, {6}, 1.0).ok());
  EXPECT_EQ(market.TotalPostedWeight(), kMaxSharedWeight + 0x1p-20);

  for (const int bad : {3, 5}) {
    EXPECT_EQ(market.Reprice(1, *bottom, bad).code(),
              StatusCode::kInvalidArgument)
        << bad;
  }
  ASSERT_TRUE(market.Reprice(1, *top, 4).ok());
  EXPECT_EQ(market.TotalPostedWeight(), 2 * 0x1p-20);
}

// A market holds fewer than kMaxOpenSharedTasks open tasks, so a snapshot
// claiming that many is refused before its tasks are decoded.
TEST(SharedMarketTest, RestoreRefusesTheOpenTaskCap) {
  SharedMarket donor(BaseConfig());
  ASSERT_TRUE(donor.AddJob(1, 84).ok());
  ASSERT_TRUE(donor.PostTask(1, {2}, 1.0).ok());
  const std::string valid = donor.CaptureState();
  // The job's next_task (2), spent (0) and open-task count (1).
  Encoder pattern;
  pattern.PutU64(2);
  pattern.PutI64(0);
  pattern.PutU64(1);
  const size_t at = valid.find(pattern.Release());
  ASSERT_NE(at, std::string::npos);
  auto with_count = [&](uint64_t count) {
    Encoder patch;
    patch.PutU64(count);
    std::string bytes = valid;
    bytes.replace(at + 16, 8, patch.Release());
    return bytes;
  };
  ASSERT_EQ(with_count(1), valid);
  const Status capped =
      SharedMarket(BaseConfig()).RestoreState(with_count(kMaxOpenSharedTasks));
  EXPECT_EQ(capped.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(capped.message().find("open tasks"), std::string::npos)
      << capped.message();
  // One below the cap passes the cap and fails as a corrupt count.
  const Status corrupt = SharedMarket(BaseConfig())
                             .RestoreState(with_count(kMaxOpenSharedTasks - 1));
  EXPECT_EQ(corrupt.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(corrupt.message().find("fewer than"), std::string::npos)
      << corrupt.message();
}

TEST(SharedMarketTest, RestoreRejectsCorruptBytes) {
  SharedMarket market(BaseConfig());
  EXPECT_FALSE(market.RestoreState("").ok());
  EXPECT_FALSE(market.RestoreState("garbage").ok());

  SharedMarket donor(BaseConfig());
  ASSERT_TRUE(donor.AddJob(1, 1).ok());
  ASSERT_TRUE(donor.PostTask(1, {2}, 1.0).ok());
  std::string snapshot = donor.CaptureState();
  snapshot.resize(snapshot.size() - 3);  // truncated tail
  EXPECT_FALSE(market.RestoreState(snapshot).ok());

  // Open-task ids must ascend strictly and stay below next_task: lookup
  // binary-searches them. Patch ids in an otherwise valid snapshot.
  SharedMarket two(BaseConfig());
  ASSERT_TRUE(two.AddJob(1, 1).ok());
  ASSERT_TRUE(two.PostTask(1, {2}, 1.0).ok());
  ASSERT_TRUE(two.PostTask(1, {2}, 1.0).ok());
  const std::string valid = two.CaptureState();
  ASSERT_TRUE(SharedMarket(BaseConfig()).RestoreState(valid).ok());
  // Each open task's bytes start with its u64 id followed by its price
  // vector {2}; locate both in the valid bytes, then patch the ids.
  auto id_offset = [&valid](uint64_t id) {
    Encoder pattern;
    pattern.PutU64(id);
    pattern.PutI32Vector({2});
    const size_t at = valid.find(pattern.Release());
    EXPECT_NE(at, std::string::npos);
    return at;
  };
  const size_t first_at = id_offset(1);
  const size_t second_at = id_offset(2);
  auto with_task_ids = [&](uint64_t first, uint64_t second) {
    std::string bytes = valid;
    for (const auto& [at, id] :
         {std::pair<size_t, uint64_t>{first_at, first}, {second_at, second}}) {
      Encoder patch;
      patch.PutU64(id);
      bytes.replace(at, 8, patch.Release());
    }
    return bytes;
  };
  EXPECT_EQ(with_task_ids(1, 2), valid);
  EXPECT_EQ(SharedMarket(BaseConfig())
                .RestoreState(with_task_ids(2, 1))  // descending
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(SharedMarket(BaseConfig())
                .RestoreState(with_task_ids(1, 1))  // repeated
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(SharedMarket(BaseConfig())
                .RestoreState(with_task_ids(1, 3))  // == next_task
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(SharedMarket(BaseConfig())
                .RestoreState(with_task_ids(1, 9))  // > next_task
                .code(),
            StatusCode::kInvalidArgument);

  // A task on hold with every repetition already accepted has no price
  // to post. Accept task 1's only repetition, then flip its on_hold byte
  // (after id, prices {2}, processing rate, true answer, option count).
  SharedMarket busy(BaseConfig());
  ASSERT_TRUE(busy.AddJob(1, 1).ok());
  ASSERT_TRUE(busy.PostTask(1, {2}, 1e-6).ok());
  busy.RunUntil(1.0);
  ASSERT_FALSE(busy.OnHoldSince(1, 1).ok());  // accepted, processing
  std::string in_flight = busy.CaptureState();
  ASSERT_TRUE(SharedMarket(BaseConfig()).RestoreState(in_flight).ok());
  Encoder task_start;
  task_start.PutU64(1);
  task_start.PutI32Vector({2});
  const size_t task_at = in_flight.find(task_start.Release());
  ASSERT_NE(task_at, std::string::npos);
  const size_t on_hold_at = task_at + 8 + 12 + 8 + 4 + 4;
  ASSERT_EQ(in_flight[on_hold_at], '\0');
  in_flight[on_hold_at] = '\1';
  EXPECT_EQ(SharedMarket(BaseConfig()).RestoreState(in_flight).code(),
            StatusCode::kInvalidArgument);
}

// Every completed outcome names a task the job posted, at most once, and
// not one that is still open; next_task counts posted tasks, each of which
// the snapshot encodes. Patch the two completed outcomes' ids and the
// job's next_task in an otherwise valid snapshot (tasks 1 and 2 completed,
// task 3 open).
TEST(SharedMarketTest, RestoreRejectsInvalidTaskIds) {
  SharedMarket donor(BaseConfig());
  ASSERT_TRUE(donor.AddJob(1, 85).ok());
  ASSERT_TRUE(donor.PostTask(1, {2}, 1.0).ok());
  ASSERT_TRUE(donor.PostTask(1, {2}, 1.0).ok());
  ASSERT_TRUE(donor.RunToCompletion().ok());
  ASSERT_TRUE(donor.PostTask(1, {2}, 1.0).ok());
  const std::string valid = donor.CaptureState();
  ASSERT_TRUE(SharedMarket(BaseConfig()).RestoreState(valid).ok());
  const std::vector<TaskOutcome>& done = donor.CompletedOutcomes(1);
  ASSERT_EQ(done.size(), 2u);
  // Each outcome's bytes start with its u64 id.
  std::vector<size_t> offsets;
  for (const TaskOutcome& outcome : done) {
    Encoder pattern;
    EncodeTaskOutcome(outcome, pattern);
    const size_t at = valid.find(pattern.Release());
    ASSERT_NE(at, std::string::npos);
    offsets.push_back(at);
  }
  auto with_completed_ids = [&](uint64_t first, uint64_t second) {
    std::string bytes = valid;
    for (const auto& [at, id] : {std::pair<size_t, uint64_t>{offsets[0], first},
                                 {offsets[1], second}}) {
      Encoder patch;
      patch.PutU64(id);
      bytes.replace(at, 8, patch.Release());
    }
    return SharedMarket(BaseConfig()).RestoreState(bytes).code();
  };
  EXPECT_EQ(with_completed_ids(done[0].id, done[1].id), StatusCode::kOk);
  EXPECT_EQ(with_completed_ids(done[1].id, done[0].id), StatusCode::kOk);
  EXPECT_EQ(with_completed_ids(0, done[1].id),  // never a task id
            StatusCode::kInvalidArgument);
  EXPECT_EQ(with_completed_ids(done[0].id, 4),  // == next_task
            StatusCode::kInvalidArgument);
  EXPECT_EQ(with_completed_ids(done[0].id, 9),  // > next_task
            StatusCode::kInvalidArgument);
  EXPECT_EQ(with_completed_ids(done[0].id, done[0].id),  // duplicated
            StatusCode::kInvalidArgument);
  EXPECT_EQ(with_completed_ids(3, done[1].id),  // still open
            StatusCode::kInvalidArgument);

  // The job's next_task (4), spent and open-task count (1).
  Encoder header;
  header.PutU64(4);
  header.PutI64(donor.TotalSpent(1));
  header.PutU64(1);
  const size_t header_at = valid.find(header.Release());
  ASSERT_NE(header_at, std::string::npos);
  auto with_next_task = [&](uint64_t next_task) {
    Encoder patch;
    patch.PutU64(next_task);
    std::string bytes = valid;
    bytes.replace(header_at, 8, patch.Release());
    return SharedMarket(BaseConfig()).RestoreState(bytes).code();
  };
  EXPECT_EQ(with_next_task(4), StatusCode::kOk);
  EXPECT_EQ(with_next_task(0), StatusCode::kInvalidArgument);
  EXPECT_EQ(with_next_task(uint64_t{1} << 62),  // more than the bytes hold
            StatusCode::kInvalidArgument);
}

// Every pending event completes a processing task of a job in the
// snapshot, one per processing task, and a processing task has accepted a
// repetition; RunUntil relies on all three. Patch the one event (task 1's
// completion; task 2 is on hold) and task 1's outcome in a valid snapshot.
TEST(SharedMarketTest, RestoreRejectsEventsWithoutAProcessingTask) {
  SharedMarket donor(BaseConfig());
  ASSERT_TRUE(donor.AddJob(1, 86).ok());
  ASSERT_TRUE(donor.PostTask(1, {3}, 1e-6).ok());
  donor.RunUntil(1.0);
  ASSERT_FALSE(donor.OnHoldSince(1, 1).ok());  // accepted, processing
  ASSERT_TRUE(donor.PostTask(1, {2}, 1.0).ok());
  const std::string valid = donor.CaptureState();

  // The events follow the version, the shared stream (two clocks, the
  // arrival count, its RNG), the clock, the event sequence and the count.
  Decoder d(valid);
  uint32_t version = 0;
  double clock = 0.0;
  uint64_t word = 0;
  Random::State rng;
  ASSERT_TRUE(d.GetU32(&version).ok());
  ASSERT_TRUE(d.GetDouble(&clock).ok());
  ASSERT_TRUE(d.GetDouble(&clock).ok());
  ASSERT_TRUE(d.GetU64(&word).ok());
  ASSERT_TRUE(DecodeRngState(d, rng).ok());
  ASSERT_TRUE(d.GetDouble(&clock).ok());
  ASSERT_TRUE(d.GetU64(&word).ok());
  const size_t count_at = valid.size() - d.remaining();
  ASSERT_TRUE(d.GetU64(&word).ok());
  ASSERT_EQ(word, 1u);
  MarketState::Event event;
  ASSERT_TRUE(DecodeEvent(d, event).ok());
  const size_t events_end = valid.size() - d.remaining();
  ASSERT_EQ(event.task, 1u);
  ASSERT_EQ(event.generation, 1u);
  auto with_events = [&](const std::vector<MarketState::Event>& events) {
    Encoder patch;
    patch.PutU64(events.size());
    for (const MarketState::Event& e : events) EncodeEvent(e, patch);
    std::string bytes = valid;
    bytes.replace(count_at, events_end - count_at, patch.Release());
    return SharedMarket(BaseConfig()).RestoreState(bytes).code();
  };
  auto patched = [&](auto edit) {
    MarketState::Event e = event;
    edit(e);
    return with_events({e});
  };
  EXPECT_EQ(with_events({event}), StatusCode::kOk);
  EXPECT_EQ(patched([](MarketState::Event& e) {
              e.kind = static_cast<uint8_t>(MarketEvent::Kind::kAbandon);
            }),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(patched([](MarketState::Event& e) { e.generation = 2; }),
            StatusCode::kInvalidArgument);  // no such job
  EXPECT_EQ(patched([](MarketState::Event& e) { e.task = 2; }),
            StatusCode::kInvalidArgument);  // on hold
  EXPECT_EQ(patched([](MarketState::Event& e) { e.task = 3; }),
            StatusCode::kInvalidArgument);  // never posted
  EXPECT_EQ(with_events({}), StatusCode::kInvalidArgument);
  MarketState::Event twin = event;
  ++twin.sequence;
  EXPECT_EQ(with_events({event, twin}), StatusCode::kInvalidArgument);

  // Task 1's outcome follows its id, prices {3}, processing rate, true
  // answer, option count, on_hold byte and posted time; its repetition
  // count sits after the outcome's id and two clocks. Drop the one
  // accepted repetition (41 bytes).
  Encoder task_start;
  task_start.PutU64(1);
  task_start.PutI32Vector({3});
  const size_t task_at = valid.find(task_start.Release());
  ASSERT_NE(task_at, std::string::npos);
  const size_t reps_at = task_at + 8 + 12 + 8 + 4 + 4 + 1 + 8 + 24;
  Encoder one;
  one.PutU64(1);
  ASSERT_EQ(valid.substr(reps_at, 8), one.Release());
  std::string no_reps = valid;
  Encoder zero;
  zero.PutU64(0);
  no_reps.replace(reps_at, 8 + 41, zero.Release());
  EXPECT_EQ(SharedMarket(BaseConfig()).RestoreState(no_reps).code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace htune
