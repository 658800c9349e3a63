// Pinned journal bytes of the two durable controllers.
//
// Each case runs a controller the way `htune_cli run-durable` does — job
// spec in, RunDurable into an in-memory journal with periodic snapshots —
// and pins the journal's size and CRC32C. The journal carries every work
// record kind, so any change to a record payload layout, the frame codec or
// the snapshot codec fails here bitwise. The expected values were recorded
// before the record codecs moved into durability/records.h and must never
// change: an existing journal on disk has to stay readable and replayable.
//
// Further cases pin the fault-tolerant branches the first journal never
// takes (budget exhaustion, an expiring time deadline, a fault gate on the
// market transport) and the non-durable `Run` of both controllers, the
// latter as a CRC32C over every report field; the executor's `Run` also
// takes budget demotions. Their values were recorded before the two
// controllers moved onto one review loop.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "control/adaptive_retuner.h"
#include "control/fault_tolerant_executor.h"
#include "durability/crc32c.h"
#include "durability/journal.h"
#include "durability/recovery.h"
#include "durability/serialize.h"
#include "market/fault_schedule.h"
#include "model/price_rate_curve.h"
#include "obs/metrics.h"
#include "resilience/fault_injector.h"
#include "spec/job_spec.h"
#include "tuning/repetition_allocator.h"

namespace htune {
namespace {

constexpr char kSpec[] =
    "budget = 150\n"
    "arrival_rate = 90\n"
    "error_prob = 0.1\n"
    "abandon_prob = 0.15\n"
    "abandon_hold_rate = 2.0\n"
    "seed = 11\n"
    "[group]\n"
    "tasks = 8\n"
    "repetitions = 3\n"
    "processing_rate = 5.0\n"
    "curve = linear 1.0 1.0\n";

MarketConfig MarketFor(const JobSpec& spec) {
  return MarketConfigFor(spec, spec.seed);
}

std::map<JournalRecordType, int> CountRecords(const std::string& journal) {
  std::map<JournalRecordType, int> counts;
  const auto contents = ScanJournal(journal);
  EXPECT_TRUE(contents.ok());
  EXPECT_FALSE(contents->truncated_tail);
  for (const JournalRecord& record : contents->records) {
    ++counts[record.type];
  }
  return counts;
}

TEST(JournalGoldenTest, FaultTolerantRunDurableBytesArePinned) {
  const auto spec = ParseJobSpec(kSpec);
  ASSERT_TRUE(spec.ok()) << spec.status();
  const RepetitionAllocator allocator;
  FaultTolerantConfig config;
  config.budget = 220;
  config.review_interval = 0.2;
  config.straggler_quantile = 0.9;
  config.acceptance_timeout = 1.0;
  config.abandonment = {spec->abandon_prob, spec->abandon_hold_rate};
  const FaultTolerantExecutor executor(&allocator, config);
  InMemoryJournalStorage storage;
  DurabilityConfig durability;
  durability.storage = &storage;
  durability.snapshot_interval = 3;
  const std::vector<QuestionSpec> questions(
      static_cast<size_t>(spec->problem.TotalTasks()));
  // A worker-arrival outage makes stragglers, so the run escalates.
  MarketConfig market = MarketFor(*spec);
  const auto outage = FaultSchedule::Create({{0.6, 1.8, 0.05, -1.0}});
  ASSERT_TRUE(outage.ok());
  market.fault_schedule = std::make_shared<FaultSchedule>(*outage);
  const auto report =
      executor.RunDurable(market, spec->problem, questions, durability);
  ASSERT_TRUE(report.ok()) << report.status();

  const auto counts = CountRecords(storage.bytes());
  for (const JournalRecordType type :
       {JournalRecordType::kRunStart, JournalRecordType::kPost,
        JournalRecordType::kReprice, JournalRecordType::kPayment,
        JournalRecordType::kCompletion, JournalRecordType::kReviewEnd,
        JournalRecordType::kSnapshot, JournalRecordType::kRunEnd}) {
    EXPECT_GT(counts.count(type), 0u) << JournalRecordTypeToString(type);
  }
  EXPECT_EQ(storage.bytes().size(), 29540u);
  EXPECT_EQ(Crc32c(storage.bytes()), 0x0b7fed11u);
}

TEST(JournalGoldenTest, RetunerRunDurableBytesArePinned) {
  const auto spec = ParseJobSpec(kSpec);
  ASSERT_TRUE(spec.ok()) << spec.status();
  const RepetitionAllocator allocator;
  RetunerConfig config;
  config.review_interval = 0.3;
  config.min_observations = 4;
  const auto believed = spec->problem.groups[0].curve;
  config.market_truth_per_group = {std::make_shared<FunctionCurve>(
      [believed](double p) { return 0.5 * believed->Rate(p); },
      "0.5x belief")};
  const AdaptiveRetuner retuner(&allocator, config);
  InMemoryJournalStorage storage;
  DurabilityConfig durability;
  durability.storage = &storage;
  durability.snapshot_interval = 2;
  const std::vector<QuestionSpec> questions(
      static_cast<size_t>(spec->problem.TotalTasks()));
  const auto report = retuner.RunDurable(MarketFor(*spec), spec->problem,
                                         questions, durability);
  ASSERT_TRUE(report.ok()) << report.status();

  const auto counts = CountRecords(storage.bytes());
  for (const JournalRecordType type :
       {JournalRecordType::kRunStart, JournalRecordType::kPost,
        JournalRecordType::kReprice, JournalRecordType::kPayment,
        JournalRecordType::kCompletion, JournalRecordType::kReviewEnd,
        JournalRecordType::kSnapshot, JournalRecordType::kRunEnd}) {
    EXPECT_GT(counts.count(type), 0u) << JournalRecordTypeToString(type);
  }
  EXPECT_EQ(storage.bytes().size(), 23821u);
  EXPECT_EQ(Crc32c(storage.bytes()), 0x9d3c901au);
}

// The first case's executor knobs and outage market, shared by the cases
// that pin the branches it misses.
FaultTolerantConfig GoldenFtConfig(const JobSpec& spec) {
  FaultTolerantConfig config;
  config.budget = 220;
  config.review_interval = 0.2;
  config.straggler_quantile = 0.9;
  config.acceptance_timeout = 1.0;
  config.abandonment = {spec.abandon_prob, spec.abandon_hold_rate};
  return config;
}

MarketConfig OutageMarket(const JobSpec& spec) {
  MarketConfig market = MarketFor(spec);
  market.fault_schedule = std::make_shared<FaultSchedule>(
      *FaultSchedule::Create({{0.6, 1.8, 0.05, -1.0}}));
  return market;
}

struct PinnedJournal {
  FaultTolerantReport report;
  std::string bytes;
};

PinnedJournal RunFtDurable(const JobSpec& spec,
                           const FaultTolerantConfig& config) {
  const RepetitionAllocator allocator;
  const FaultTolerantExecutor executor(&allocator, config);
  InMemoryJournalStorage storage;
  DurabilityConfig durability;
  durability.storage = &storage;
  durability.snapshot_interval = 3;
  const std::vector<QuestionSpec> questions(
      static_cast<size_t>(spec.problem.TotalTasks()));
  const auto report = executor.RunDurable(OutageMarket(spec), spec.problem,
                                          questions, durability);
  EXPECT_TRUE(report.ok()) << report.status();
  return {report.ok() ? *report : FaultTolerantReport{}, storage.bytes()};
}

uint32_t ReportDigest(const FaultTolerantReport& report) {
  Encoder e;
  e.PutDouble(report.latency);
  e.PutI64(report.spent);
  e.PutI32(report.reviews);
  e.PutI32(report.stragglers);
  e.PutI32(report.escalations);
  e.PutI32(report.abandoned_attempts);
  e.PutI32(report.expired_posts);
  e.PutBool(report.degraded);
  e.PutI32(report.floor_repetitions);
  e.PutBool(report.deadline_expired);
  for (const std::vector<int>& answers : report.answers) {
    e.PutI32Vector(answers);
  }
  return Crc32c(e.Release());
}

uint32_t ReportDigest(const RetunerReport& report) {
  Encoder e;
  e.PutDouble(report.latency);
  e.PutI64(report.spent);
  e.PutI32(report.retunes);
  e.PutI32(report.reviews);
  for (const double scale : report.final_scale) e.PutDouble(scale);
  e.PutI32Vector(report.final_prices);
  return Crc32c(e.Release());
}

// A ceiling equal to the plan (0 = the problem budget, which the allocator
// spends in full) leaves no escalation headroom: stragglers ride at floor
// terms and the report is degraded.
TEST(JournalGoldenTest, FaultTolerantCeilingAtPlanBytesArePinned) {
  const auto spec = ParseJobSpec(kSpec);
  ASSERT_TRUE(spec.ok()) << spec.status();
  FaultTolerantConfig config = GoldenFtConfig(*spec);
  config.budget = 0;
  const PinnedJournal run = RunFtDurable(*spec, config);
  EXPECT_TRUE(run.report.degraded);
  EXPECT_GT(run.report.floor_repetitions, 0);
  EXPECT_EQ(run.report.spent, spec->problem.budget);
  EXPECT_EQ(run.bytes.size(), 29311u);
  EXPECT_EQ(Crc32c(run.bytes), 0xc3a16f51u);
}

TEST(JournalGoldenTest, FaultTolerantExpiredDeadlineBytesArePinned) {
  const auto spec = ParseJobSpec(kSpec);
  ASSERT_TRUE(spec.ok()) << spec.status();
  FaultTolerantConfig config = GoldenFtConfig(*spec);
  config.time_deadline = 1.0;
  const PinnedJournal run = RunFtDurable(*spec, config);
  EXPECT_TRUE(run.report.deadline_expired);
  EXPECT_EQ(run.bytes.size(), 7732u);
  EXPECT_EQ(Crc32c(run.bytes), 0x4a671980u);
}

// A bounded gate heals inside the retry budget, so it changes no decision:
// the journal is byte for byte the ungated first case's.
TEST(JournalGoldenTest, FaultTolerantBoundedMarketGateBytesArePinned) {
  const auto spec = ParseJobSpec(kSpec);
  ASSERT_TRUE(spec.ok()) << spec.status();
  FaultInjectorConfig faults;
  faults.seed = 5;
  faults.market_fault_prob = 0.5;
  faults.max_consecutive_faults = 2;
  FaultInjector injector(faults);
  FaultTolerantConfig config = GoldenFtConfig(*spec);
  config.market_fault_gate = injector.MarketGate();
  const PinnedJournal run = RunFtDurable(*spec, config);
  EXPECT_GT(injector.stats().market_faults, 0u);
  EXPECT_GT(run.report.escalations, 0);
  EXPECT_EQ(run.bytes.size(), 29540u);
  EXPECT_EQ(Crc32c(run.bytes), 0x0b7fed11u);
}

// Run on a market another requester also spends on: the foreign payments
// count against the ceiling, so the plan overshoots it and the executor
// demotes the costliest plan to floor price.
TEST(JournalGoldenTest, FaultTolerantRunReportIsPinned) {
  const auto spec = ParseJobSpec(kSpec);
  ASSERT_TRUE(spec.ok()) << spec.status();
  FaultTolerantConfig config = GoldenFtConfig(*spec);
  config.budget = 170;
  const RepetitionAllocator allocator;
  const FaultTolerantExecutor executor(&allocator, config);
  MarketConfig market_config = OutageMarket(*spec);
  market_config.record_trace = false;
  MarketSimulator market(market_config);
  TaskSpec foreign;
  foreign.repetitions = 10;
  foreign.processing_rate = 2.0;
  foreign.per_repetition_prices.assign(10, 6);
  foreign.per_repetition_rates.assign(10, 7.0);
  ASSERT_TRUE(market.PostTask(foreign).ok());
  const bool was_enabled = obs::Enabled();
  obs::SetEnabled(true);
  const obs::Counter& demotions =
      obs::GlobalMetrics().GetCounter("executor.floor_demotions");
  const uint64_t demotions_before = demotions.Value();
  const auto report = executor.Run(
      market, spec->problem,
      std::vector<QuestionSpec>(
          static_cast<size_t>(spec->problem.TotalTasks())));
  obs::SetEnabled(was_enabled);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_GT(demotions.Value(), demotions_before);
  EXPECT_TRUE(report->degraded);
  EXPECT_GT(report->escalations, 0);
  EXPECT_EQ(ReportDigest(*report), 0xe8634ccfu);
}

TEST(JournalGoldenTest, RetunerRunReportIsPinned) {
  const auto spec = ParseJobSpec(kSpec);
  ASSERT_TRUE(spec.ok()) << spec.status();
  const RepetitionAllocator allocator;
  RetunerConfig config;
  config.review_interval = 0.3;
  config.min_observations = 4;
  const auto believed = spec->problem.groups[0].curve;
  config.market_truth_per_group = {std::make_shared<FunctionCurve>(
      [believed](double p) { return 0.5 * believed->Rate(p); },
      "0.5x belief")};
  const AdaptiveRetuner retuner(&allocator, config);
  MarketSimulator market(MarketFor(*spec));
  const auto report = retuner.Run(
      market, spec->problem,
      std::vector<QuestionSpec>(
          static_cast<size_t>(spec->problem.TotalTasks())));
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_GT(report->retunes, 0);
  EXPECT_EQ(ReportDigest(*report), 0x0725a5b4u);
}

}  // namespace
}  // namespace htune
