// Pinned journal bytes of the two durable controllers.
//
// Each case runs a controller the way `htune_cli run-durable` does — job
// spec in, RunDurable into an in-memory journal with periodic snapshots —
// and pins the journal's size and CRC32C. The journal carries every work
// record kind, so any change to a record payload layout, the frame codec or
// the snapshot codec fails here bitwise. The expected values were recorded
// before the record codecs moved into durability/records.h and must never
// change: an existing journal on disk has to stay readable and replayable.

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
#include "market/fault_schedule.h"
#include "model/price_rate_curve.h"
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
  MarketConfig market;
  market.worker_arrival_rate = spec.arrival_rate;
  market.worker_error_prob = spec.worker_error_prob;
  market.abandon_prob = spec.abandon_prob;
  market.abandon_hold_rate = spec.abandon_hold_rate;
  market.seed = spec.seed;
  market.record_trace = true;
  return market;
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

}  // namespace
}  // namespace htune
