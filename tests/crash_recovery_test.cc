// Deterministic crash-recovery harness. A durable controller run is killed
// — at every journal record boundary, and mid-write at every byte offset of
// chosen records — then recovered from the same storage, and the final
// report, market trace, spend, and journal bytes must be IDENTICAL to an
// uninterrupted run's, with every payment accounted exactly once.

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "control/adaptive_retuner.h"
#include "control/fault_tolerant_executor.h"
#include "durability/journal.h"
#include "durability/recovery.h"
#include "durability/serialize.h"
#include "durability/snapshot.h"
#include "market/fault_schedule.h"
#include "market/simulator.h"
#include "model/price_rate_curve.h"
#include "platform/inspect.h"
#include "resilience/fault_injector.h"
#include "tuning/repetition_allocator.h"

namespace htune {
namespace {

// ---------------------------------------------------------------------------
// Scenario: a fault-tolerant job on a hostile market (abandonment, an outage
// window, acceptance timeouts) so the journal records posts, reprices,
// payments, completions, reviews, and several snapshots.

struct FtScenario {
  TuningProblem problem;
  std::vector<QuestionSpec> questions;
  MarketConfig market;
  FaultTolerantConfig config;
  int snapshot_interval = 4;
};

FtScenario MakeFtScenario() {
  FtScenario s;
  TaskGroup g;
  g.name = "vote";
  g.num_tasks = 6;
  g.repetitions = 3;
  g.processing_rate = 5.0;
  g.curve = std::make_shared<LinearCurve>(1.0, 1.0);
  s.problem.groups = {g};
  s.problem.budget = 140;
  s.questions.assign(6, QuestionSpec{});

  s.market.worker_arrival_rate = 150.0;
  s.market.worker_error_prob = 0.2;
  s.market.abandon_prob = 0.15;
  s.market.abandon_hold_rate = 2.0;
  const auto outage = FaultSchedule::Create({{0.6, 1.8, 0.05, -1.0}});
  EXPECT_TRUE(outage.ok());
  s.market.fault_schedule = std::make_shared<FaultSchedule>(*outage);
  s.market.seed = 4242;
  s.market.record_trace = true;

  s.config.review_interval = 0.2;
  s.config.straggler_quantile = 0.9;
  s.config.budget = 200;
  s.config.acceptance_timeout = 1.0;
  s.config.abandonment = {0.15, 2.0};
  return s;
}

struct DurableRun {
  FaultTolerantReport report;
  std::vector<TraceEvent> trace;
};

StatusOr<DurableRun> RunFt(const FtScenario& s, JournalStorage& storage) {
  const RepetitionAllocator allocator;
  const FaultTolerantExecutor executor(&allocator, s.config);
  DurabilityConfig durability;
  durability.storage = &storage;
  durability.snapshot_interval = s.snapshot_interval;
  DurableRun run;
  HTUNE_ASSIGN_OR_RETURN(
      run.report, executor.RunDurable(s.market, s.problem, s.questions,
                                      durability, &run.trace));
  return run;
}

// Bitwise report equality: recovery promises the identical run, so even the
// doubles must match exactly, not approximately.
void ExpectReportsIdentical(const FaultTolerantReport& a,
                            const FaultTolerantReport& b) {
  EXPECT_EQ(a.latency, b.latency);
  EXPECT_EQ(a.spent, b.spent);
  EXPECT_EQ(a.reviews, b.reviews);
  EXPECT_EQ(a.stragglers, b.stragglers);
  EXPECT_EQ(a.escalations, b.escalations);
  EXPECT_EQ(a.abandoned_attempts, b.abandoned_attempts);
  EXPECT_EQ(a.expired_posts, b.expired_posts);
  EXPECT_EQ(a.degraded, b.degraded);
  EXPECT_EQ(a.floor_repetitions, b.floor_repetitions);
  EXPECT_EQ(a.deadline_expired, b.deadline_expired);
  EXPECT_EQ(a.answers, b.answers);
}

void ExpectTracesIdentical(const std::vector<TraceEvent>& a,
                           const std::vector<TraceEvent>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].time, b[i].time) << "event " << i;
    EXPECT_EQ(a[i].kind, b[i].kind) << "event " << i;
    EXPECT_EQ(a[i].worker, b[i].worker) << "event " << i;
    EXPECT_EQ(a[i].task, b[i].task) << "event " << i;
    EXPECT_EQ(a[i].repetition, b[i].repetition) << "event " << i;
  }
}

// Exactly-once accounting: every kPayment in the journal names a distinct
// (task, slot), slots are contiguous from 0, and the total equals `spent`.
void ExpectPaymentsExactlyOnce(const std::string& journal, long spent) {
  const auto contents = ScanJournal(journal);
  ASSERT_TRUE(contents.ok());
  std::map<std::pair<uint64_t, int32_t>, int32_t> payments;
  long total = 0;
  for (const JournalRecord& record : contents->records) {
    if (record.type != JournalRecordType::kPayment) continue;
    Decoder decoder(record.payload);
    uint64_t task = 0;
    int32_t slot = 0, price = 0;
    ASSERT_TRUE(decoder.GetU64(&task).ok());
    ASSERT_TRUE(decoder.GetI32(&slot).ok());
    ASSERT_TRUE(decoder.GetI32(&price).ok());
    ASSERT_TRUE(decoder.ExpectDone().ok());
    const bool fresh = payments.emplace(std::make_pair(task, slot), price)
                           .second;
    EXPECT_TRUE(fresh) << "task " << task << " slot " << slot
                       << " paid twice";
    total += price;
  }
  EXPECT_EQ(total, spent);
  std::map<uint64_t, int32_t> max_slot;
  for (const auto& [key, price] : payments) {
    auto [it, first] = max_slot.emplace(key.first, key.second);
    if (!first) it->second = std::max(it->second, key.second);
  }
  for (const auto& [task, top] : max_slot) {
    for (int32_t slot = 0; slot <= top; ++slot) {
      EXPECT_TRUE(payments.count({task, slot}))
          << "task " << task << " skipped slot " << slot;
    }
  }
}

class FtCrashMatrixTest : public ::testing::Test {
 protected:
  // The uninterrupted run all crashed runs are compared against.
  void SetUp() override {
    scenario_ = MakeFtScenario();
    InMemoryJournalStorage storage;
    const auto run = RunFt(scenario_, storage);
    ASSERT_TRUE(run.ok()) << run.status();
    baseline_ = *run;
    journal_ = storage.bytes();
    const auto contents = ScanJournal(journal_);
    ASSERT_TRUE(contents.ok());
    records_ = contents->records;
    // The scenario must actually exercise the machinery it claims to.
    EXPECT_GT(baseline_.report.reviews, 3);
    EXPECT_GT(baseline_.report.abandoned_attempts, 0);
    size_t snapshots = 0;
    for (const JournalRecord& r : records_) {
      if (r.type == JournalRecordType::kSnapshot) ++snapshots;
    }
    EXPECT_GE(snapshots, 2u) << "scenario too short to test snapshots";
    EXPECT_EQ(records_.back().type, JournalRecordType::kRunEnd);
  }

  void ExpectRecoveryMatchesBaseline(InMemoryJournalStorage& storage) {
    const auto recovered = RunFt(scenario_, storage);
    ASSERT_TRUE(recovered.ok()) << recovered.status();
    ExpectReportsIdentical(recovered->report, baseline_.report);
    ExpectTracesIdentical(recovered->trace, baseline_.trace);
    // Recovery regenerates the journal bit for bit.
    EXPECT_EQ(storage.bytes(), journal_);
    ExpectPaymentsExactlyOnce(storage.bytes(), recovered->report.spent);
  }

  /// The journal up to its newest snapshot, with that snapshot's market
  /// blob stripped of its 12-byte v2 header (magic and version), and
  /// nothing after it. Empty on a setup failure.
  std::string HeaderlessSnapshotJournal() const {
    size_t last = records_.size();
    for (size_t i = records_.size(); i > 0; --i) {
      if (records_[i - 1].type == JournalRecordType::kSnapshot) {
        last = i - 1;
        break;
      }
    }
    if (last == records_.size()) return "";
    const size_t first_frame =
        records_[0].end_offset -
        EncodeJournalRecord(records_[0].type, records_[0].payload).size();
    std::string journal = journal_.substr(0, first_frame);  // header
    for (size_t i = 0; i <= last; ++i) {
      std::string payload = records_[i].payload;
      if (i == last) {
        std::string market_blob, executor_blob;
        if (!DurableContext::DecodeSnapshotPayload(payload, &market_blob,
                                                   &executor_blob)
                 .ok()) {
          return "";
        }
        Encoder encoder;
        encoder.PutString(market_blob.substr(12));
        encoder.PutString(executor_blob);
        payload = std::move(encoder).Release();
      }
      journal += EncodeJournalRecord(records_[i].type, payload);
    }
    return journal;
  }

  FtScenario scenario_;
  DurableRun baseline_;
  std::string journal_;
  std::vector<JournalRecord> records_;
};

TEST_F(FtCrashMatrixTest, BaselinePaymentsAreExactlyOnce) {
  ExpectPaymentsExactlyOnce(journal_, baseline_.report.spent);
}

TEST_F(FtCrashMatrixTest, KillAtEveryRecordBoundaryRecovers) {
  // Offset 0 (nothing persisted) and 8 (bare header) are boundaries too.
  std::vector<uint64_t> boundaries = {0, 8};
  for (const JournalRecord& record : records_) {
    boundaries.push_back(record.end_offset);
  }
  for (const uint64_t boundary : boundaries) {
    SCOPED_TRACE("killed at boundary " + std::to_string(boundary));
    InMemoryJournalStorage storage(
        journal_.substr(0, static_cast<size_t>(boundary)));
    ExpectRecoveryMatchesBaseline(storage);
  }
}

TEST_F(FtCrashMatrixTest, KillMidWriteAtEveryByteOffsetRecovers) {
  // Torn writes: the journal ends mid-frame at every byte offset of two
  // representative records — the first record after the first snapshot
  // (recovery must use the snapshot) and the snapshot record itself
  // (recovery must fall back to the previous state).
  size_t snapshot_index = records_.size();
  for (size_t i = 0; i < records_.size(); ++i) {
    if (records_[i].type == JournalRecordType::kSnapshot) {
      snapshot_index = i;
      break;
    }
  }
  ASSERT_LT(snapshot_index + 1, records_.size());
  for (const size_t victim : {snapshot_index, snapshot_index + 1}) {
    const uint64_t begin =
        victim == 0 ? 8 : records_[victim - 1].end_offset;
    const uint64_t end = records_[victim].end_offset;
    for (uint64_t cut = begin; cut < end; ++cut) {
      SCOPED_TRACE("torn at byte " + std::to_string(cut) + " of record " +
                   std::to_string(victim));
      InMemoryJournalStorage storage(
          journal_.substr(0, static_cast<size_t>(cut)));
      ExpectRecoveryMatchesBaseline(storage);
    }
  }
}

TEST_F(FtCrashMatrixTest, LiveCrashInjectionTearsAndRecovers) {
  // Drive the real write path through the crash injector instead of
  // pre-truncating: the run must die with the injector's status, persist
  // exactly the byte prefix the budget allowed, and recover cleanly.
  const std::vector<uint64_t> budgets = {
      0, 13, journal_.size() / 4, journal_.size() / 2,
      journal_.size() - 3};
  for (const uint64_t budget : budgets) {
    SCOPED_TRACE("crash budget " + std::to_string(budget));
    InMemoryJournalStorage inner;
    CrashInjectingStorage crash(&inner, budget);
    const auto killed = RunFt(scenario_, crash);
    ASSERT_FALSE(killed.ok());
    EXPECT_EQ(killed.status().code(), StatusCode::kResourceExhausted);
    EXPECT_TRUE(crash.crashed());
    // Determinism: the torn journal is a byte prefix of the baseline's.
    ASSERT_LE(inner.bytes().size(), journal_.size());
    EXPECT_EQ(inner.bytes(), journal_.substr(0, inner.bytes().size()));
    ExpectRecoveryMatchesBaseline(inner);
  }
}

TEST_F(FtCrashMatrixTest, DoubleCrashStillRecovers) {
  // First kill mid-run, second kill during the recovery run, then a clean
  // recovery: exactly-once accounting must survive repeated interruption.
  InMemoryJournalStorage inner;
  CrashInjectingStorage first(&inner, journal_.size() / 3);
  ASSERT_FALSE(RunFt(scenario_, first).ok());
  const size_t after_first = inner.bytes().size();
  CrashInjectingStorage second(&inner, journal_.size() / 3);
  ASSERT_FALSE(RunFt(scenario_, second).ok());
  EXPECT_GT(inner.bytes().size(), after_first);
  ExpectRecoveryMatchesBaseline(inner);
}

TEST_F(FtCrashMatrixTest, BitFlippedTailIsDroppedAndRegenerated) {
  // Flip one bit inside a mid-journal record: recovery must discard the
  // corrupt suffix and regenerate it, converging on the baseline journal.
  const size_t victim = records_.size() / 2;
  const uint64_t begin = victim == 0 ? 8 : records_[victim - 1].end_offset;
  std::string corrupt = journal_;
  corrupt[static_cast<size_t>(begin) + 2] ^= 0x10;
  InMemoryJournalStorage storage(corrupt);
  ExpectRecoveryMatchesBaseline(storage);
}

TEST_F(FtCrashMatrixTest, HeaderlessSnapshotFailsRecoveryAndAppendsNothing) {
  // A journal cut after its newest snapshot, whose market blob lacks the
  // v2 header (the pre-v2 format): recovery refuses it rather than rerun
  // from a blob it cannot read, and leaves the journal as it was.
  const std::string journal = HeaderlessSnapshotJournal();
  ASSERT_FALSE(journal.empty());
  InMemoryJournalStorage storage(journal);
  const auto recovered = RunFt(scenario_, storage);
  ASSERT_FALSE(recovered.ok());
  EXPECT_EQ(recovered.status().code(), StatusCode::kInvalidArgument)
      << recovered.status();
  EXPECT_NE(recovered.status().message().find("no v2 header"),
            std::string::npos)
      << recovered.status();
  EXPECT_EQ(storage.bytes(), journal);
}

TEST_F(FtCrashMatrixTest, InspectVerifyReportsHeaderlessSnapshot) {
  const std::string journal = HeaderlessSnapshotJournal();
  ASSERT_FALSE(journal.empty());
  const std::string path =
      (std::filesystem::path(testing::TempDir()) /
       "crash_recovery_test.headerless.journal")
          .string();
  std::ofstream(path, std::ios::binary | std::ios::trunc) << journal;
  std::string out;
  EXPECT_EQ(InspectFile("verify", path, &out), 1) << out;
  EXPECT_NE(out.find("SNAPSHOT record: "), std::string::npos) << out;
  EXPECT_NE(out.find("no v2 header"), std::string::npos) << out;
  std::filesystem::remove(path);
}

TEST_F(FtCrashMatrixTest, RerunningAFinishedJournalVerifiesAndMatches) {
  // The journal already holds kRunEnd: a re-run replays the whole history
  // in verify mode, appends nothing, and reports the same result.
  InMemoryJournalStorage storage(journal_);
  ExpectRecoveryMatchesBaseline(storage);
}

TEST_F(FtCrashMatrixTest, DurableRunMatchesPlainRun) {
  // Journaling must not perturb execution: a plain (non-durable) run on an
  // identical market produces the identical report.
  const RepetitionAllocator allocator;
  const FaultTolerantExecutor executor(&allocator, scenario_.config);
  MarketSimulator market(scenario_.market);
  const auto plain =
      executor.Run(market, scenario_.problem, scenario_.questions);
  ASSERT_TRUE(plain.ok()) << plain.status();
  ExpectReportsIdentical(*plain, baseline_.report);
  ExpectTracesIdentical(market.trace(), baseline_.trace);
}

TEST_F(FtCrashMatrixTest, DivergentConfigIsCaughtByReplayVerification) {
  // Recovering with a different market seed re-executes a DIFFERENT run;
  // the bitwise journal comparison must catch the divergence instead of
  // silently producing a franken-history. The cut must land BEFORE the
  // first snapshot: a snapshot carries the market RNG state, so once one
  // is restored the configured seed no longer matters and recovery would
  // (correctly) still converge.
  FtScenario wrong = scenario_;
  wrong.market.seed = 9999;  // different market randomness
  size_t first_snapshot = records_.size();
  for (size_t i = 0; i < records_.size(); ++i) {
    if (records_[i].type == JournalRecordType::kSnapshot) {
      first_snapshot = i;
      break;
    }
  }
  ASSERT_GT(first_snapshot, 0u);
  ASSERT_LT(first_snapshot, records_.size());
  InMemoryJournalStorage storage(journal_.substr(
      0, static_cast<size_t>(records_[first_snapshot - 1].end_offset)));
  const auto recovered = RunFt(wrong, storage);
  ASSERT_FALSE(recovered.ok());
  EXPECT_EQ(recovered.status().code(), StatusCode::kInternal);
}

// ---------------------------------------------------------------------------
// The adaptive retuner under the same harness: a mis-calibrated market
// (truth = 0.4x the believed curve, carried per-group so snapshots exercise
// the curve-table encoding) with crash/recover at every record boundary.

struct RetunerScenario {
  TuningProblem problem;
  std::vector<QuestionSpec> questions;
  MarketConfig market;
  RetunerConfig config;
};

RetunerScenario MakeRetunerScenario() {
  RetunerScenario s;
  TaskGroup g;
  g.name = "drift";
  g.num_tasks = 5;
  g.repetitions = 2;
  g.processing_rate = 4.0;
  const auto believed = std::make_shared<LinearCurve>(1.0, 1.0);
  g.curve = believed;
  s.problem.groups = {g};
  s.problem.budget = 120;
  s.questions.assign(5, QuestionSpec{});

  s.market.worker_arrival_rate = 120.0;
  s.market.worker_error_prob = 0.1;
  s.market.seed = 515;
  s.market.record_trace = true;

  s.config.review_interval = 0.4;
  s.config.min_observations = 5;
  s.config.smoothing = 0.7;
  s.config.market_truth_per_group = {std::make_shared<FunctionCurve>(
      [believed](double p) { return 0.4 * believed->Rate(p); },
      "0.4x belief")};
  return s;
}

StatusOr<RetunerReport> RunRetuner(const RetunerScenario& s,
                                   JournalStorage& storage,
                                   std::vector<TraceEvent>* trace) {
  const RepetitionAllocator allocator;
  const AdaptiveRetuner retuner(&allocator, s.config);
  DurabilityConfig durability;
  durability.storage = &storage;
  durability.snapshot_interval = 3;
  return retuner.RunDurable(s.market, s.problem, s.questions, durability,
                            trace);
}

TEST(RetunerCrashMatrixTest, KillAtEveryRecordBoundaryRecovers) {
  const RetunerScenario scenario = MakeRetunerScenario();
  InMemoryJournalStorage baseline_storage;
  std::vector<TraceEvent> baseline_trace;
  const auto baseline =
      RunRetuner(scenario, baseline_storage, &baseline_trace);
  ASSERT_TRUE(baseline.ok()) << baseline.status();
  EXPECT_GT(baseline->reviews, 2);
  const std::string journal = baseline_storage.bytes();
  const auto contents = ScanJournal(journal);
  ASSERT_TRUE(contents.ok());
  size_t snapshots = 0;
  for (const JournalRecord& r : contents->records) {
    if (r.type == JournalRecordType::kSnapshot) ++snapshots;
  }
  EXPECT_GE(snapshots, 1u);

  std::vector<uint64_t> boundaries = {0, 8};
  for (const JournalRecord& record : contents->records) {
    boundaries.push_back(record.end_offset);
  }
  for (const uint64_t boundary : boundaries) {
    SCOPED_TRACE("killed at boundary " + std::to_string(boundary));
    InMemoryJournalStorage storage(
        journal.substr(0, static_cast<size_t>(boundary)));
    std::vector<TraceEvent> trace;
    const auto recovered = RunRetuner(scenario, storage, &trace);
    ASSERT_TRUE(recovered.ok()) << recovered.status();
    EXPECT_EQ(recovered->latency, baseline->latency);
    EXPECT_EQ(recovered->spent, baseline->spent);
    EXPECT_EQ(recovered->reviews, baseline->reviews);
    EXPECT_EQ(recovered->retunes, baseline->retunes);
    EXPECT_EQ(recovered->final_scale, baseline->final_scale);
    EXPECT_EQ(recovered->final_prices, baseline->final_prices);
    ExpectTracesIdentical(trace, baseline_trace);
    EXPECT_EQ(storage.bytes(), journal);
    ExpectPaymentsExactlyOnce(storage.bytes(), recovered->spent);
  }
}

TEST(RetunerCrashMatrixTest, MidRecordTornWritesRecover) {
  const RetunerScenario scenario = MakeRetunerScenario();
  InMemoryJournalStorage baseline_storage;
  std::vector<TraceEvent> baseline_trace;
  const auto baseline =
      RunRetuner(scenario, baseline_storage, &baseline_trace);
  ASSERT_TRUE(baseline.ok()) << baseline.status();
  const std::string journal = baseline_storage.bytes();
  // Tear inside every 11th byte across the whole journal (cheap smoke of
  // the full byte matrix, which the FT harness covers exhaustively).
  for (size_t cut = 1; cut < journal.size(); cut += 11) {
    SCOPED_TRACE("torn at byte " + std::to_string(cut));
    InMemoryJournalStorage storage(journal.substr(0, cut));
    std::vector<TraceEvent> trace;
    const auto recovered = RunRetuner(scenario, storage, &trace);
    ASSERT_TRUE(recovered.ok()) << recovered.status();
    EXPECT_EQ(recovered->spent, baseline->spent);
    EXPECT_EQ(recovered->latency, baseline->latency);
    ExpectTracesIdentical(trace, baseline_trace);
    EXPECT_EQ(storage.bytes(), journal);
  }
}

// Checkpoint-and-park for the retuner: journal storage that stays down past
// the retry budget parks the run instead of failing it, and a rerun on the
// same storage once the fault clears converges to the uninterrupted run.
TEST(RetunerCrashMatrixTest, ExhaustedJournalRetriesParkAndResume) {
  const RetunerScenario scenario = MakeRetunerScenario();
  InMemoryJournalStorage baseline_storage;
  std::vector<TraceEvent> baseline_trace;
  const auto baseline =
      RunRetuner(scenario, baseline_storage, &baseline_trace);
  ASSERT_TRUE(baseline.ok()) << baseline.status();

  FaultInjectorConfig outage;
  outage.seed = 31;
  outage.append_fault_prob = 0.55;
  outage.max_consecutive_faults = 1000;
  FaultInjector injector(outage);
  InMemoryJournalStorage inner;
  auto storage = injector.WrapStorage(&inner);
  const auto parked = RunRetuner(scenario, *storage, nullptr);
  ASSERT_FALSE(parked.ok());
  EXPECT_EQ(parked.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(parked.status().message().find("parked:"), 0u)
      << parked.status();
  ASSERT_LT(inner.bytes().size(), baseline_storage.bytes().size());

  std::vector<TraceEvent> trace;
  const auto resumed = RunRetuner(scenario, inner, &trace);
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  EXPECT_EQ(resumed->latency, baseline->latency);
  EXPECT_EQ(resumed->spent, baseline->spent);
  EXPECT_EQ(resumed->reviews, baseline->reviews);
  EXPECT_EQ(resumed->retunes, baseline->retunes);
  EXPECT_EQ(resumed->final_scale, baseline->final_scale);
  EXPECT_EQ(resumed->final_prices, baseline->final_prices);
  ExpectTracesIdentical(trace, baseline_trace);
  EXPECT_EQ(inner.bytes(), baseline_storage.bytes());
  ExpectPaymentsExactlyOnce(inner.bytes(), resumed->spent);
}

// FaultTolerantConfig validation (the Run-side guard for durable and plain
// runs alike).
TEST(ValidateFaultTolerantConfigTest, RejectsBadKnobs) {
  EXPECT_TRUE(ValidateFaultTolerantConfig(FaultTolerantConfig{}).ok());
  FaultTolerantConfig c;
  c.review_interval = 0.0;
  EXPECT_EQ(ValidateFaultTolerantConfig(c).code(),
            StatusCode::kInvalidArgument);
  c = FaultTolerantConfig{};
  c.review_interval = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(ValidateFaultTolerantConfig(c).ok());
  c = FaultTolerantConfig{};
  c.straggler_quantile = 1.0;
  EXPECT_FALSE(ValidateFaultTolerantConfig(c).ok());
  c = FaultTolerantConfig{};
  c.straggler_quantile = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(ValidateFaultTolerantConfig(c).ok());
  c = FaultTolerantConfig{};
  c.max_reposts = -1;
  EXPECT_FALSE(ValidateFaultTolerantConfig(c).ok());
  c = FaultTolerantConfig{};
  c.price_escalation = 1.0;
  EXPECT_FALSE(ValidateFaultTolerantConfig(c).ok());
  c = FaultTolerantConfig{};
  c.price_escalation = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(ValidateFaultTolerantConfig(c).ok());
  c = FaultTolerantConfig{};
  c.price_escalation = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(ValidateFaultTolerantConfig(c).ok());
  c = FaultTolerantConfig{};
  c.budget = -5;
  EXPECT_FALSE(ValidateFaultTolerantConfig(c).ok());
  c = FaultTolerantConfig{};
  c.acceptance_timeout = -0.5;
  EXPECT_FALSE(ValidateFaultTolerantConfig(c).ok());
  c = FaultTolerantConfig{};
  c.acceptance_timeout = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(ValidateFaultTolerantConfig(c).ok());

  // A bad config surfaces as a Status from Run, not a crash.
  const RepetitionAllocator allocator;
  FaultTolerantConfig bad;
  bad.price_escalation = std::numeric_limits<double>::quiet_NaN();
  const FaultTolerantExecutor executor(&allocator, bad);
  MarketConfig market_config;
  MarketSimulator market(market_config);
  TaskGroup g;
  g.num_tasks = 1;
  g.repetitions = 1;
  g.curve = std::make_shared<LinearCurve>(1.0, 1.0);
  TuningProblem problem;
  problem.groups = {g};
  problem.budget = 10;
  EXPECT_EQ(executor.Run(market, problem, {QuestionSpec{}}).status().code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace htune
