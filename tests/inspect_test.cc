// Tests of the journal inspector (platform/inspect.h): each verb over real
// controller, serve-job and service journals and fleet manifests, and over
// hand-damaged copies of them — torn tails, duplicated payments, ledger
// mismatches, slot gaps, undecodable snapshots and manifest records.

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "control/fault_tolerant_executor.h"
#include "durability/journal.h"
#include "durability/manifest.h"
#include "durability/records.h"
#include "durability/recovery.h"
#include "durability/serialize.h"
#include "durability/snapshot.h"
#include "fleet/supervisor.h"
#include "market/simulator.h"
#include "model/price_rate_curve.h"
#include "platform/inspect.h"
#include "platform/service.h"
#include "tuning/repetition_allocator.h"

namespace htune {
namespace {

struct Inspection {
  int exit_code = -1;
  std::string out;
};

/// Writes `bytes` to a scratch file with the file name of `name` and
/// inspects it: the service journal is recognized by its file name. Each
/// test writes into its own directory, since ctest runs tests in parallel.
Inspection Inspect(std::string_view verb, const std::string& bytes,
                   const std::string& name = "job.journal") {
  const std::filesystem::path dir =
      std::filesystem::path(testing::TempDir()) /
      ("inspect_test." +
       std::string(
           testing::UnitTest::GetInstance()->current_test_info()->name()));
  std::filesystem::create_directories(dir);
  const std::string path =
      (dir / std::filesystem::path(name).filename()).string();
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
  Inspection result;
  result.exit_code = InspectFile(verb, path, &result.out);
  return result;
}

/// A fault-tolerant run journaled in memory: every record kind, several
/// snapshots, and a balanced ledger.
std::string ControllerJournal() {
  TaskGroup group;
  group.name = "vote";
  group.num_tasks = 5;
  group.repetitions = 3;
  group.processing_rate = 5.0;
  group.curve = std::make_shared<LinearCurve>(1.0, 1.0);
  TuningProblem problem;
  problem.groups = {group};
  problem.budget = 90;
  MarketConfig market;
  market.worker_arrival_rate = 80.0;
  market.worker_error_prob = 0.1;
  market.abandon_prob = 0.1;
  market.abandon_hold_rate = 2.0;
  market.seed = 77;
  const RepetitionAllocator allocator;
  FaultTolerantConfig config;
  config.budget = 120;
  config.review_interval = 0.2;
  config.abandonment = {0.1, 2.0};
  const FaultTolerantExecutor executor(&allocator, config);
  InMemoryJournalStorage storage;
  DurabilityConfig durability;
  durability.storage = &storage;
  durability.snapshot_interval = 2;
  const auto report =
      executor.RunDurable(market, problem,
                          std::vector<QuestionSpec>(5), durability);
  EXPECT_TRUE(report.ok()) << report.status();
  return storage.bytes();
}

/// Rebuilds `journal` record by record; `edit` may rewrite, drop (return
/// false) or follow each record with extra frames appended to `extra`.
template <typename Edit>
std::string Rebuild(const std::string& journal, Edit edit) {
  const auto contents = ScanJournal(journal);
  EXPECT_TRUE(contents.ok());
  std::string out = EncodeJournalHeader(kJournalFormat);
  for (JournalRecord record : contents->records) {
    std::string extra;
    if (edit(record, &extra)) {
      out += EncodeJournalRecord(record.type, record.payload);
    }
    out += extra;
  }
  return out;
}

TEST(InspectTest, ControllerJournalVerifiesAndBalances) {
  const std::string journal = ControllerJournal();
  const Inspection verify = Inspect("verify", journal);
  EXPECT_EQ(verify.exit_code, 0) << verify.out;
  EXPECT_NE(verify.out.find("OK: controller journal"), std::string::npos);
  EXPECT_NE(verify.out.find("ledger balanced"), std::string::npos);

  const Inspection ledger = Inspect("ledger", journal);
  EXPECT_EQ(ledger.exit_code, 0) << ledger.out;
  EXPECT_NE(ledger.out.find("task 1: [slot 0: "), std::string::npos);
  EXPECT_NE(ledger.out.find(": BALANCED"), std::string::npos);

  const Inspection dump = Inspect("dump", journal);
  EXPECT_EQ(dump.exit_code, 0) << dump.out;
  for (const char* type : {"RUN_START   budget=120 tasks=5", "POST", "PAYMENT",
                           "COMPLETION", "REVIEW_END", "SNAPSHOT", "RUN_END"}) {
    EXPECT_NE(dump.out.find(type), std::string::npos) << type;
  }
  EXPECT_EQ(dump.out.find("undecodable"), std::string::npos) << dump.out;
}

TEST(InspectTest, TornTailFailsVerify) {
  const std::string journal = ControllerJournal();
  const std::string torn = journal.substr(0, journal.size() - 5);
  const Inspection verify = Inspect("verify", torn);
  EXPECT_EQ(verify.exit_code, 1);
  EXPECT_NE(verify.out.find("FAIL: torn tail at offset"), std::string::npos)
      << verify.out;
  const Inspection dump = Inspect("dump", torn);
  EXPECT_NE(dump.out.find("torn tail at offset"), std::string::npos);
}

TEST(InspectTest, DuplicatedPaymentFailsLedgerAndVerify) {
  bool duplicated = false;
  const std::string journal = Rebuild(
      ControllerJournal(),
      [&](const JournalRecord& record, std::string* extra) {
        if (record.type == JournalRecordType::kPayment && !duplicated) {
          *extra = EncodeJournalRecord(record.type, record.payload);
          duplicated = true;
        }
        return true;
      });
  ASSERT_TRUE(duplicated);
  const Inspection ledger = Inspect("ledger", journal);
  EXPECT_EQ(ledger.exit_code, 1) << ledger.out;
  EXPECT_NE(ledger.out.find("paid twice"), std::string::npos) << ledger.out;
  // The duplicate is not counted: the total still balances.
  EXPECT_NE(ledger.out.find(": BALANCED"), std::string::npos);
  EXPECT_EQ(Inspect("verify", journal).exit_code, 1);
}

TEST(InspectTest, LedgerMismatchWithRunEndFails) {
  const std::string journal = Rebuild(
      ControllerJournal(), [](JournalRecord& record, std::string*) {
        if (record.type == JournalRecordType::kRunEnd) {
          RunEndRecord end;
          EXPECT_TRUE(DecodeRecord(record.payload, &end).ok());
          ++end.spent;
          record.payload = EncodeRecord(end);
        }
        return true;
      });
  const Inspection ledger = Inspect("ledger", journal);
  EXPECT_EQ(ledger.exit_code, 1) << ledger.out;
  EXPECT_NE(ledger.out.find(": MISMATCH"), std::string::npos) << ledger.out;
  const Inspection verify = Inspect("verify", journal);
  EXPECT_EQ(verify.exit_code, 1);
  EXPECT_NE(verify.out.find("!= run-end spent"), std::string::npos)
      << verify.out;
}

TEST(InspectTest, PaymentSlotGapFailsLedger) {
  bool dropped = false;
  const std::string journal = Rebuild(
      ControllerJournal(), [&](const JournalRecord& record, std::string*) {
        PaymentRecord payment;
        if (!dropped && record.type == JournalRecordType::kPayment &&
            DecodeRecord(record.payload, &payment).ok() && payment.slot == 0) {
          dropped = true;
          return false;
        }
        return true;
      });
  ASSERT_TRUE(dropped);
  const Inspection ledger = Inspect("ledger", journal);
  EXPECT_EQ(ledger.exit_code, 1) << ledger.out;
  EXPECT_NE(ledger.out.find("skips from slot 0 to 1"), std::string::npos)
      << ledger.out;
}

TEST(InspectTest, UndecodableRunStartIsNeverGuessed) {
  std::string journal = EncodeJournalHeader(kJournalFormat) +
                        EncodeJournalRecord(JournalRecordType::kRunStart,
                                            std::string(3, '\x01'));
  const Inspection dump = Inspect("dump", journal);
  EXPECT_EQ(dump.exit_code, 1);
  EXPECT_NE(dump.out.find("FAIL: undecodable journal: RUN_START decodes as "
                          "neither"),
            std::string::npos)
      << dump.out;
  EXPECT_EQ(Inspect("verify", journal).exit_code, 1);
  EXPECT_EQ(Inspect("ledger", journal).exit_code, 1);
}

TEST(InspectTest, UnknownVerbIsUsageErrorAndMissingFileAProblem) {
  EXPECT_EQ(Inspect("fsck", ControllerJournal()).exit_code, 2);
  const std::string missing = testing::TempDir() + "no_such.journal";
  std::string out;
  EXPECT_EQ(InspectFile("fsck", missing, &out), 2);
  EXPECT_EQ(InspectFile("verify", missing, &out), 1);
  EXPECT_NE(out.find("FAIL: cannot read " + missing), std::string::npos);
}

// --- Market-state snapshots -------------------------------------------------

MarketState SampleMarketState() {
  MarketConfig config;
  config.worker_arrival_rate = 40.0;
  config.abandon_prob = 0.3;
  config.abandon_hold_rate = 3.0;
  config.seed = 9;
  config.record_trace = true;
  MarketSimulator market(config);
  for (int t = 0; t < 4; ++t) {
    TaskSpec spec;
    spec.repetitions = 3;
    spec.processing_rate = 2.0;
    spec.per_repetition_prices = {2, 2, 2};
    spec.per_repetition_rates = {2.0, 2.0, 2.0};
    spec.acceptance_timeout = 0.5;
    EXPECT_TRUE(market.PostTask(spec).ok());
  }
  market.RunUntil(0.7);
  const auto state = market.CaptureState({});
  EXPECT_TRUE(state.ok());
  return *state;
}

/// The tallies the inspector should print for `state`.
std::string ExpectedTallies(const MarketState& state) {
  std::map<uint8_t, int> queue;
  for (const MarketState::Event& event : state.events) ++queue[event.kind];
  std::map<TraceEventKind, int> trace;
  for (const TraceEvent& event : state.trace) ++trace[event.kind];
  std::string text = "queue=[";
  for (const auto& [kind, count] : queue) {
    text += (text.back() == '[' ? "kind" : " kind") + std::to_string(kind) +
            "=" + std::to_string(count);
  }
  text += "] trace=[";
  for (const auto& [kind, count] : trace) {
    text += (text.back() == '[' ? "" : " ") +
            std::string(TraceEventKindToString(kind)) + "=" +
            std::to_string(count);
  }
  return text + "]";
}

/// A controller journal of run-start, one snapshot holding `market_blob`,
/// and run-end.
std::string SnapshotJournal(const std::string& market_blob) {
  Encoder snapshot;
  snapshot.PutString(market_blob);
  snapshot.PutString("\x01\x02\x03");
  return EncodeJournalHeader(kJournalFormat) +
         EncodeJournalRecord(JournalRecordType::kRunStart,
                             EncodeRecord(RunStartRecord{100000, 4})) +
         EncodeJournalRecord(JournalRecordType::kSnapshot,
                             snapshot.Release()) +
         EncodeJournalRecord(JournalRecordType::kRunEnd,
                             EncodeRecord(RunEndRecord{0, 2.25}));
}

TEST(InspectTest, SnapshotSummariesTallyQueueAndTraceKinds) {
  const MarketState state = SampleMarketState();
  ASSERT_GE(state.events.size(), 2u);
  ASSERT_FALSE(state.trace.empty());
  const std::string tallies = ExpectedTallies(state);
  const std::string counts =
      "tasks_created=" + std::to_string(state.next_task) +
      " events_seen=" + std::to_string(state.event_sequence) +
      " spent=" + std::to_string(state.total_spent) +
      " open=" + std::to_string(state.open_tasks.size()) +
      " completed=" + std::to_string(state.completed.size()) + " ";

  const Inspection v2 =
      Inspect("dump", SnapshotJournal(EncodeMarketState(state)));
  EXPECT_EQ(v2.exit_code, 0) << v2.out;
  EXPECT_NE(v2.out.find("(v2 now="), std::string::npos) << v2.out;
  EXPECT_NE(v2.out.find(counts + tallies + ") executor_blob=3B"),
            std::string::npos)
      << v2.out << "\nwant: " << counts << tallies;
  EXPECT_EQ(Inspect("verify", SnapshotJournal(EncodeMarketState(state)))
                .exit_code,
            0);
}

TEST(InspectTest, TruncatedOrTrailingSnapshotBlobIsUndecodable) {
  const std::string blob = EncodeMarketState(SampleMarketState());
  for (const std::string& damaged :
       {blob.substr(0, blob.size() - 10), blob + std::string(1, '\0')}) {
    const std::string journal = SnapshotJournal(damaged);
    const Inspection dump = Inspect("dump", journal);
    EXPECT_EQ(dump.exit_code, 1);
    EXPECT_NE(dump.out.find("SNAPSHOT    <undecodable: "), std::string::npos)
        << dump.out;
    const Inspection verify = Inspect("verify", journal);
    EXPECT_EQ(verify.exit_code, 1);
    EXPECT_NE(verify.out.find("SNAPSHOT record: "), std::string::npos)
        << verify.out;
  }
}

// --- Serve artifacts --------------------------------------------------------

TEST(InspectTest, SharedServiceGangJournalsVerifyAndNameEachJob) {
  InMemoryFleetStorage provider;
  FleetSupervisor fleet(&provider, FleetConfig{});
  ASSERT_TRUE(fleet.Open().ok());
  std::map<uint64_t, std::string> names;
  for (int j = 0; j < 3; ++j) {
    FleetJobSpec job;
    job.name = "gang-job-" + std::to_string(j);
    job.spec_text = "budget = 200\nseed = " + std::to_string(40 + j) +
                    "\n[group]\ntasks = 8\nrepetitions = 2\n"
                    "processing_rate = 2.0\ncurve = linear 1.0 0.0\n";
    const auto id = fleet.Submit(job);
    ASSERT_TRUE(id.ok()) << id.status();
    names[*id] = job.name;
  }
  SharedServiceConfig config;
  config.market.present = true;
  config.market.arrival_rate = 50.0;
  config.market.curve = "linear 1.0 0.0";
  config.market.seed = 3;
  config.market.review_interval = 0.25;
  config.market.snapshot_interval = 1;
  SharedMarketService service(&provider, config);
  const auto stats = fleet.RunAllShared(&service);
  ASSERT_TRUE(stats.ok()) << stats.status();
  ASSERT_EQ(stats->completed, 3);

  for (const auto& [id, name] : names) {
    const std::string path = FleetJobJournalPath(id);
    InMemoryJournalStorage* storage = provider.Find(path);
    ASSERT_NE(storage, nullptr) << path;
    const Inspection verify = Inspect("verify", storage->bytes(), path);
    EXPECT_EQ(verify.exit_code, 0) << verify.out;
    const Inspection dump = Inspect("dump", storage->bytes(), path);
    EXPECT_EQ(dump.exit_code, 0) << dump.out;
    EXPECT_NE(dump.out.find("serve job journal"), std::string::npos);
    EXPECT_NE(dump.out.find("job=" + std::to_string(id) + " name='" + name +
                            "'"),
              std::string::npos)
        << dump.out;
    EXPECT_NE(dump.out.find(" [TASK_ACCEPTED="), std::string::npos)
        << dump.out;
    EXPECT_EQ(Inspect("ledger", storage->bytes(), path).exit_code, 1);
  }

  InMemoryJournalStorage* shared =
      provider.Find(kSharedServiceJournalPath);
  ASSERT_NE(shared, nullptr);
  const Inspection dump =
      Inspect("dump", shared->bytes(), kSharedServiceJournalPath);
  EXPECT_EQ(dump.exit_code, 0) << dump.out;
  std::string gang = "RUN_START   jobs=[";
  for (const auto& [id, name] : names) {
    gang += std::to_string(id) + ":" + std::to_string(40 + id - 1) +
            (id == names.rbegin()->first ? "]" : " ");
  }
  EXPECT_NE(dump.out.find(gang), std::string::npos) << dump.out;
  EXPECT_NE(dump.out.find("v1 epoch=1 market_blob="), std::string::npos)
      << dump.out;
  EXPECT_NE(dump.out.find("sessions=3"), std::string::npos);
  EXPECT_EQ(
      Inspect("verify", shared->bytes(), kSharedServiceJournalPath).exit_code,
      0);
  // Under any other name the service journal's fingerprint is no run-start
  // layout the inspector knows.
  EXPECT_EQ(Inspect("dump", shared->bytes(), "jobs/9.journal").exit_code, 1);

  InMemoryJournalStorage* manifest =
      provider.Find(FleetManifestFileName());
  ASSERT_NE(manifest, nullptr);
  const Inspection folded = Inspect("manifest", manifest->bytes());
  EXPECT_EQ(folded.exit_code, 0) << folded.out;
  EXPECT_NE(folded.out.find("totals: [DONE=3]"), std::string::npos)
      << folded.out;
}

// --- Fleet manifests --------------------------------------------------------

// A manifest of job 1, then a kJob record cut to 17 bytes, then a kState
// DONE for job 1. ScanManifest trusts only job 1 PENDING: the cut record
// ends the valid prefix, so the later DONE is never folded.
TEST(InspectTest, ManifestFoldsExactlyWhatScanManifestTrusts) {
  InMemoryJournalStorage storage;
  auto manifest = FleetManifest::Open(&storage);
  ASSERT_TRUE(manifest.ok());
  FleetJobSpec spec;
  spec.name = "first";
  spec.spec_text = "budget = 10\n";
  ASSERT_TRUE(manifest->AppendJob(1, spec).ok());
  const uint64_t trusted = storage.bytes().size();
  spec.name = "second";
  const std::string cut = EncodeManifestJobPayload(2, spec).substr(0, 17);
  storage.bytes() += EncodeJournalRecord(
      static_cast<JournalRecordType>(ManifestRecordType::kJob), cut);
  storage.bytes() += EncodeJournalRecord(
      static_cast<JournalRecordType>(ManifestRecordType::kState),
      EncodeManifestStatePayload(1, FleetJobState::kDone, 0, 99, "done"));

  const Inspection folded = Inspect("manifest", storage.bytes());
  EXPECT_EQ(folded.exit_code, 1) << folded.out;
  EXPECT_NE(folded.out.find("fleet manifest: 1 jobs, " +
                            std::to_string(trusted) + " valid bytes"),
            std::string::npos)
      << folded.out;
  EXPECT_NE(folded.out.find("job      1  PENDING"), std::string::npos)
      << folded.out;
  EXPECT_EQ(folded.out.find("DONE"), std::string::npos) << folded.out;
  EXPECT_EQ(folded.out.find("job      2"), std::string::npos) << folded.out;
  EXPECT_NE(folded.out.find("torn tail at offset " + std::to_string(trusted)),
            std::string::npos)
      << folded.out;
}

TEST(InspectTest, ManifestVerbRejectsAWorkJournal) {
  const Inspection folded = Inspect("manifest", ControllerJournal());
  EXPECT_EQ(folded.exit_code, 1);
  EXPECT_NE(folded.out.find("FAIL: "), std::string::npos);
}

}  // namespace
}  // namespace htune
