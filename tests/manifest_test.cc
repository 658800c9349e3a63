// Tests for the fleet manifest codec and scanner (durability/manifest.h)
// and the atomic-replace durability sequence (durability/journal.h):
// payload round-trips, torn-tail tolerance, orphan-evidence bookkeeping,
// compaction/rotation, and the crash matrix of AtomicReplaceFile —
// including the kill between rename and parent-directory fsync that the
// durability audit exists to cover.

#include <cstdio>
#include <string>
#include <vector>

#include "durability/crc32c.h"
#include "durability/journal.h"
#include "durability/manifest.h"
#include "gtest/gtest.h"
#include "resilience/fault_injector.h"
#include "resilience/policy.h"

namespace htune {
namespace {

FleetJobSpec SampleSpec() {
  FleetJobSpec spec;
  spec.name = "labels#3";
  spec.priority = 7;
  spec.spec_text = "budget = 8\n[group]\ntasks = 2\nrepetitions = 2\n";
  spec.ceiling = 450;
  spec.seed_override = 99;
  spec.snapshot_interval = 4;
  spec.controller = FleetController::kAdaptiveRetuner;
  return spec;
}

TEST(ManifestCodecTest, JobPayloadRoundTrips) {
  const FleetJobSpec spec = SampleSpec();
  const std::string payload = EncodeManifestJobPayload(17, spec);
  uint64_t job_id = 0;
  FleetJobSpec decoded;
  ASSERT_TRUE(DecodeManifestJobPayload(payload, &job_id, &decoded).ok());
  EXPECT_EQ(job_id, 17u);
  EXPECT_EQ(decoded.name, spec.name);
  EXPECT_EQ(decoded.priority, spec.priority);
  EXPECT_EQ(decoded.spec_text, spec.spec_text);
  EXPECT_EQ(decoded.ceiling, spec.ceiling);
  EXPECT_EQ(decoded.seed_override, spec.seed_override);
  EXPECT_EQ(decoded.snapshot_interval, spec.snapshot_interval);
  EXPECT_EQ(decoded.controller, spec.controller);
}

TEST(ManifestCodecTest, StatePayloadRoundTrips) {
  const std::string payload = EncodeManifestStatePayload(
      5, FleetJobState::kQuarantined, 3, 12345, "divergent replay");
  uint64_t job_id = 0;
  FleetJobState state = FleetJobState::kPending;
  int32_t restarts = 0;
  uint64_t journal_bytes = 0;
  std::string detail;
  ASSERT_TRUE(DecodeManifestStatePayload(payload, &job_id, &state, &restarts,
                                         &journal_bytes, &detail)
                  .ok());
  EXPECT_EQ(job_id, 5u);
  EXPECT_EQ(state, FleetJobState::kQuarantined);
  EXPECT_EQ(restarts, 3);
  EXPECT_EQ(journal_bytes, 12345u);
  EXPECT_EQ(detail, "divergent replay");
}

TEST(ManifestCodecTest, TruncatedPayloadFailsCleanly) {
  const std::string payload = EncodeManifestJobPayload(17, SampleSpec());
  for (size_t cut = 0; cut < payload.size(); ++cut) {
    uint64_t job_id = 0;
    FleetJobSpec decoded;
    EXPECT_FALSE(DecodeManifestJobPayload(payload.substr(0, cut), &job_id,
                                          &decoded)
                     .ok())
        << "cut at " << cut;
  }
}

TEST(FleetManifestTest, AppendAndReopenFoldsState) {
  InMemoryJournalStorage storage;
  auto manifest = FleetManifest::Open(&storage);
  ASSERT_TRUE(manifest.ok());
  ASSERT_TRUE(manifest->AppendJob(1, SampleSpec()).ok());
  ASSERT_TRUE(manifest
                  ->AppendState(1, FleetJobState::kRunning, 0, 8, "")
                  .ok());
  ASSERT_TRUE(manifest
                  ->AppendState(1, FleetJobState::kDone, 2, 777, "crc32c:42")
                  .ok());
  ASSERT_TRUE(manifest->Flush().ok());

  auto reopened = FleetManifest::Open(&storage);
  ASSERT_TRUE(reopened.ok());
  ASSERT_EQ(reopened->jobs().size(), 1u);
  const ManifestJobEntry& entry = reopened->jobs().at(1);
  EXPECT_EQ(entry.state, FleetJobState::kDone);
  EXPECT_EQ(entry.restarts, 2);
  EXPECT_EQ(entry.journal_bytes, 777u);
  EXPECT_EQ(entry.detail, "crc32c:42");
  EXPECT_EQ(entry.spec.name, "labels#3");
  EXPECT_EQ(reopened->next_job_id(), 2u);
}

TEST(FleetManifestTest, TornTailIsTruncatedNotFatal) {
  InMemoryJournalStorage storage;
  auto manifest = FleetManifest::Open(&storage);
  ASSERT_TRUE(manifest.ok());
  ASSERT_TRUE(manifest->AppendJob(1, SampleSpec()).ok());
  const uint64_t intact = manifest->valid_bytes();
  // A torn append: half of a record's worth of garbage at the tail.
  storage.bytes().append("torn-record-garbage");

  const auto scan = ScanManifest(storage.bytes());
  ASSERT_TRUE(scan.ok());
  EXPECT_TRUE(scan->truncated_tail);
  EXPECT_EQ(scan->valid_bytes, intact);
  EXPECT_EQ(scan->jobs.size(), 1u);

  // Reopen truncates physically and appends resume at the boundary.
  auto reopened = FleetManifest::Open(&storage);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(storage.bytes().size(), intact);
  ASSERT_TRUE(reopened
                  ->AppendState(1, FleetJobState::kDone, 0, 5, "ok")
                  .ok());
  const auto rescan = ScanManifest(storage.bytes());
  ASSERT_TRUE(rescan.ok());
  EXPECT_FALSE(rescan->truncated_tail);
  EXPECT_EQ(rescan->jobs.at(1).state, FleetJobState::kDone);
}

TEST(FleetManifestTest, BitFlipEndsValidPrefix) {
  InMemoryJournalStorage storage;
  auto manifest = FleetManifest::Open(&storage);
  ASSERT_TRUE(manifest.ok());
  ASSERT_TRUE(manifest->AppendJob(1, SampleSpec()).ok());
  const uint64_t after_job = manifest->valid_bytes();
  ASSERT_TRUE(manifest
                  ->AppendState(1, FleetJobState::kRunning, 0, 8, "")
                  .ok());

  // Flip one bit inside the kState record: the CRC walk must stop there.
  storage.bytes()[after_job + 6] ^= 0x01;
  const auto scan = ScanManifest(storage.bytes());
  ASSERT_TRUE(scan.ok());
  EXPECT_TRUE(scan->truncated_tail);
  EXPECT_EQ(scan->valid_bytes, after_job);
  EXPECT_EQ(scan->jobs.at(1).state, FleetJobState::kPending);
}

TEST(FleetManifestTest, WrongMagicIsAnError) {
  const auto scan = ScanManifest("NOTM\x01\x00\x00\x00junk");
  EXPECT_FALSE(scan.ok());
  EXPECT_EQ(scan.status().code(), StatusCode::kInvalidArgument);
}

TEST(FleetManifestTest, StateForUnknownJobIsReportedNotFatal) {
  InMemoryJournalStorage storage;
  auto manifest = FleetManifest::Open(&storage);
  ASSERT_TRUE(manifest.ok());
  // Recover() writes exactly this shape for orphan journals.
  ASSERT_TRUE(manifest
                  ->AppendState(9, FleetJobState::kQuarantined, 0, 0,
                                "orphan journal")
                  .ok());
  const auto scan = ScanManifest(storage.bytes());
  ASSERT_TRUE(scan.ok());
  ASSERT_EQ(scan->unknown_state_ids.size(), 1u);
  EXPECT_EQ(scan->unknown_state_ids[0], 9u);
  EXPECT_TRUE(scan->jobs.empty());
}

TEST(FleetManifestTest, CompactedEncodingFoldsEquivalently) {
  InMemoryJournalStorage storage;
  auto manifest = FleetManifest::Open(&storage);
  ASSERT_TRUE(manifest.ok());
  FleetJobSpec spec = SampleSpec();
  ASSERT_TRUE(manifest->AppendJob(1, spec).ok());
  spec.name = "second";
  ASSERT_TRUE(manifest->AppendJob(2, spec).ok());
  // Many transitions for job 1: compaction should keep only the last.
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(manifest
                    ->AppendState(1, FleetJobState::kPending, i, 0, "loop")
                    .ok());
  }
  ASSERT_TRUE(
      manifest->AppendState(1, FleetJobState::kDone, 20, 99, "final").ok());

  const std::string compact = manifest->EncodeCompacted();
  EXPECT_LT(compact.size(), storage.bytes().size());
  const auto scan = ScanManifest(compact);
  ASSERT_TRUE(scan.ok());
  ASSERT_EQ(scan->jobs.size(), 2u);
  EXPECT_EQ(scan->jobs.at(1).state, FleetJobState::kDone);
  EXPECT_EQ(scan->jobs.at(1).restarts, 20);
  EXPECT_EQ(scan->jobs.at(1).detail, "final");
  EXPECT_EQ(scan->jobs.at(2).spec.name, "second");
}

std::string ReadWholeFile(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) return "<missing>";
  std::string text;
  char buffer[4096];
  size_t got;
  while ((got = std::fread(buffer, 1, sizeof(buffer), file)) > 0) {
    text.append(buffer, got);
  }
  std::fclose(file);
  return text;
}

TEST(AtomicReplaceFileTest, FullSequenceReplacesContent) {
  const std::string path = testing::TempDir() + "/replace_full.bin";
  std::remove(path.c_str());
  {
    FileJournalStorage storage(path);
    ASSERT_TRUE(storage.Append("old-content").ok());
    ASSERT_TRUE(storage.Flush().ok());
  }
  std::vector<std::string> steps;
  ASSERT_TRUE(AtomicReplaceFile(path, "new-content",
                                [&steps](std::string_view step) {
                                  steps.emplace_back(step);
                                  return OkStatus();
                                })
                  .ok());
  EXPECT_EQ(ReadWholeFile(path), "new-content");
  // The audit contract: temp written+fsynced, renamed, parent dir fsynced —
  // in exactly that order.
  ASSERT_EQ(steps.size(), 3u);
  EXPECT_EQ(steps[0], "temp_written");
  EXPECT_EQ(steps[1], "renamed");
  EXPECT_EQ(steps[2], "dir_synced");
  EXPECT_EQ(ReadWholeFile(path + ".tmp"), "<missing>");
}

TEST(AtomicReplaceFileTest, KillAfterTempWriteLeavesOldFileIntact) {
  const std::string path = testing::TempDir() + "/replace_kill_temp.bin";
  std::remove(path.c_str());
  {
    FileJournalStorage storage(path);
    ASSERT_TRUE(storage.Append("old-content").ok());
    ASSERT_TRUE(storage.Flush().ok());
  }
  const Status status = AtomicReplaceFile(
      path, "new-content", [](std::string_view step) {
        return step == "temp_written"
                   ? ResourceExhaustedError("killed after temp write")
                   : OkStatus();
      });
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(ReadWholeFile(path), "old-content");
}

TEST(AtomicReplaceFileTest, KillBetweenRenameAndDirSyncKeepsNewContent) {
  // The durability-audit regression: a crash after rename but before the
  // parent-directory fsync. The rename already happened, so a reader after
  // "reboot" must see the new content and never a mix; the sequence must
  // not consider the replace durable (non-OK status) because the directory
  // entry itself was not yet synced.
  const std::string path = testing::TempDir() + "/replace_kill_rename.bin";
  std::remove(path.c_str());
  {
    FileJournalStorage storage(path);
    ASSERT_TRUE(storage.Append("old-content").ok());
    ASSERT_TRUE(storage.Flush().ok());
  }
  const Status status = AtomicReplaceFile(
      path, "new-content", [](std::string_view step) {
        return step == "renamed"
                   ? ResourceExhaustedError("killed before dir fsync")
                   : OkStatus();
      });
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(ReadWholeFile(path), "new-content");
}

TEST(AtomicReplaceFileTest, RotateManifestFileCompactsInPlace) {
  const std::string path = testing::TempDir() + "/MANIFEST.rotate";
  std::remove(path.c_str());
  {
    FileJournalStorage storage(path);
    auto manifest = FleetManifest::Open(&storage);
    ASSERT_TRUE(manifest.ok());
    ASSERT_TRUE(manifest->AppendJob(1, SampleSpec()).ok());
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE(manifest
                      ->AppendState(1, FleetJobState::kPending, i, 0, "spin")
                      .ok());
    }
    ASSERT_TRUE(
        manifest->AppendState(1, FleetJobState::kDone, 50, 7, "end").ok());
    ASSERT_TRUE(manifest->Flush().ok());
  }
  const size_t before = ReadWholeFile(path).size();
  ASSERT_TRUE(RotateManifestFile(path).ok());
  const std::string after = ReadWholeFile(path);
  EXPECT_LT(after.size(), before);
  const auto scan = ScanManifest(after);
  ASSERT_TRUE(scan.ok());
  ASSERT_EQ(scan->jobs.size(), 1u);
  EXPECT_EQ(scan->jobs.at(1).state, FleetJobState::kDone);
  EXPECT_EQ(scan->jobs.at(1).restarts, 50);
  EXPECT_EQ(scan->jobs.at(1).detail, "end");
  // A fresh FleetManifest can keep appending to the rotated file.
  FileJournalStorage storage(path);
  auto reopened = FleetManifest::Open(&storage);
  ASSERT_TRUE(reopened.ok());
  ASSERT_TRUE(reopened
                  ->AppendState(1, FleetJobState::kParked, 50, 7, "again")
                  .ok());
  const auto rescan = ScanManifest(ReadWholeFile(path));
  ASSERT_TRUE(rescan.ok());
  EXPECT_EQ(rescan->jobs.at(1).state, FleetJobState::kParked);
}

TEST(AtomicReplaceFileTest, ManifestAndJournalMagicsNeverConfuse) {
  InMemoryJournalStorage storage;
  auto manifest = FleetManifest::Open(&storage);
  ASSERT_TRUE(manifest.ok());
  ASSERT_TRUE(manifest->AppendJob(1, SampleSpec()).ok());
  // A fleet manifest is not a journal and vice versa.
  EXPECT_FALSE(ScanJournal(storage.bytes()).ok());
  InMemoryJournalStorage journal;
  JournalWriter writer(&journal, 0);
  ASSERT_TRUE(writer.Append(JournalRecordType::kRunStart, "x").ok());
  EXPECT_FALSE(ScanManifest(journal.bytes()).ok());
}

// ---------------------------------------------------------------------------
// The manifest is framed, written and scanned by the journal layer. These
// tests pin what that layering must preserve: the exact bytes written
// through the retry-and-repair path, and where the fold of CRC-valid
// records ends the trusted prefix.

// Builds a manifest through a fixed AppendJob/AppendState sequence while a
// FaultInjector tears and fails appends and flushes; the retry layer must
// repair every fault, so the bytes are a pure function of the sequence.
TEST(FleetManifestTest, BytesWrittenUnderShortWriteRetryArePinned) {
  InMemoryJournalStorage inner;
  FaultInjectorConfig config;
  config.seed = 2117;
  config.append_fault_prob = 0.1;
  config.short_write_prob = 0.3;
  config.flush_fault_prob = 0.2;
  config.max_consecutive_faults = 2;
  FaultInjector injector(config);
  auto storage = injector.WrapStorage(&inner);
  auto manifest = FleetManifest::Open(storage.get());
  ASSERT_TRUE(manifest.ok());
  RetryPolicy policy;
  policy.max_attempts = 4;  // above the consecutive-fault cap
  manifest->EnableRetry(policy, 4242);

  FleetJobSpec spec = SampleSpec();
  for (uint64_t id = 1; id <= 6; ++id) {
    spec.name = "job-" + std::to_string(id);
    spec.priority = static_cast<int>(id % 3);
    ASSERT_TRUE(manifest->AppendJob(id, spec).ok());
    ASSERT_TRUE(manifest
                    ->AppendState(id, FleetJobState::kRunning, 0, 64 * id, "")
                    .ok());
  }
  for (uint64_t id = 1; id <= 6; ++id) {
    const FleetJobState state =
        id % 3 == 0 ? FleetJobState::kQuarantined : FleetJobState::kDone;
    ASSERT_TRUE(manifest
                    ->AppendState(id, state, static_cast<int32_t>(id % 2),
                                  128 * id, "final-" + std::to_string(id))
                    .ok());
    ASSERT_TRUE(manifest->Flush().ok());
  }

  EXPECT_GT(injector.stats().short_writes, 0u)
      << "schedule injected no short writes; change the seed";
  EXPECT_GT(injector.stats().flush_faults, 0u);
  EXPECT_EQ(manifest->valid_bytes(), inner.bytes().size());
  EXPECT_EQ(inner.bytes().size(), 1154u);
  EXPECT_EQ(Crc32c(inner.bytes()), 0x7d9d2a8au);
  EXPECT_EQ(Crc32c(manifest->EncodeCompacted()), 0xb0722b96u);
}

// Appends `frame` (one already-framed record) after a manifest holding job 1
// and one state edge; returns the byte offset where `frame` starts.
uint64_t ManifestWithTrailingFrame(InMemoryJournalStorage* storage,
                                   const std::string& frame) {
  auto manifest = FleetManifest::Open(storage);
  EXPECT_TRUE(manifest.ok());
  EXPECT_TRUE(manifest->AppendJob(1, SampleSpec()).ok());
  EXPECT_TRUE(
      manifest->AppendState(1, FleetJobState::kRunning, 0, 16, "").ok());
  const uint64_t start = storage->bytes().size();
  storage->bytes() += frame;
  // A well-formed record after the bad one must not be trusted either.
  storage->bytes() += EncodeJournalRecord(
      static_cast<JournalRecordType>(ManifestRecordType::kState),
      EncodeManifestStatePayload(1, FleetJobState::kDone, 0, 32, "late"));
  return start;
}

TEST(FleetManifestTest, UndecodableJobRecordEndsPrefixAtItsStart) {
  InMemoryJournalStorage storage;
  // CRC-valid frame, kJob type, payload too short to decode.
  const uint64_t start = ManifestWithTrailingFrame(
      &storage, EncodeJournalRecord(
                    static_cast<JournalRecordType>(ManifestRecordType::kJob),
                    "not-a-job"));
  const auto scan = ScanManifest(storage.bytes());
  ASSERT_TRUE(scan.ok());
  EXPECT_TRUE(scan->truncated_tail);
  EXPECT_EQ(scan->valid_bytes, start);
  ASSERT_EQ(scan->jobs.size(), 1u);
  EXPECT_EQ(scan->jobs.at(1).state, FleetJobState::kRunning);

  auto reopened = FleetManifest::Open(&storage);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(storage.bytes().size(), start);
  EXPECT_EQ(reopened->valid_bytes(), start);
  EXPECT_EQ(reopened->jobs().at(1).state, FleetJobState::kRunning);
}

TEST(FleetManifestTest, UnknownRecordTypeEndsPrefix) {
  InMemoryJournalStorage storage;
  const uint64_t start = ManifestWithTrailingFrame(
      &storage,
      EncodeJournalRecord(static_cast<JournalRecordType>(3), "future"));
  const auto scan = ScanManifest(storage.bytes());
  ASSERT_TRUE(scan.ok());
  EXPECT_TRUE(scan->truncated_tail);
  EXPECT_EQ(scan->valid_bytes, start);
  EXPECT_EQ(scan->jobs.at(1).state, FleetJobState::kRunning);
  EXPECT_TRUE(scan->unknown_state_ids.empty());
}

}  // namespace
}  // namespace htune
