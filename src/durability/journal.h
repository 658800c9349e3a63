#ifndef HTUNE_DURABILITY_JOURNAL_H_
#define HTUNE_DURABILITY_JOURNAL_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/check.h"
#include "common/statusor.h"
#include "durability/crc32c.h"
#include "durability/records.h"
#include "durability/serialize.h"
#include "resilience/policy.h"

namespace htune {

/// Byte-oriented backing store for a write-ahead journal. Implementations
/// are append-mostly: `Truncate` exists only so recovery can physically drop
/// a torn tail before appending resumes. The controller owns exactly one
/// storage per job; pluggability is what lets tests run the full crash
/// matrix in memory while the CLI and bench persist to disk.
class JournalStorage {
 public:
  virtual ~JournalStorage() = default;

  /// Reads the journal's current full contents.
  virtual StatusOr<std::string> Load() = 0;
  /// Appends `bytes` at the end. A failed append may have persisted any
  /// prefix of `bytes` (the torn-write model); recovery handles it.
  virtual Status Append(std::string_view bytes) = 0;
  /// Discards everything past the first `size` bytes.
  virtual Status Truncate(uint64_t size) = 0;
  /// Forces appended bytes to stable storage (no-op for memory).
  virtual Status Flush() = 0;
};

/// In-memory storage for tests and ephemeral runs.
class InMemoryJournalStorage : public JournalStorage {
 public:
  InMemoryJournalStorage() = default;
  explicit InMemoryJournalStorage(std::string initial)
      : bytes_(std::move(initial)) {}

  StatusOr<std::string> Load() override { return bytes_; }
  Status Append(std::string_view bytes) override;
  Status Truncate(uint64_t size) override;
  Status Flush() override { return OkStatus(); }

  /// Direct access for corruption tests.
  std::string& bytes() { return bytes_; }

 private:
  std::string bytes_;
};

/// File-backed storage for the CLI and benches. The file is opened per
/// operation; journals are small and controller decisions are rare relative
/// to simulated market events, so simplicity wins over a cached descriptor.
///
/// Append uses raw POSIX writes in a loop: EINTR restarts the write, a
/// partial write continues from the persisted prefix, and any other errno
/// fails with an explicit Status naming how many of the requested bytes
/// reached the file — a short write is never reported as success. Flush
/// fsyncs the file, and the first Flush after the file comes into existence
/// also fsyncs the parent directory: fsyncing only the file makes its
/// *contents* durable, but until the directory entry is synced a power cut
/// can forget the file ever existed (the durability-audit hole this class
/// originally had).
class FileJournalStorage : public JournalStorage {
 public:
  explicit FileJournalStorage(std::string path) : path_(std::move(path)) {}

  StatusOr<std::string> Load() override;
  Status Append(std::string_view bytes) override;
  Status Truncate(uint64_t size) override;
  Status Flush() override;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
  bool dir_synced_ = false;
};

/// Deterministic crash injection: behaves as the wrapped storage until
/// `fail_after_bytes` total bytes have been appended, then persists exactly
/// the prefix of the crossing append that fits and fails every append from
/// then on — modeling a process killed mid-write with a torn final record.
/// Load/Truncate keep working so the subsequent recovery run can reuse the
/// same underlying storage.
class CrashInjectingStorage : public JournalStorage {
 public:
  /// `inner` is borrowed and must outlive this wrapper.
  CrashInjectingStorage(JournalStorage* inner, uint64_t fail_after_bytes)
      : inner_(inner), budget_(fail_after_bytes) {}

  StatusOr<std::string> Load() override { return inner_->Load(); }
  Status Append(std::string_view bytes) override;
  Status Truncate(uint64_t size) override { return inner_->Truncate(size); }
  Status Flush() override {
    return crashed_ ? CrashStatus() : inner_->Flush();
  }

  bool crashed() const { return crashed_; }

  /// The status every post-crash operation returns; controllers propagate
  /// it out of the run, which is the simulated kill.
  static Status CrashStatus();

 private:
  JournalStorage* inner_;
  uint64_t budget_;
  bool crashed_ = false;
};

/// Test seam for AtomicReplaceFile: called after each durability step with
/// the step's name — "temp_written" (temp file written and fsynced),
/// "renamed" (temp renamed over the target), "dir_synced" (parent
/// directory fsynced). Returning non-OK aborts the sequence at that point,
/// modeling a process killed between steps; the on-disk state is whatever
/// the completed steps left behind.
using ReplaceFileHook = std::function<Status(std::string_view step)>;

/// Atomically replaces `path` with `bytes` using the full durability
/// sequence: write `path`.tmp -> fsync temp -> rename over `path` -> fsync
/// the parent directory. A crash at any step leaves either the old file or
/// the new file fully intact — never a mix, and never a file whose
/// directory entry could vanish on power loss (the parent-directory fsync
/// is what makes the rename itself durable; see the crash regression in
/// tests/manifest_test.cc that kills between rename and directory fsync).
Status AtomicReplaceFile(const std::string& path, std::string_view bytes,
                         const ReplaceFileHook& hook = nullptr);

/// Journal file layout, shared by every durable log in htune:
///   header:  magic (4 bytes) + u32 LE format version
///   record:  u32 LE payload length | u8 type | payload | u32 LE CRC-32C
/// The CRC covers the length, type, and payload bytes, so a corrupted
/// length field cannot redirect the frame walk to a byte range that
/// happens to checksum correctly against a different payload. The work
/// journals use the "HTWJ" magic and JournalRecordType; the fleet manifest
/// (durability/manifest.h) is the same log under "HTFM" and its own
/// record-type namespace.
inline constexpr std::string_view kJournalMagic = "HTWJ";
inline constexpr uint32_t kJournalVersion = 1;

/// Controller-level record types. Values are part of the on-disk format;
/// append only, never renumber. Payload layouts: durability/records.h.
enum class JournalRecordType : uint8_t {
  /// Job began: {budget, task count}.
  kRunStart = 1,
  /// One task posted: {task id, group, planned per-repetition prices}.
  kPost = 2,
  /// A task repriced (escalation, floor demotion, or retune):
  /// {task id, new price, remaining slots}.
  kReprice = 3,
  /// One repetition's answer was paid for: {task id, slot, price}. The
  /// exactly-once unit of the budget ledger.
  kPayment = 4,
  /// All repetitions of a task finished: {task id, completion time}.
  kCompletion = 5,
  /// A review round ended: {review index, simulated time, spent so far}.
  kReviewEnd = 6,
  /// Checkpoint: {market state blob, executor state blob}.
  kSnapshot = 7,
  /// Job finished: {total spent, job latency}.
  kRunEnd = 8,
};

std::string_view JournalRecordTypeToString(JournalRecordType type);

/// What distinguishes one log format from another: the header it opens
/// with and the record types it may hold (1..last_record_type). The frame
/// walk, the writer and the torn-tail contract are the same for all.
struct JournalFormat {
  /// Names the file kind in error messages ("journal", "manifest").
  std::string_view name;
  std::string_view magic;
  uint32_t version = 0;
  uint8_t last_record_type = 0;
};

/// The work journals: per-job controller journals and the service journal.
inline constexpr JournalFormat kJournalFormat{
    "journal", kJournalMagic, kJournalVersion,
    static_cast<uint8_t>(JournalRecordType::kRunEnd)};

/// One validated record read back from a journal.
struct JournalRecord {
  /// The frame's type byte. Logs of another format (the fleet manifest)
  /// cast it to their own record-type enum.
  JournalRecordType type = JournalRecordType::kRunStart;
  std::string payload;
  /// Byte offset one past this record's frame — i.e. the journal size if
  /// the run had been killed exactly at this record boundary. The crash
  /// harness enumerates these.
  uint64_t end_offset = 0;
};

/// Result of scanning a journal's bytes.
struct JournalContents {
  uint32_t version = kJournalVersion;
  std::vector<JournalRecord> records;
  /// Length of the valid prefix (header + intact records). Everything past
  /// it is a torn or corrupted tail that recovery truncates.
  uint64_t valid_bytes = 0;
  /// True when trailing bytes past `valid_bytes` were present and dropped.
  bool truncated_tail = false;
};

/// Encodes a log header: `format`'s magic + its u32 LE version.
std::string EncodeJournalHeader(const JournalFormat& format);

/// Encodes one framed record (length | type | payload | crc).
std::string EncodeJournalRecord(JournalRecordType type,
                                std::string_view payload);

/// EncodeJournalRecord(type, EncodeRecord(record)), with the payload
/// encoded straight into a frame sized exactly up front. A serve kRunEnd
/// embeds the job's whole trace, so its payload is never a string of its
/// own that the frame would copy again.
template <typename Record>
std::string EncodeRecordFrame(JournalRecordType type, const Record& record) {
  const size_t payload = EncodedRecordSize(record);
  Encoder frame;
  frame.Reserve(4 + 1 + payload + 4);
  frame.PutU32(static_cast<uint32_t>(payload));
  frame.PutU8(static_cast<uint8_t>(type));
  PutRecord(frame, record);
  HTUNE_CHECK_EQ(frame.bytes().size(), 4 + 1 + payload);
  frame.PutU32(Crc32c(frame.bytes()));
  return frame.Release();
}

/// Scans raw log bytes of `format` into validated records. An empty input
/// is a fresh log. A torn or bit-flipped record, or one whose type lies
/// outside the format's namespace, ends the valid prefix: that record and
/// everything after it are reported as truncated, never an error — this is
/// the WAL recovery contract. Only a present-but-wrong magic or an
/// unsupported version is an error (the bytes are not ours to truncate).
StatusOr<JournalContents> ScanJournal(
    std::string_view bytes, const JournalFormat& format = kJournalFormat);

/// Ends the valid prefix of `contents` at the start of record `index`,
/// dropping it and every later record — what the scanner itself does for a
/// bad frame. For readers that validate payloads above the frame layer: a
/// CRC-valid record they cannot decode is as untrustworthy as a torn one.
void EndJournalPrefixAt(JournalContents* contents, size_t index);

/// Loads, scans, and physically truncates the torn tail (if any) so the
/// storage ends at a record boundary and appends go to a clean end.
StatusOr<JournalContents> OpenJournal(JournalStorage& storage);

/// Appends records to a storage, writing the format's header first on a
/// fresh log. The one write path for every durable log: the work journals
/// and the fleet manifest alike.
///
/// With a retry policy enabled (EnableRetry), transient storage failures
/// (kUnavailable — flaky I/O, injected chaos) are retried with jittered
/// exponential backoff. Before each retry the writer repairs the journal:
/// it truncates the storage back to the last byte it knows is valid, so a
/// short write that persisted a torn prefix can never leave garbage in the
/// middle of the record stream. Permanent errors — including the crash
/// injector's kResourceExhausted kill — are never retried.
class JournalWriter {
 public:
  /// `storage` is borrowed. `existing_bytes` is the valid size already in
  /// the storage (0 for fresh; OpenJournal().valid_bytes after recovery).
  JournalWriter(JournalStorage* storage, uint64_t existing_bytes,
                const JournalFormat& format = kJournalFormat);

  /// Turns on retry-on-transient under `policy`, with deterministic jitter
  /// seeded by `jitter_seed`. Call before the first Append.
  void EnableRetry(const RetryPolicy& policy, uint64_t jitter_seed);

  Status Append(JournalRecordType type, std::string_view payload);
  /// Append(type, EncodeRecord(record)), framed by EncodeRecordFrame.
  template <typename Record>
  Status AppendRecord(JournalRecordType type, const Record& record) {
    return AppendFramed(EncodeRecordFrame(type, record));
  }
  Status Flush();

  /// Bytes known to be durably framed (header + whole records appended so
  /// far). The truncation point for torn-write repair.
  uint64_t valid_bytes() const { return valid_bytes_; }

 private:
  /// Appends one framed record, after the header on a fresh log.
  Status AppendFramed(std::string_view record);
  /// Appends `bytes` with retry-and-repair when a policy is enabled.
  Status AppendWithRetry(std::string_view bytes);

  JournalStorage* storage_;
  JournalFormat format_;
  bool header_written_;
  uint64_t valid_bytes_;
  bool retry_enabled_ = false;
  RetryPolicy retry_policy_;
  SplitMix64 jitter_{0};
};

}  // namespace htune

#endif  // HTUNE_DURABILITY_JOURNAL_H_
