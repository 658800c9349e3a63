#ifndef HTUNE_DURABILITY_MANIFEST_H_
#define HTUNE_DURABILITY_MANIFEST_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/statusor.h"
#include "durability/journal.h"
#include "resilience/policy.h"

namespace htune {

/// Fleet manifest: the durable record of every job a FleetSupervisor owns.
///
/// The manifest is a journal (durability/journal.h) under its own format,
/// kManifestFormat: the same frame layout (u32 LE length | u8 type |
/// payload | u32 LE CRC-32C over length+type+payload), read by ScanJournal
/// and written by JournalWriter, with its own magic/version so the two file
/// kinds can never be confused and its own record-type namespace:
///
///   header:  "HTFM" magic (4 bytes) + u32 LE format version
///   kJob:    one record per submitted job, written exactly once, before
///            the job's journal is created — losing the tail of the
///            manifest therefore implies the lost jobs have no journal,
///            and an orphan journal (present on disk, absent from the
///            manifest) is proof of a truncated manifest tail.
///   kState:  lifecycle transitions, append-only; the newest record for a
///            job id wins. Each carries the restart count and the job's
///            durable journal high-water mark, which is how recovery
///            detects a journal that regressed (bit flip, truncation below
///            what was known durable) and quarantines instead of silently
///            replaying a self-healed prefix.
///
/// Reading is the journal scan plus a fold: the valid prefix wins, the tail
/// is truncated, and a CRC-valid record whose payload does not decode ends
/// the valid prefix at its start. State records naming an unknown job id
/// are reported (not fatal): they can only arise from a manifest that lost
/// its kJob record to corruption ahead of the tail.
inline constexpr std::string_view kManifestMagic = "HTFM";
inline constexpr uint32_t kManifestVersion = 1;

/// Manifest record types. On-disk values; append only, never renumber.
enum class ManifestRecordType : uint8_t {
  /// Job admitted: full spec, written once at Submit.
  kJob = 1,
  /// Lifecycle transition: {job id, state, restarts, journal mark, detail}.
  kState = 2,
};

/// The manifest's journal format: ScanJournal and JournalWriter read and
/// write manifests under it, and reject a work journal's magic.
inline constexpr JournalFormat kManifestFormat{
    "manifest", kManifestMagic, kManifestVersion,
    static_cast<uint8_t>(ManifestRecordType::kState)};

/// Lifecycle states a fleet job moves through. On-disk values; append only.
enum class FleetJobState : uint8_t {
  /// Admitted, waiting for a worker lane.
  kPending = 0,
  /// A worker lane is (or was, if the process died) executing the job.
  kRunning = 1,
  /// Stopped without a result but resumable: watchdog-declared hang,
  /// restart budget exhausted, fleet breaker open, or a checkpoint-park
  /// from the controller itself.
  kParked = 2,
  /// Poisoned: divergent replay, failed CRC validation, or a journal that
  /// regressed below its durable mark. Never restarted automatically.
  kQuarantined = 3,
  /// Completed with a bitwise-verified report.
  kDone = 4,
  /// Shed by admission control before ever running.
  kShed = 5,
};

std::string_view FleetJobStateToString(FleetJobState state);

/// Which durable controller drives a job.
enum class FleetController : uint8_t {
  kFaultTolerant = 0,
  kAdaptiveRetuner = 1,
};

/// Everything needed to (re)build a job's configs from the manifest alone:
/// recovery must not depend on any in-memory state from the run that died.
struct FleetJobSpec {
  /// Human-readable job name (unique-ness not required; ids are identity).
  std::string name;
  /// Higher runs first; ties broken by job id (submission order).
  int priority = 0;
  /// Verbatim job-spec text (src/spec parser input), embedded so a fleet
  /// directory is self-contained and recovery cannot read a newer edited
  /// spec file than the one the journal was written under.
  std::string spec_text;
  /// Budget ceiling override; <0 keeps the spec's own budget.
  int64_t ceiling = -1;
  /// Seed override; <0 keeps the spec's seed.
  int64_t seed_override = -1;
  /// Snapshot cadence for the job's DurabilityConfig.
  int32_t snapshot_interval = 8;
  FleetController controller = FleetController::kFaultTolerant;
};

/// Current view of one job after folding all manifest records.
struct ManifestJobEntry {
  uint64_t job_id = 0;
  FleetJobSpec spec;
  FleetJobState state = FleetJobState::kPending;
  /// Completed restart attempts (0 on the first run).
  int32_t restarts = 0;
  /// Durable journal high-water mark in bytes at the last transition.
  uint64_t journal_bytes = 0;
  /// Free-form diagnostic from the last transition (quarantine reason,
  /// park reason, completion digest).
  std::string detail;
};

std::string EncodeManifestJobPayload(uint64_t job_id, const FleetJobSpec& spec);
std::string EncodeManifestStatePayload(uint64_t job_id, FleetJobState state,
                                       int32_t restarts, uint64_t journal_bytes,
                                       std::string_view detail);
Status DecodeManifestJobPayload(std::string_view payload, uint64_t* job_id,
                                FleetJobSpec* spec);
Status DecodeManifestStatePayload(std::string_view payload, uint64_t* job_id,
                                  FleetJobState* state, int32_t* restarts,
                                  uint64_t* journal_bytes, std::string* detail);

/// Result of scanning manifest bytes.
struct ManifestContents {
  uint32_t version = kManifestVersion;
  /// Folded per-job view, keyed by job id (ordered: iteration order is the
  /// recovery order, which must be deterministic).
  std::map<uint64_t, ManifestJobEntry> jobs;
  /// State records whose job id had no preceding kJob record; evidence of
  /// corruption ahead of the valid tail. Recorded, never fatal.
  std::vector<uint64_t> unknown_state_ids;
  uint64_t valid_bytes = 0;
  bool truncated_tail = false;
};

/// Scans raw manifest bytes: ScanJournal over kManifestFormat, then the
/// fold (last kState wins). Same torn-tail contract as ScanJournal: a
/// corrupt, torn, or undecodable record ends the valid prefix; only a wrong
/// magic or unsupported version is an error.
StatusOr<ManifestContents> ScanManifest(std::string_view bytes);

/// Append-side handle over a manifest storage. All writes go through a
/// JournalWriter over kManifestFormat, so header, retry-and-repair on
/// transient failures, and flush are the work journals' own.
class FleetManifest {
 public:
  /// Loads and scans `storage`, truncating any torn tail so appends resume
  /// at a record boundary. `storage` is borrowed and must outlive the
  /// manifest.
  static StatusOr<FleetManifest> Open(JournalStorage* storage);

  /// Turns on retry-on-transient for appends. Call before the first write.
  void EnableRetry(const RetryPolicy& policy, uint64_t jitter_seed);

  /// Durably records a new job. Flushes before returning so a journal is
  /// never created for a job the manifest does not know.
  Status AppendJob(uint64_t job_id, const FleetJobSpec& spec);
  /// Durably records a lifecycle transition.
  Status AppendState(uint64_t job_id, FleetJobState state, int32_t restarts,
                     uint64_t journal_bytes, std::string_view detail);
  Status Flush();

  const std::map<uint64_t, ManifestJobEntry>& jobs() const { return jobs_; }
  const std::vector<uint64_t>& unknown_state_ids() const {
    return unknown_state_ids_;
  }
  /// Smallest id strictly greater than every recorded job's.
  uint64_t next_job_id() const { return next_job_id_; }
  /// Bytes known to be durably framed (header + whole records).
  uint64_t valid_bytes() const { return writer_.valid_bytes(); }

  /// Re-encodes the folded state as a fresh manifest byte stream: one kJob
  /// plus one kState record per job, in id order. Rotation writes this via
  /// AtomicReplaceFile to bound manifest growth.
  std::string EncodeCompacted() const;

 private:
  explicit FleetManifest(JournalWriter writer) : writer_(std::move(writer)) {}

  JournalWriter writer_;
  std::map<uint64_t, ManifestJobEntry> jobs_;
  std::vector<uint64_t> unknown_state_ids_;
  uint64_t next_job_id_ = 1;
};

/// Canonical file layout of a fleet directory: the manifest at its root and
/// one journal per job under jobs/.
std::string FleetManifestFileName();
std::string FleetJobJournalPath(uint64_t job_id);

/// Compacts a file-backed manifest in place: scan, re-encode folded state,
/// and replace the file via the write-temp -> fsync -> rename -> fsync-dir
/// sequence (AtomicReplaceFile). A crash at any step leaves either the old
/// or the new manifest fully intact.
Status RotateManifestFile(const std::string& path);

}  // namespace htune

#endif  // HTUNE_DURABILITY_MANIFEST_H_
