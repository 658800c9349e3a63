#include "durability/manifest.h"

#include <algorithm>
#include <utility>

#include "durability/serialize.h"

namespace htune {

namespace {

// The journal layer carries a manifest record's type byte unread; only
// kManifestFormat's bound on it differs from a work journal's.
JournalRecordType FrameType(ManifestRecordType type) {
  return static_cast<JournalRecordType>(type);
}

// Folds one CRC-valid record into `contents`. Fails only when the payload
// does not decode.
Status FoldManifestRecord(const JournalRecord& record,
                          ManifestContents* contents) {
  if (static_cast<ManifestRecordType>(record.type) ==
      ManifestRecordType::kJob) {
    uint64_t job_id = 0;
    FleetJobSpec spec;
    HTUNE_RETURN_IF_ERROR(
        DecodeManifestJobPayload(record.payload, &job_id, &spec));
    ManifestJobEntry& entry = contents->jobs[job_id];
    entry.job_id = job_id;
    entry.spec = std::move(spec);
    return OkStatus();
  }
  // kState: ScanJournal admits no other type under kManifestFormat.
  uint64_t job_id = 0;
  FleetJobState state = FleetJobState::kPending;
  int32_t restarts = 0;
  uint64_t journal_bytes = 0;
  std::string detail;
  HTUNE_RETURN_IF_ERROR(DecodeManifestStatePayload(
      record.payload, &job_id, &state, &restarts, &journal_bytes, &detail));
  auto it = contents->jobs.find(job_id);
  if (it == contents->jobs.end()) {
    // A transition for a job the manifest never admitted: the kJob record
    // was lost to corruption ahead of this point. Recoverable evidence, not
    // a scan error — the caller decides what to do.
    contents->unknown_state_ids.push_back(job_id);
  } else {
    it->second.state = state;
    it->second.restarts = restarts;
    it->second.journal_bytes = journal_bytes;
    it->second.detail = std::move(detail);
  }
  return OkStatus();
}

}  // namespace

std::string_view FleetJobStateToString(FleetJobState state) {
  switch (state) {
    case FleetJobState::kPending:
      return "PENDING";
    case FleetJobState::kRunning:
      return "RUNNING";
    case FleetJobState::kParked:
      return "PARKED";
    case FleetJobState::kQuarantined:
      return "QUARANTINED";
    case FleetJobState::kDone:
      return "DONE";
    case FleetJobState::kShed:
      return "SHED";
  }
  return "UNKNOWN";
}

std::string EncodeManifestJobPayload(uint64_t job_id,
                                     const FleetJobSpec& spec) {
  Encoder e;
  e.PutU64(job_id);
  e.PutString(spec.name);
  e.PutI32(spec.priority);
  e.PutString(spec.spec_text);
  e.PutI64(spec.ceiling);
  e.PutI64(spec.seed_override);
  e.PutI32(spec.snapshot_interval);
  e.PutU8(static_cast<uint8_t>(spec.controller));
  return e.Release();
}

std::string EncodeManifestStatePayload(uint64_t job_id, FleetJobState state,
                                       int32_t restarts,
                                       uint64_t journal_bytes,
                                       std::string_view detail) {
  Encoder e;
  e.PutU64(job_id);
  e.PutU8(static_cast<uint8_t>(state));
  e.PutI32(restarts);
  e.PutU64(journal_bytes);
  e.PutString(detail);
  return e.Release();
}

Status DecodeManifestJobPayload(std::string_view payload, uint64_t* job_id,
                                FleetJobSpec* spec) {
  Decoder d(payload);
  HTUNE_RETURN_IF_ERROR(d.GetU64(job_id));
  HTUNE_RETURN_IF_ERROR(d.GetString(&spec->name));
  HTUNE_RETURN_IF_ERROR(d.GetI32(&spec->priority));
  HTUNE_RETURN_IF_ERROR(d.GetString(&spec->spec_text));
  HTUNE_RETURN_IF_ERROR(d.GetI64(&spec->ceiling));
  HTUNE_RETURN_IF_ERROR(d.GetI64(&spec->seed_override));
  HTUNE_RETURN_IF_ERROR(d.GetI32(&spec->snapshot_interval));
  uint8_t controller = 0;
  HTUNE_RETURN_IF_ERROR(d.GetU8(&controller));
  if (controller > static_cast<uint8_t>(FleetController::kAdaptiveRetuner)) {
    return InvalidArgumentError("manifest: unknown controller kind " +
                                std::to_string(controller));
  }
  spec->controller = static_cast<FleetController>(controller);
  return d.ExpectDone();
}

Status DecodeManifestStatePayload(std::string_view payload, uint64_t* job_id,
                                  FleetJobState* state, int32_t* restarts,
                                  uint64_t* journal_bytes,
                                  std::string* detail) {
  Decoder d(payload);
  HTUNE_RETURN_IF_ERROR(d.GetU64(job_id));
  uint8_t raw_state = 0;
  HTUNE_RETURN_IF_ERROR(d.GetU8(&raw_state));
  if (raw_state > static_cast<uint8_t>(FleetJobState::kShed)) {
    return InvalidArgumentError("manifest: unknown lifecycle state " +
                                std::to_string(raw_state));
  }
  *state = static_cast<FleetJobState>(raw_state);
  HTUNE_RETURN_IF_ERROR(d.GetI32(restarts));
  HTUNE_RETURN_IF_ERROR(d.GetU64(journal_bytes));
  HTUNE_RETURN_IF_ERROR(d.GetString(detail));
  return d.ExpectDone();
}

StatusOr<ManifestContents> ScanManifest(std::string_view bytes) {
  HTUNE_ASSIGN_OR_RETURN(JournalContents journal,
                         ScanJournal(bytes, kManifestFormat));
  ManifestContents contents;
  contents.version = journal.version;
  for (size_t i = 0; i < journal.records.size(); ++i) {
    if (!FoldManifestRecord(journal.records[i], &contents).ok()) {
      // CRC-valid but undecodable: treat as end of trust.
      EndJournalPrefixAt(&journal, i);
      break;
    }
  }
  contents.valid_bytes = journal.valid_bytes;
  contents.truncated_tail = journal.truncated_tail;
  return contents;
}

StatusOr<FleetManifest> FleetManifest::Open(JournalStorage* storage) {
  HTUNE_ASSIGN_OR_RETURN(const std::string bytes, storage->Load());
  HTUNE_ASSIGN_OR_RETURN(ManifestContents contents, ScanManifest(bytes));
  if (contents.truncated_tail) {
    HTUNE_RETURN_IF_ERROR(storage->Truncate(contents.valid_bytes));
  }
  FleetManifest manifest(
      JournalWriter(storage, contents.valid_bytes, kManifestFormat));
  manifest.jobs_ = std::move(contents.jobs);
  manifest.unknown_state_ids_ = std::move(contents.unknown_state_ids);
  if (!manifest.jobs_.empty()) {
    manifest.next_job_id_ = manifest.jobs_.rbegin()->first + 1;
  }
  return manifest;
}

void FleetManifest::EnableRetry(const RetryPolicy& policy,
                                uint64_t jitter_seed) {
  writer_.EnableRetry(policy, jitter_seed);
}

Status FleetManifest::AppendJob(uint64_t job_id, const FleetJobSpec& spec) {
  HTUNE_RETURN_IF_ERROR(
      writer_.Append(FrameType(ManifestRecordType::kJob),
                     EncodeManifestJobPayload(job_id, spec)));
  // Flush before the caller creates the job's journal: the invariant "a
  // journal exists only for jobs the manifest knows" is what lets recovery
  // classify an orphan journal as a truncated-manifest symptom.
  HTUNE_RETURN_IF_ERROR(Flush());
  ManifestJobEntry& entry = jobs_[job_id];
  entry.job_id = job_id;
  entry.spec = spec;
  next_job_id_ = std::max(next_job_id_, job_id + 1);
  return OkStatus();
}

Status FleetManifest::AppendState(uint64_t job_id, FleetJobState state,
                                  int32_t restarts, uint64_t journal_bytes,
                                  std::string_view detail) {
  HTUNE_RETURN_IF_ERROR(writer_.Append(
      FrameType(ManifestRecordType::kState),
      EncodeManifestStatePayload(job_id, state, restarts, journal_bytes,
                                 detail)));
  auto it = jobs_.find(job_id);
  if (it != jobs_.end()) {
    it->second.state = state;
    it->second.restarts = restarts;
    it->second.journal_bytes = journal_bytes;
    it->second.detail = std::string(detail);
  }
  return OkStatus();
}

Status FleetManifest::Flush() { return writer_.Flush(); }

std::string FleetManifest::EncodeCompacted() const {
  std::string bytes = EncodeJournalHeader(kManifestFormat);
  for (const auto& [job_id, entry] : jobs_) {
    bytes += EncodeJournalRecord(FrameType(ManifestRecordType::kJob),
                                 EncodeManifestJobPayload(job_id, entry.spec));
    bytes += EncodeJournalRecord(
        FrameType(ManifestRecordType::kState),
        EncodeManifestStatePayload(job_id, entry.state, entry.restarts,
                                   entry.journal_bytes, entry.detail));
  }
  return bytes;
}

std::string FleetManifestFileName() { return "MANIFEST"; }

std::string FleetJobJournalPath(uint64_t job_id) {
  return "jobs/" + std::to_string(job_id) + ".journal";
}

Status RotateManifestFile(const std::string& path) {
  FileJournalStorage storage(path);
  HTUNE_ASSIGN_OR_RETURN(FleetManifest manifest, FleetManifest::Open(&storage));
  return AtomicReplaceFile(path, manifest.EncodeCompacted());
}

}  // namespace htune
