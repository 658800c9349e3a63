#ifndef HTUNE_DURABILITY_RECOVERY_H_
#define HTUNE_DURABILITY_RECOVERY_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/statusor.h"
#include "durability/journal.h"
#include "durability/ledger.h"
#include "market/events.h"

namespace htune {

/// Turns a controller run durable. `storage` is borrowed and must outlive
/// the run. When null, durability is off and the controller behaves exactly
/// as before (no journal, no snapshots).
struct DurabilityConfig {
  JournalStorage* storage = nullptr;
  /// Snapshot every N completed reviews (0 disables snapshots; recovery
  /// then always replays from the start). Snapshots bound replay time;
  /// between them the journal alone carries the run forward.
  int snapshot_interval = 8;
  /// Retry-on-transient for journal appends/flushes (see JournalWriter::
  /// EnableRetry): kUnavailable storage blips are retried with jittered
  /// exponential backoff and torn-tail repair. The default policy is inert
  /// for permanent errors, so crash injection and real I/O failures still
  /// kill the run. max_attempts = 1 disables retry outright.
  RetryPolicy journal_retry;
  /// Seeds the deterministic backoff jitter stream.
  uint64_t retry_seed = 0x6a6f75726e616cULL;  // "journal"
};

/// Recovery and journaling context for one durable controller run.
///
/// The recovery model is replay-by-re-execution: the controller and market
/// are deterministic given their state, so recovery restores the last
/// snapshot (or the initial state when there is none) and simply re-runs.
/// The journal tail past the snapshot is not applied — it is *verified*:
/// while `replaying()` is true, `Emit` compares each re-emitted record
/// bitwise against the journaled one and fails with Internal on any
/// divergence, which turns "recovery produced a different run" from a
/// silent wrong answer into a hard error. Once the tail is exhausted the
/// context switches to append mode and new records extend the journal.
///
/// A torn or corrupted tail was already truncated by `Open` (CRC framing,
/// see journal.h), so the tail verified here is exactly the prefix of
/// history that provably survived the crash.
class DurableContext {
 public:
  /// Opens (or creates) the journal in `config.storage`, truncating any torn
  /// tail, recovering the last intact snapshot, and queueing the records
  /// after it for replay verification. `config.storage` must be non-null.
  static StatusOr<DurableContext> Open(const DurabilityConfig& config);

  /// True when a snapshot was recovered; the accessors below then hold its
  /// two blobs (EncodeMarketState bytes and the controller's own state).
  bool has_snapshot() const { return has_snapshot_; }
  const std::string& market_snapshot() const { return market_snapshot_; }
  const std::string& executor_snapshot() const { return executor_snapshot_; }

  /// True while journaled records remain to be verified against.
  bool replaying() const { return replay_cursor_ < tail_.size(); }

  /// Journals one controller decision or market event. In replay mode this
  /// verifies instead of writing (see class comment); in append mode it
  /// appends the framed record to storage. Propagates storage failures —
  /// for CrashInjectingStorage that status is the simulated kill, and the
  /// controller must abort the run with it.
  Status Emit(JournalRecordType type, std::string_view payload);

  /// Journals and ledgers a kPayment for each completed-but-unpaid slot of
  /// `task` up to `completed`, in slot order (the ledger knows the next
  /// unpaid one): every durable controller's exactly-once settlement.
  Status SettlePayments(BudgetLedger& ledger, TaskId task,
                        const TaskOutcome& progress, int completed);

  /// Journals a checkpoint: the pair of state blobs framed as one kSnapshot
  /// record. Later `Open`s recover from the newest intact one.
  Status EmitSnapshot(std::string_view market_state,
                      std::string_view executor_state);

  /// Whether the controller should snapshot after completing review number
  /// `review` (1-based count of completed reviews).
  bool ShouldSnapshot(int review) const {
    return snapshot_interval_ > 0 && review > 0 &&
           review % snapshot_interval_ == 0;
  }

  Status Flush() { return writer_.Flush(); }

  /// Decodes a kSnapshot payload into its two blobs.
  static Status DecodeSnapshotPayload(std::string_view payload,
                                      std::string* market_state,
                                      std::string* executor_state);

 private:
  DurableContext(JournalStorage* storage, uint64_t valid_bytes,
                 int snapshot_interval)
      : writer_(storage, valid_bytes), snapshot_interval_(snapshot_interval) {}

  JournalWriter writer_;
  int snapshot_interval_;
  bool has_snapshot_ = false;
  std::string market_snapshot_;
  std::string executor_snapshot_;
  /// Records after the recovered snapshot (the whole journal when no
  /// snapshot), pending bitwise verification.
  std::vector<JournalRecord> tail_;
  size_t replay_cursor_ = 0;
};

}  // namespace htune

#endif  // HTUNE_DURABILITY_RECOVERY_H_
