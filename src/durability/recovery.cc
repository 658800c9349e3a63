#include "durability/recovery.h"

#include <string>
#include <utility>

#include "common/status.h"
#include "durability/records.h"
#include "durability/serialize.h"
#include "obs/obs.h"

namespace htune {

StatusOr<DurableContext> DurableContext::Open(const DurabilityConfig& config) {
  if (config.storage == nullptr) {
    return InvalidArgumentError("DurableContext: storage must be non-null");
  }
  if (config.snapshot_interval < 0) {
    return InvalidArgumentError(
        "DurableContext: snapshot_interval must be >= 0");
  }
  HTUNE_RETURN_IF_ERROR(ValidateRetryPolicy(config.journal_retry));
  HTUNE_OBS_SPAN("journal.recovery_open");
  HTUNE_ASSIGN_OR_RETURN(JournalContents contents,
                         OpenJournal(*config.storage));
  DurableContext context(config.storage, contents.valid_bytes,
                         config.snapshot_interval);
  if (config.journal_retry.max_attempts > 1) {
    context.writer_.EnableRetry(config.journal_retry, config.retry_seed);
  }
  // Newest intact snapshot wins; everything after it is the verify tail.
  size_t tail_begin = 0;
  for (size_t i = contents.records.size(); i > 0; --i) {
    if (contents.records[i - 1].type == JournalRecordType::kSnapshot) {
      HTUNE_RETURN_IF_ERROR(DecodeSnapshotPayload(
          contents.records[i - 1].payload, &context.market_snapshot_,
          &context.executor_snapshot_));
      context.has_snapshot_ = true;
      tail_begin = i;
      break;
    }
  }
  context.tail_.assign(
      std::make_move_iterator(contents.records.begin() + tail_begin),
      std::make_move_iterator(contents.records.end()));
  HTUNE_OBS_COUNTER_ADD("journal.recovered_tail_records",
                        context.tail_.size());
  HTUNE_OBS_COUNTER_ADD("journal.recovered_snapshots",
                        context.has_snapshot_ ? 1 : 0);
  return context;
}

Status DurableContext::Emit(JournalRecordType type, std::string_view payload) {
  if (replaying()) {
    const JournalRecord& expected = tail_[replay_cursor_];
    if (expected.type != type || expected.payload != payload) {
      return InternalError(
          "journal divergence during replay at tail record " +
          std::to_string(replay_cursor_) + ": journaled " +
          std::string(JournalRecordTypeToString(expected.type)) + " (" +
          std::to_string(expected.payload.size()) +
          " bytes), re-execution produced " +
          std::string(JournalRecordTypeToString(type)) + " (" +
          std::to_string(payload.size()) +
          " bytes) -- recovery did not reproduce the original run");
    }
    ++replay_cursor_;
    HTUNE_OBS_COUNTER_ADD("journal.replayed_records", 1);
    return OkStatus();
  }
  return writer_.Append(type, payload);
}

Status DurableContext::SettlePayments(BudgetLedger& ledger, TaskId task,
                                      const TaskOutcome& progress,
                                      int completed) {
  for (int slot = ledger.PaymentsFor(task); slot < completed; ++slot) {
    const int price = progress.repetitions[static_cast<size_t>(slot)].price;
    HTUNE_RETURN_IF_ERROR(Emit(JournalRecordType::kPayment,
                               EncodeRecord(PaymentRecord{task, slot, price})));
    HTUNE_RETURN_IF_ERROR(ledger.RecordPayment(task, slot, price).status());
  }
  return OkStatus();
}

Status DurableContext::EmitSnapshot(std::string_view market_state,
                                    std::string_view executor_state) {
  HTUNE_OBS_SPAN("journal.snapshot");
  HTUNE_OBS_COUNTER_ADD("journal.snapshots_emitted", 1);
  Encoder encoder;
  encoder.PutString(market_state);
  encoder.PutString(executor_state);
  return Emit(JournalRecordType::kSnapshot, std::move(encoder).Release());
}

Status DurableContext::DecodeSnapshotPayload(std::string_view payload,
                                             std::string* market_state,
                                             std::string* executor_state) {
  Decoder decoder(payload);
  HTUNE_RETURN_IF_ERROR(decoder.GetString(market_state));
  HTUNE_RETURN_IF_ERROR(decoder.GetString(executor_state));
  return decoder.ExpectDone();
}

}  // namespace htune
