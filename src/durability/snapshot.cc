#include "durability/snapshot.h"

#include <cstdint>
#include <utility>

#include "common/status.h"
#include "durability/records.h"

namespace htune {

namespace {

/// Header magic: the IEEE-754 bit pattern of a quiet NaN spelling "HTSV2"
/// in its payload, so no body (which opens with the finite clock `now`)
/// can pass for a header.
constexpr uint64_t kSnapshotMagic = 0xFFF7485453563200ULL;
constexpr uint32_t kSnapshotVersion = 2;

/// One encoded TraceEvent: time, kind, worker, task, repetition.
constexpr size_t kTraceEventBytes = 8 + 1 + 8 + 8 + 4;

void EncodeRepetition(const RepetitionOutcome& rep, Encoder& encoder) {
  encoder.PutDouble(rep.posted_time);
  encoder.PutDouble(rep.accepted_time);
  encoder.PutDouble(rep.completed_time);
  encoder.PutU64(rep.worker);
  encoder.PutI32(rep.price);
  encoder.PutI32(rep.answer);
  encoder.PutBool(rep.correct);
}

Status DecodeRepetition(Decoder& decoder, RepetitionOutcome& rep) {
  HTUNE_RETURN_IF_ERROR(decoder.GetDouble(&rep.posted_time));
  HTUNE_RETURN_IF_ERROR(decoder.GetDouble(&rep.accepted_time));
  HTUNE_RETURN_IF_ERROR(decoder.GetDouble(&rep.completed_time));
  HTUNE_RETURN_IF_ERROR(decoder.GetU64(&rep.worker));
  HTUNE_RETURN_IF_ERROR(decoder.GetI32(&rep.price));
  HTUNE_RETURN_IF_ERROR(decoder.GetI32(&rep.answer));
  return decoder.GetBool(&rep.correct);
}

void EncodeTask(const MarketState::Task& task, Encoder& encoder) {
  PutFields(encoder, task.id, task.price_per_repetition, task.repetitions,
            task.on_hold_rate, task.spec_prices, task.spec_rates,
            task.spec_curve, task.processing_rate, task.acceptance_timeout,
            task.true_answer, task.num_options, task.rep_prices,
            task.rep_rates, task.effective_curve);
  EncodeTaskOutcome(task.outcome, encoder);
  PutFields(encoder, task.next_repetition, task.awaiting_acceptance,
            task.current_posted_time, task.exposure_generation,
            task.reprice_price, task.reprice_rate);
}

Status DecodeTask(Decoder& decoder, MarketState::Task& task) {
  HTUNE_RETURN_IF_ERROR(GetFields(
      decoder, task.id, task.price_per_repetition, task.repetitions,
      task.on_hold_rate, task.spec_prices, task.spec_rates, task.spec_curve,
      task.processing_rate, task.acceptance_timeout, task.true_answer,
      task.num_options, task.rep_prices, task.rep_rates,
      task.effective_curve));
  HTUNE_RETURN_IF_ERROR(DecodeTaskOutcome(decoder, task.outcome));
  return GetFields(decoder, task.next_repetition, task.awaiting_acceptance,
                   task.current_posted_time, task.exposure_generation,
                   task.reprice_price, task.reprice_rate);
}

/// Reads `count` elements with `element`, guarding against hostile counts:
/// each element consumes at least `min_element_bytes`, so a count implying
/// more bytes than remain is rejected before any allocation.
template <typename T, typename Fn>
Status DecodeVector(Decoder& decoder, size_t min_element_bytes, Fn element,
                    std::vector<T>& out) {
  uint64_t count = 0;
  HTUNE_RETURN_IF_ERROR(decoder.GetU64(&count));
  if (count * min_element_bytes > decoder.remaining() ||
      (min_element_bytes > 0 && count > decoder.remaining())) {
    return InvalidArgumentError("decode: element count exceeds input size");
  }
  out.clear();
  out.reserve(static_cast<size_t>(count));
  for (uint64_t i = 0; i < count; ++i) {
    T value{};
    HTUNE_RETURN_IF_ERROR(element(decoder, value));
    out.push_back(std::move(value));
  }
  return OkStatus();
}

}  // namespace

void EncodeEvent(const MarketState::Event& event, Encoder& encoder) {
  PutFields(encoder, event.time, event.sequence, event.task, event.kind,
            event.generation);
}

Status DecodeEvent(Decoder& decoder, MarketState::Event& event) {
  return GetFields(decoder, event.time, event.sequence, event.task,
                   event.kind, event.generation);
}

void EncodeRngState(const Random::State& rng, Encoder& encoder) {
  for (uint64_t word : rng.engine) encoder.PutU64(word);
  encoder.PutBool(rng.has_cached_normal);
  encoder.PutDouble(rng.cached_normal);
}

Status DecodeRngState(Decoder& decoder, Random::State& rng) {
  for (uint64_t& word : rng.engine) {
    HTUNE_RETURN_IF_ERROR(decoder.GetU64(&word));
  }
  HTUNE_RETURN_IF_ERROR(decoder.GetBool(&rng.has_cached_normal));
  return decoder.GetDouble(&rng.cached_normal);
}

void EncodeTaskOutcome(const TaskOutcome& outcome, Encoder& encoder) {
  encoder.PutU64(outcome.id);
  encoder.PutDouble(outcome.posted_time);
  encoder.PutDouble(outcome.completed_time);
  encoder.PutU64(outcome.repetitions.size());
  for (const RepetitionOutcome& rep : outcome.repetitions) {
    EncodeRepetition(rep, encoder);
  }
  encoder.PutI32(outcome.abandoned_attempts);
  encoder.PutI32(outcome.expired_posts);
  encoder.PutI32(outcome.reposted_posts);
}

Status DecodeTaskOutcome(Decoder& decoder, TaskOutcome& outcome) {
  HTUNE_RETURN_IF_ERROR(decoder.GetU64(&outcome.id));
  HTUNE_RETURN_IF_ERROR(decoder.GetDouble(&outcome.posted_time));
  HTUNE_RETURN_IF_ERROR(decoder.GetDouble(&outcome.completed_time));
  HTUNE_RETURN_IF_ERROR(DecodeVector<RepetitionOutcome>(
      decoder, 41, DecodeRepetition, outcome.repetitions));
  HTUNE_RETURN_IF_ERROR(decoder.GetI32(&outcome.abandoned_attempts));
  HTUNE_RETURN_IF_ERROR(decoder.GetI32(&outcome.expired_posts));
  return decoder.GetI32(&outcome.reposted_posts);
}

void EncodeTraceEvents(const std::vector<TraceEvent>& events,
                       Encoder& encoder) {
  encoder.Reserve(8 + kTraceEventBytes * events.size());
  encoder.PutU64(events.size());
  for (const TraceEvent& event : events) {
    encoder.PutDouble(event.time);
    encoder.PutU8(static_cast<uint8_t>(event.kind));
    encoder.PutU64(event.worker);
    encoder.PutU64(event.task);
    encoder.PutI32(event.repetition);
  }
}

Status DecodeTraceEvents(Decoder& decoder, std::vector<TraceEvent>& events) {
  return DecodeVector<TraceEvent>(
      decoder, kTraceEventBytes,
      [](Decoder& d, TraceEvent& event) -> Status {
        HTUNE_RETURN_IF_ERROR(d.GetDouble(&event.time));
        uint8_t kind = 0;
        HTUNE_RETURN_IF_ERROR(d.GetU8(&kind));
        if (kind > static_cast<uint8_t>(TraceEventKind::kReposted)) {
          return InvalidArgumentError("decode: unknown trace event kind");
        }
        event.kind = static_cast<TraceEventKind>(kind);
        HTUNE_RETURN_IF_ERROR(d.GetU64(&event.worker));
        HTUNE_RETURN_IF_ERROR(d.GetU64(&event.task));
        return d.GetI32(&event.repetition);
      },
      events);
}

std::string EncodeMarketState(const MarketState& state) {
  Encoder encoder;
  encoder.PutU64(kSnapshotMagic);
  encoder.PutU32(kSnapshotVersion);
  PutFields(encoder, state.now, state.next_arrival_time, state.next_worker,
            state.next_task, state.event_sequence,
            int64_t{state.total_spent});
  EncodeRngState(state.rng, encoder);
  encoder.PutU64(state.events.size());
  for (const MarketState::Event& event : state.events) {
    EncodeEvent(event, encoder);
  }
  encoder.PutU64(state.open_tasks.size());
  for (const MarketState::Task& task : state.open_tasks) {
    EncodeTask(task, encoder);
  }
  encoder.PutU64(state.completed.size());
  for (const TaskOutcome& outcome : state.completed) {
    EncodeTaskOutcome(outcome, encoder);
  }
  encoder.PutU64(state.completion_order.size());
  for (TaskId id : state.completion_order) encoder.PutU64(id);
  EncodeTraceEvents(state.trace, encoder);
  return std::move(encoder).Release();
}

StatusOr<MarketState> DecodeMarketState(std::string_view bytes) {
  Decoder decoder(bytes);
  uint64_t magic = 0;
  uint32_t version = 0;
  if (!decoder.GetU64(&magic).ok() || magic != kSnapshotMagic) {
    return InvalidArgumentError("decode: market snapshot has no v2 header");
  }
  HTUNE_RETURN_IF_ERROR(decoder.GetU32(&version));
  if (version != kSnapshotVersion) {
    return InvalidArgumentError("decode: unsupported snapshot version " +
                                std::to_string(version));
  }
  MarketState state;
  int64_t total_spent = 0;
  HTUNE_RETURN_IF_ERROR(GetFields(decoder, state.now, state.next_arrival_time,
                                  state.next_worker, state.next_task,
                                  state.event_sequence, total_spent));
  state.total_spent = static_cast<long>(total_spent);
  HTUNE_RETURN_IF_ERROR(DecodeRngState(decoder, state.rng));
  HTUNE_RETURN_IF_ERROR(
      DecodeVector<MarketState::Event>(decoder, 33, DecodeEvent, state.events));
  HTUNE_RETURN_IF_ERROR(
      DecodeVector<MarketState::Task>(decoder, 64, DecodeTask,
                                      state.open_tasks));
  HTUNE_RETURN_IF_ERROR(DecodeVector<TaskOutcome>(
      decoder, 36, DecodeTaskOutcome, state.completed));
  HTUNE_RETURN_IF_ERROR(DecodeVector<TaskId>(
      decoder, 8,
      [](Decoder& d, TaskId& id) -> Status { return d.GetU64(&id); },
      state.completion_order));
  HTUNE_RETURN_IF_ERROR(DecodeTraceEvents(decoder, state.trace));
  HTUNE_RETURN_IF_ERROR(decoder.ExpectDone());
  return state;
}

}  // namespace htune
