#include "durability/snapshot.h"

#include <cstdint>
#include <utility>

#include "common/status.h"

namespace htune {

namespace {

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

void EncodeEvent(const MarketState::Event& event, Encoder& encoder) {
  encoder.PutDouble(event.time);
  encoder.PutU64(event.sequence);
  encoder.PutU64(event.task);
  encoder.PutU8(event.kind);
  encoder.PutU64(event.generation);
}

Status DecodeEvent(Decoder& decoder, MarketState::Event& event) {
  HTUNE_RETURN_IF_ERROR(decoder.GetDouble(&event.time));
  HTUNE_RETURN_IF_ERROR(decoder.GetU64(&event.sequence));
  HTUNE_RETURN_IF_ERROR(decoder.GetU64(&event.task));
  HTUNE_RETURN_IF_ERROR(decoder.GetU8(&event.kind));
  return decoder.GetU64(&event.generation);
}

void EncodeTask(const MarketState::Task& task, Encoder& encoder) {
  encoder.PutU64(task.id);
  encoder.PutI32(task.price_per_repetition);
  encoder.PutI32(task.repetitions);
  encoder.PutDouble(task.on_hold_rate);
  encoder.PutI32Vector(task.spec_prices);
  encoder.PutDoubleVector(task.spec_rates);
  encoder.PutI32(task.spec_curve);
  encoder.PutDouble(task.processing_rate);
  encoder.PutDouble(task.acceptance_timeout);
  encoder.PutI32(task.true_answer);
  encoder.PutI32(task.num_options);
  encoder.PutI32Vector(task.rep_prices);
  encoder.PutDoubleVector(task.rep_rates);
  encoder.PutI32(task.effective_curve);
  EncodeTaskOutcome(task.outcome, encoder);
  encoder.PutI32(task.next_repetition);
  encoder.PutBool(task.awaiting_acceptance);
  encoder.PutDouble(task.current_posted_time);
  encoder.PutU64(task.exposure_generation);
  encoder.PutI32(task.reprice_price);
  encoder.PutDouble(task.reprice_rate);
}

Status DecodeTask(Decoder& decoder, MarketState::Task& task) {
  HTUNE_RETURN_IF_ERROR(decoder.GetU64(&task.id));
  HTUNE_RETURN_IF_ERROR(decoder.GetI32(&task.price_per_repetition));
  HTUNE_RETURN_IF_ERROR(decoder.GetI32(&task.repetitions));
  HTUNE_RETURN_IF_ERROR(decoder.GetDouble(&task.on_hold_rate));
  HTUNE_RETURN_IF_ERROR(decoder.GetI32Vector(&task.spec_prices));
  HTUNE_RETURN_IF_ERROR(decoder.GetDoubleVector(&task.spec_rates));
  HTUNE_RETURN_IF_ERROR(decoder.GetI32(&task.spec_curve));
  HTUNE_RETURN_IF_ERROR(decoder.GetDouble(&task.processing_rate));
  HTUNE_RETURN_IF_ERROR(decoder.GetDouble(&task.acceptance_timeout));
  HTUNE_RETURN_IF_ERROR(decoder.GetI32(&task.true_answer));
  HTUNE_RETURN_IF_ERROR(decoder.GetI32(&task.num_options));
  HTUNE_RETURN_IF_ERROR(decoder.GetI32Vector(&task.rep_prices));
  HTUNE_RETURN_IF_ERROR(decoder.GetDoubleVector(&task.rep_rates));
  HTUNE_RETURN_IF_ERROR(decoder.GetI32(&task.effective_curve));
  HTUNE_RETURN_IF_ERROR(DecodeTaskOutcome(decoder, task.outcome));
  HTUNE_RETURN_IF_ERROR(decoder.GetI32(&task.next_repetition));
  HTUNE_RETURN_IF_ERROR(decoder.GetBool(&task.awaiting_acceptance));
  HTUNE_RETURN_IF_ERROR(decoder.GetDouble(&task.current_posted_time));
  HTUNE_RETURN_IF_ERROR(decoder.GetU64(&task.exposure_generation));
  HTUNE_RETURN_IF_ERROR(decoder.GetI32(&task.reprice_price));
  return decoder.GetDouble(&task.reprice_rate);
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
      decoder, 29,
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

namespace {

/// v2 header magic: the IEEE-754 bit pattern of a quiet NaN spelling
/// "HTSV2" in its payload. A v1 snapshot starts with PutDouble(now), and
/// `now` is a finite simulation time, so no valid v1 blob can begin with
/// these 8 bytes — which is what lets the decoder sniff the version.
constexpr uint64_t kSnapshotMagic = 0xFFF7485453563200ULL;
constexpr uint32_t kSnapshotVersion = 2;

void EncodeMarketStateBody(const MarketState& state, Encoder& encoder) {
  encoder.PutDouble(state.now);
  encoder.PutDouble(state.next_arrival_time);
  encoder.PutU64(state.next_worker);
  encoder.PutU64(state.next_task);
  encoder.PutU64(state.event_sequence);
  encoder.PutI64(state.total_spent);
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
}

Status DecodeMarketStateBody(Decoder& decoder, MarketState& state) {
  HTUNE_RETURN_IF_ERROR(decoder.GetDouble(&state.now));
  HTUNE_RETURN_IF_ERROR(decoder.GetDouble(&state.next_arrival_time));
  HTUNE_RETURN_IF_ERROR(decoder.GetU64(&state.next_worker));
  HTUNE_RETURN_IF_ERROR(decoder.GetU64(&state.next_task));
  HTUNE_RETURN_IF_ERROR(decoder.GetU64(&state.event_sequence));
  int64_t total_spent = 0;
  HTUNE_RETURN_IF_ERROR(decoder.GetI64(&total_spent));
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
  return decoder.ExpectDone();
}

}  // namespace

std::string EncodeMarketState(const MarketState& state) {
  Encoder encoder;
  encoder.PutU64(kSnapshotMagic);
  encoder.PutU32(kSnapshotVersion);
  EncodeMarketStateBody(state, encoder);
  return std::move(encoder).Release();
}

StatusOr<MarketState> DecodeMarketState(std::string_view bytes) {
  MarketState state;
  Decoder sniff(bytes);
  uint64_t first_word = 0;
  if (sniff.GetU64(&first_word).ok() && first_word == kSnapshotMagic) {
    uint32_t version = 0;
    HTUNE_RETURN_IF_ERROR(sniff.GetU32(&version));
    if (version != kSnapshotVersion) {
      return InvalidArgumentError("decode: unsupported snapshot version " +
                                  std::to_string(version));
    }
    HTUNE_RETURN_IF_ERROR(DecodeMarketStateBody(sniff, state));
    return state;
  }
  // No magic: a v1 blob, which starts directly with the `now` field.
  Decoder decoder(bytes);
  HTUNE_RETURN_IF_ERROR(DecodeMarketStateBody(decoder, state));
  return state;
}

}  // namespace htune
