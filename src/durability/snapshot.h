#ifndef HTUNE_DURABILITY_SNAPSHOT_H_
#define HTUNE_DURABILITY_SNAPSHOT_H_

#include <string>

#include "common/statusor.h"
#include "durability/serialize.h"
#include "market/simulator.h"

namespace htune {

/// Binary codec for MarketState (see market/simulator.h). The encoding is
/// deterministic — encoding equal states yields equal bytes — so snapshot
/// records can be compared bitwise during replay verification. Doubles are
/// stored as IEEE-754 bit patterns, making a decode(encode(s)) round trip
/// exact.
///
/// Writes format v2: an 8-byte magic (a NaN bit pattern), a u32 version,
/// then the state fields, with the pending events in canonical (time,
/// sequence) order and the completed outcomes in completion order.
std::string EncodeMarketState(const MarketState& state);

/// Inverse of EncodeMarketState; reads v2 only. Returns InvalidArgument on
/// a missing header (the pre-v2 headerless format included), an unknown
/// version, or truncated or structurally corrupt input (never crashes on
/// hostile bytes); semantic validation beyond shape (id-space consistency,
/// completion order, curve indices) happens in
/// MarketSimulator::RestoreState.
StatusOr<MarketState> DecodeMarketState(std::string_view bytes);

/// Sub-codecs shared with executor-state and shared-market serialization.
/// A pending event is its five fields in MarketState::Event order; both
/// market engines write their event queues with this pair.
void EncodeEvent(const MarketState::Event& event, Encoder& encoder);
Status DecodeEvent(Decoder& decoder, MarketState::Event& event);
void EncodeRngState(const Random::State& rng, Encoder& encoder);
Status DecodeRngState(Decoder& decoder, Random::State& rng);
void EncodeTraceEvents(const std::vector<TraceEvent>& events,
                       Encoder& encoder);
Status DecodeTraceEvents(Decoder& decoder, std::vector<TraceEvent>& events);
void EncodeTaskOutcome(const TaskOutcome& outcome, Encoder& encoder);
Status DecodeTaskOutcome(Decoder& decoder, TaskOutcome& outcome);

}  // namespace htune

#endif  // HTUNE_DURABILITY_SNAPSHOT_H_
