#ifndef HTUNE_TESTS_MARKET_STATE_V1_H_
#define HTUNE_TESTS_MARKET_STATE_V1_H_

#include <string>

#include "durability/snapshot.h"
#include "market/simulator.h"

namespace htune {

/// Encodes `state` in the historical v1 snapshot format, for tests that
/// fabricate pre-v2 journals. v1 is the v2 body without its header (the
/// 8-byte magic plus the u32 version), events in whatever order
/// `state.events` holds; DecodeMarketState still reads it.
inline std::string EncodeMarketStateLegacyV1(const MarketState& state) {
  return EncodeMarketState(state).substr(12);
}

}  // namespace htune

#endif  // HTUNE_TESTS_MARKET_STATE_V1_H_
