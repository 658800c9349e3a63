#include "durability/crc32c.h"

#include <array>
#include <cstring>

#include "common/check.h"

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace htune {

namespace {

using Crc32cTables = std::array<std::array<uint32_t, 256>, 8>;

/// Slicing-by-8 tables for the reflected CRC-32C. tables[0] is the
/// byte-at-a-time table; tables[k][b] is the state after byte b followed
/// by k zero bytes, so eight lookups advance the state by eight bytes.
constexpr Crc32cTables MakeCrc32cTables() {
  constexpr uint32_t kPolyReflected = 0x82F63B78u;
  Crc32cTables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? kPolyReflected : 0u);
    }
    t[0][i] = crc;
  }
  for (size_t k = 1; k < t.size(); ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

constexpr Crc32cTables kTables = MakeCrc32cTables();

/// Little-endian 32-bit load assembled from bytes: portable, alignment-free,
/// and compiled to one load on little-endian targets.
inline uint32_t LoadLe32(const unsigned char* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

}  // namespace

namespace crc32c_internal {

uint32_t ExtendPortable(uint32_t crc, std::string_view bytes) {
  const auto* p = reinterpret_cast<const unsigned char*>(bytes.data());
  size_t n = bytes.size();
  // Un-finalize, process, re-finalize: the running state is ~crc.
  uint32_t state = ~crc;
  for (; n >= 8; p += 8, n -= 8) {
    const uint32_t lo = state ^ LoadLe32(p);
    const uint32_t hi = LoadLe32(p + 4);
    state = kTables[7][lo & 0xFFu] ^ kTables[6][(lo >> 8) & 0xFFu] ^
            kTables[5][(lo >> 16) & 0xFFu] ^ kTables[4][lo >> 24] ^
            kTables[3][hi & 0xFFu] ^ kTables[2][(hi >> 8) & 0xFFu] ^
            kTables[1][(hi >> 16) & 0xFFu] ^ kTables[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    state = (state >> 8) ^ kTables[0][(state ^ *p) & 0xFFu];
  }
  return ~state;
}

#if defined(__x86_64__)

bool HardwareAvailable() { return __builtin_cpu_supports("sse4.2"); }

// The crc32 instruction computes the same reflected CRC-32C step as the
// tables, on the same un-finalized state.
__attribute__((target("sse4.2"))) uint32_t ExtendHardware(
    uint32_t crc, std::string_view bytes) {
  const char* p = bytes.data();
  size_t n = bytes.size();
  uint64_t state = ~crc;
  for (; n >= 8; p += 8, n -= 8) {
    uint64_t word;
    std::memcpy(&word, p, sizeof(word));
    state = _mm_crc32_u64(state, word);
  }
  auto state32 = static_cast<uint32_t>(state);
  for (; n > 0; ++p, --n) {
    state32 = _mm_crc32_u8(state32, static_cast<unsigned char>(*p));
  }
  return ~state32;
}

#else

bool HardwareAvailable() { return false; }

uint32_t ExtendHardware(uint32_t, std::string_view) {
  HTUNE_CHECK(false);
  return 0;
}

#endif

}  // namespace crc32c_internal

uint32_t ExtendCrc32c(uint32_t crc, std::string_view bytes) {
  static const auto extend = crc32c_internal::HardwareAvailable()
                                 ? crc32c_internal::ExtendHardware
                                 : crc32c_internal::ExtendPortable;
  return extend(crc, bytes);
}

uint32_t Crc32c(std::string_view bytes) { return ExtendCrc32c(0, bytes); }

}  // namespace htune
