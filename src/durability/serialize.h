#ifndef HTUNE_DURABILITY_SERIALIZE_H_
#define HTUNE_DURABILITY_SERIALIZE_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace htune {

/// Little-endian fixed-width binary encoder for journal payloads and
/// snapshots. The encoding is deliberately trivial — no varints, no
/// alignment, no schema evolution beyond the journal's version header — so
/// that encoding the same logical state always yields the same bytes
/// (replay verification compares records bitwise).
class Encoder {
 public:
  void PutU8(uint8_t v) { bytes_.push_back(static_cast<char>(v)); }
  void PutU32(uint32_t v) { PutLe(v); }
  void PutU64(uint64_t v) { PutLe(v); }
  void PutI32(int32_t v) { PutU32(static_cast<uint32_t>(v)); }
  void PutI64(int64_t v) { PutU64(static_cast<uint64_t>(v)); }
  void PutBool(bool v) { PutU8(v ? 1 : 0); }
  /// Doubles are stored as their IEEE-754 bit pattern: decode is bitwise
  /// exact, which the crash-recovery identity guarantees depend on.
  void PutDouble(double v) { PutU64(std::bit_cast<uint64_t>(v)); }
  /// Length-prefixed bytes (u64 length).
  void PutString(std::string_view v);
  void PutI32Vector(const std::vector<int>& v);
  void PutDoubleVector(const std::vector<double>& v);

  /// Makes room for `n` more bytes, so a caller that knows its encoded
  /// size writes it without regrowing the buffer.
  void Reserve(size_t n) { bytes_.reserve(bytes_.size() + n); }

  const std::string& bytes() const { return bytes_; }
  std::string Release() { return std::move(bytes_); }

 private:
  /// One append of `v`'s little-endian bytes, whatever the host order.
  template <typename T>
  void PutLe(T v) {
    char le[sizeof(T)];
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(le, &v, sizeof(T));
    } else {
      for (size_t i = 0; i < sizeof(T); ++i) {
        le[i] = static_cast<char>((v >> (8 * i)) & 0xFFu);
      }
    }
    bytes_.append(le, sizeof(T));
  }

  std::string bytes_;
};

/// Cursor-based decoder over an Encoder's output. Every accessor checks
/// bounds and returns InvalidArgument on truncated or corrupt input instead
/// of reading past the end — decoding attacker-controlled (bit-flipped,
/// truncated) bytes must fail cleanly, never crash. Element counts are
/// sanity-checked against the remaining byte count before any allocation so
/// a corrupted length cannot trigger a huge allocation.
class Decoder {
 public:
  explicit Decoder(std::string_view bytes) : bytes_(bytes) {}

  Status GetU8(uint8_t* v);
  Status GetU32(uint32_t* v);
  Status GetU64(uint64_t* v);
  Status GetI32(int32_t* v);
  Status GetI64(int64_t* v);
  Status GetBool(bool* v);
  Status GetDouble(double* v);
  Status GetString(std::string* v);
  Status GetI32Vector(std::vector<int>* v);
  Status GetDoubleVector(std::vector<double>* v);

  /// Remaining unread bytes.
  size_t remaining() const { return bytes_.size() - cursor_; }
  bool Done() const { return cursor_ == bytes_.size(); }
  /// InvalidArgument when trailing bytes remain (payload longer than the
  /// decoder expected — a framing or version error).
  Status ExpectDone() const;

 private:
  Status Take(size_t n, const char** out);

  std::string_view bytes_;
  size_t cursor_ = 0;
};

}  // namespace htune

#endif  // HTUNE_DURABILITY_SERIALIZE_H_
