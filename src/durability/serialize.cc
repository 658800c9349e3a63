#include "durability/serialize.h"

#include <bit>
#include <cstring>

namespace htune {

namespace {

// The on-disk format is little-endian whatever the host's order.
template <typename T>
T ReadLe(const char* p) {
  T v = 0;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&v, p, sizeof(T));
  } else {
    for (size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<T>(static_cast<uint8_t>(p[i])) << (8 * i);
    }
  }
  return v;
}

}  // namespace

void Encoder::PutString(std::string_view v) {
  PutU64(v.size());
  bytes_.append(v.data(), v.size());
}

void Encoder::PutI32Vector(const std::vector<int>& v) {
  PutU64(v.size());
  for (const int x : v) PutI32(static_cast<int32_t>(x));
}

void Encoder::PutDoubleVector(const std::vector<double>& v) {
  PutU64(v.size());
  for (const double x : v) PutDouble(x);
}

Status Decoder::Take(size_t n, const char** out) {
  if (remaining() < n) {
    return InvalidArgumentError("decode: truncated input (need " +
                                std::to_string(n) + " bytes, have " +
                                std::to_string(remaining()) + ")");
  }
  *out = bytes_.data() + cursor_;
  cursor_ += n;
  return OkStatus();
}

Status Decoder::GetU8(uint8_t* v) {
  const char* p;
  HTUNE_RETURN_IF_ERROR(Take(1, &p));
  *v = static_cast<uint8_t>(*p);
  return OkStatus();
}

Status Decoder::GetU32(uint32_t* v) {
  const char* p;
  HTUNE_RETURN_IF_ERROR(Take(4, &p));
  *v = ReadLe<uint32_t>(p);
  return OkStatus();
}

Status Decoder::GetU64(uint64_t* v) {
  const char* p;
  HTUNE_RETURN_IF_ERROR(Take(8, &p));
  *v = ReadLe<uint64_t>(p);
  return OkStatus();
}

Status Decoder::GetI32(int32_t* v) {
  uint32_t u;
  HTUNE_RETURN_IF_ERROR(GetU32(&u));
  *v = static_cast<int32_t>(u);
  return OkStatus();
}

Status Decoder::GetI64(int64_t* v) {
  uint64_t u;
  HTUNE_RETURN_IF_ERROR(GetU64(&u));
  *v = static_cast<int64_t>(u);
  return OkStatus();
}

Status Decoder::GetBool(bool* v) {
  uint8_t u;
  HTUNE_RETURN_IF_ERROR(GetU8(&u));
  if (u > 1) {
    return InvalidArgumentError("decode: bool byte out of range");
  }
  *v = u != 0;
  return OkStatus();
}

Status Decoder::GetDouble(double* v) {
  uint64_t bits;
  HTUNE_RETURN_IF_ERROR(GetU64(&bits));
  std::memcpy(v, &bits, sizeof(bits));
  return OkStatus();
}

Status Decoder::GetString(std::string* v) {
  uint64_t size;
  HTUNE_RETURN_IF_ERROR(GetU64(&size));
  if (size > remaining()) {
    return InvalidArgumentError("decode: string length exceeds input");
  }
  const char* p;
  HTUNE_RETURN_IF_ERROR(Take(static_cast<size_t>(size), &p));
  v->assign(p, static_cast<size_t>(size));
  return OkStatus();
}

Status Decoder::GetI32Vector(std::vector<int>* v) {
  uint64_t count;
  HTUNE_RETURN_IF_ERROR(GetU64(&count));
  if (count > remaining() / 4) {
    return InvalidArgumentError("decode: i32 vector count exceeds input");
  }
  v->clear();
  v->reserve(static_cast<size_t>(count));
  for (uint64_t i = 0; i < count; ++i) {
    int32_t x;
    HTUNE_RETURN_IF_ERROR(GetI32(&x));
    v->push_back(static_cast<int>(x));
  }
  return OkStatus();
}

Status Decoder::GetDoubleVector(std::vector<double>* v) {
  uint64_t count;
  HTUNE_RETURN_IF_ERROR(GetU64(&count));
  if (count > remaining() / 8) {
    return InvalidArgumentError("decode: double vector count exceeds input");
  }
  v->clear();
  v->reserve(static_cast<size_t>(count));
  for (uint64_t i = 0; i < count; ++i) {
    double x;
    HTUNE_RETURN_IF_ERROR(GetDouble(&x));
    v->push_back(x);
  }
  return OkStatus();
}

Status Decoder::ExpectDone() const {
  if (!Done()) {
    return InvalidArgumentError("decode: " + std::to_string(remaining()) +
                                " trailing bytes");
  }
  return OkStatus();
}

}  // namespace htune
