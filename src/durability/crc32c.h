#ifndef HTUNE_DURABILITY_CRC32C_H_
#define HTUNE_DURABILITY_CRC32C_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace htune {

/// CRC-32C (Castagnoli polynomial 0x1EDC6F41, reflected), the checksum used
/// by the write-ahead journal to detect torn and bit-flipped records. Every
/// single-bit error and every burst error up to 32 bits is detected, which is
/// what the recovery path relies on when deciding where a journal's valid
/// prefix ends. Portable slicing-by-8 (eight 256-entry tables, eight bytes
/// per step, no hardware intrinsics): every journal, manifest and snapshot
/// load and every run-end digest checksums whole records, some of them
/// megabytes long, so the checksum sits on the serving path.
uint32_t Crc32c(std::string_view bytes);

/// Incremental form: feeds `bytes` into a running checksum previously
/// returned by Crc32c/ExtendCrc32c. `Crc32c(ab) == ExtendCrc32c(Crc32c(a), b)`.
uint32_t ExtendCrc32c(uint32_t crc, std::string_view bytes);

}  // namespace htune

#endif  // HTUNE_DURABILITY_CRC32C_H_
