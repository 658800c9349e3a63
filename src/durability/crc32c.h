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
/// prefix ends. Every journal, manifest and snapshot load and every run-end
/// digest checksums whole records, some of them megabytes long, so the
/// checksum sits on the serving path: on an x86-64 CPU with SSE4.2
/// (`__builtin_cpu_supports`, checked once) it runs the `crc32` instruction
/// eight bytes at a time, elsewhere portable slicing-by-8 (eight 256-entry
/// tables, eight bytes per step). Both compute the same function.
uint32_t Crc32c(std::string_view bytes);

/// Incremental form: feeds `bytes` into a running checksum previously
/// returned by Crc32c/ExtendCrc32c. `Crc32c(ab) == ExtendCrc32c(Crc32c(a), b)`.
uint32_t ExtendCrc32c(uint32_t crc, std::string_view bytes);

namespace crc32c_internal {

/// The two implementations ExtendCrc32c dispatches between, exposed so a
/// test can hold them to each other on one host.
uint32_t ExtendPortable(uint32_t crc, std::string_view bytes);
/// True when this CPU runs ExtendHardware.
bool HardwareAvailable();
/// The SSE4.2 path; call only when HardwareAvailable().
uint32_t ExtendHardware(uint32_t crc, std::string_view bytes);

}  // namespace crc32c_internal

}  // namespace htune

#endif  // HTUNE_DURABILITY_CRC32C_H_
