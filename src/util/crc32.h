// CRC32C (Castagnoli) — integrity checksums for sectors, segments, journal
// sectors, and RPC frames.
#ifndef S4_SRC_UTIL_CRC32_H_
#define S4_SRC_UTIL_CRC32_H_

#include <cstdint>

#include "src/util/bytes.h"

namespace s4 {

// One-shot CRC32C over a buffer.
uint32_t Crc32c(ByteSpan data);

// Incremental form: crc = Crc32cExtend(crc, chunk) chained over chunks,
// starting from Crc32cInit() and finished with Crc32cFinish().
uint32_t Crc32cInit();
uint32_t Crc32cExtend(uint32_t state, ByteSpan data);
uint32_t Crc32cFinish(uint32_t state);

namespace internal {
// The two loops behind Crc32cExtend, exposed so tests can cross-check them.
// Crc32cExtend runs the hardware loop when the CPU has one and the table loop
// otherwise; both return identical values.
using Crc32cExtendFn = uint32_t (*)(uint32_t state, ByteSpan data);
// Bytewise 256-entry table loop: the portable reference.
uint32_t Crc32cExtendTable(uint32_t state, ByteSpan data);
// SSE4.2 `crc32` loop, or nullptr when this build or CPU lacks the instruction.
Crc32cExtendFn Crc32cExtendHardware();
}  // namespace internal

}  // namespace s4

#endif  // S4_SRC_UTIL_CRC32_H_
