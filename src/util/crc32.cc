#include "src/util/crc32.h"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace s4 {
namespace {

// CRC32C polynomial (reflected): 0x82F63B78.
constexpr uint32_t kPoly = 0x82F63B78u;

std::array<uint32_t, 256> BuildTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int k = 0; k < 8; ++k) {
      crc = (crc & 1) ? (crc >> 1) ^ kPoly : crc >> 1;
    }
    table[i] = crc;
  }
  return table;
}

const std::array<uint32_t, 256>& Table() {
  static const std::array<uint32_t, 256> kTable = BuildTable();
  return kTable;
}

#if defined(__x86_64__)
// The SSE4.2 `crc32` instruction computes the same reflected CRC32C step as
// the table, eight bytes at a time. Only this function is compiled for
// SSE4.2, so the binary still runs on CPUs without it.
__attribute__((target("sse4.2"))) uint32_t ExtendSse42(uint32_t state, ByteSpan data) {
  const uint8_t* p = data.data();
  size_t n = data.size();
  uint64_t crc = state;
  for (; n >= 8; p += 8, n -= 8) {
    uint64_t word = 0;
    std::memcpy(&word, p, sizeof(word));
    crc = _mm_crc32_u64(crc, word);
  }
  auto crc32 = static_cast<uint32_t>(crc);
  for (; n > 0; ++p, --n) {
    crc32 = _mm_crc32_u8(crc32, *p);
  }
  return crc32;
}
#endif

}  // namespace

namespace internal {

uint32_t Crc32cExtendTable(uint32_t state, ByteSpan data) {
  const auto& table = Table();
  for (uint8_t b : data) {
    state = table[(state ^ b) & 0xFF] ^ (state >> 8);
  }
  return state;
}

Crc32cExtendFn Crc32cExtendHardware() {
#if defined(__x86_64__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("sse4.2")) {
    return &ExtendSse42;
  }
#endif
  return nullptr;
}

}  // namespace internal

uint32_t Crc32cInit() { return 0xFFFFFFFFu; }

uint32_t Crc32cExtend(uint32_t state, ByteSpan data) {
  static const internal::Crc32cExtendFn kExtend = [] {
    internal::Crc32cExtendFn hardware = internal::Crc32cExtendHardware();
    return hardware != nullptr ? hardware : &internal::Crc32cExtendTable;
  }();
  return kExtend(state, data);
}

uint32_t Crc32cFinish(uint32_t state) { return state ^ 0xFFFFFFFFu; }

uint32_t Crc32c(ByteSpan data) { return Crc32cFinish(Crc32cExtend(Crc32cInit(), data)); }

}  // namespace s4
