#include "src/util/rng.h"

#include <cstring>

namespace s4 {

Bytes Rng::RandomBytes(size_t n, double compressibility) {
  // The word stores below rely on the longest run fitting the slack.
  S4_CHECK(compressibility >= 0.0 && compressibility <= 1.0);
  if (compressibility == 0.0) {
    Bytes out(n);
    for (size_t i = 0; i < n; ++i) {
      out[i] = static_cast<uint8_t>(Next());
    }
    return out;
  }
  // Text-like output: draw words from a small alphabet with run-lengths that
  // grow with compressibility, giving LZ-style compressors real matches. Each
  // run takes two draws: its letter (uniform over 4 or 16) and its length,
  // 1 + floor(compressibility * r) for r uniform in [0, 24).
  constexpr size_t kLengthDraws = 24;
  constexpr size_t kMaxRun = kLengthDraws;  // at compressibility 1
  const uint64_t letter_mask = compressibility >= 0.9 ? 3 : 15;
  uint8_t run_length[kLengthDraws];
  for (size_t r = 0; r < kLengthDraws; ++r) {
    run_length[r] =
        static_cast<uint8_t>(1 + static_cast<size_t>(compressibility * static_cast<double>(r)));
  }
  // Runs are written 8 bytes at a time, so a run starting at n - 1 may spill
  // up to kMaxRun - 1 bytes past the end before the final resize.
  Bytes out(n + kMaxRun - 1);
  uint8_t* p = out.data();
  size_t i = 0;
  while (i < n) {
    const uint64_t word = 0x0101010101010101ull * ('a' + (Next() & letter_mask));
    const size_t run = run_length[Next() % kLengthDraws];
    for (size_t k = 0; k < run; k += 8) {
      std::memcpy(p + i + k, &word, sizeof(word));
    }
    i += run;
  }
  out.resize(n);
  return out;
}

}  // namespace s4
