// Deterministic PRNG (xoshiro256**). All stochastic behaviour in workloads
// and tests flows through a seeded Rng so every run is reproducible.
#ifndef S4_SRC_UTIL_RNG_H_
#define S4_SRC_UTIL_RNG_H_

#include <cstdint>

#include "src/util/bytes.h"
#include "src/util/check.h"

namespace s4 {

class Rng {
 public:
  explicit Rng(uint64_t seed) {
    // splitmix64 seeding, as recommended by the xoshiro authors.
    uint64_t x = seed;
    for (auto& s : state_) {
      x += 0x9E3779B97F4A7C15ull;
      uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
      z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
      s = z ^ (z >> 31);
    }
  }

  uint64_t Next() {
    uint64_t* s = state_;
    const uint64_t result = Rotl(s[1] * 5, 7) * 9;
    const uint64_t t = s[1] << 17;
    s[2] ^= s[0];
    s[3] ^= s[1];
    s[1] ^= s[2];
    s[0] ^= s[3];
    s[2] ^= t;
    s[3] = Rotl(s[3], 45);
    return result;
  }

  // Uniform in [0, bound). bound must be > 0.
  uint64_t Below(uint64_t bound) {
    S4_CHECK(bound > 0);
    return Next() % bound;
  }

  // Uniform in [lo, hi] inclusive.
  uint64_t Range(uint64_t lo, uint64_t hi) {
    S4_CHECK(lo <= hi);
    return lo + Below(hi - lo + 1);
  }

  // True with probability num/den.
  bool Chance(uint64_t num, uint64_t den) { return Below(den) < num; }

  double NextDouble() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

  // Filler payloads. `compressibility` in [0,1] (checked): 0 = random
  // bytes, 1 = highly repetitive (compressible) text-like bytes.
  Bytes RandomBytes(size_t n, double compressibility = 0.0);

 private:
  static uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
  uint64_t state_[4];
};

}  // namespace s4

#endif  // S4_SRC_UTIL_RNG_H_
