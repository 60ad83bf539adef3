// Deterministic, seedable pseudo-random number generation.
//
// All stochastic schedule generators in the library draw from Rng so that
// every experiment is reproducible from (parameters, seed). The generator
// is xoshiro256**, seeded through SplitMix64 per the reference
// recommendation; both are tiny, fast, and dependency-free.
#ifndef SETLIB_UTIL_RNG_H
#define SETLIB_UTIL_RNG_H

#include <bit>
#include <cstdint>
#include <vector>

#include "src/util/assert.h"

namespace setlib {

/// SplitMix64 step; used for seeding and as a cheap stateless mixer.
/// Inline: the schedule hash chain (sched::ScheduleHasher) runs it once
/// per executed step.
inline std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// xoshiro256** deterministic PRNG.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) noexcept;

  /// Uniform 64-bit value. Inline: random schedule generators draw one
  /// per pull.
  std::uint64_t next_u64() noexcept {
    const std::uint64_t result = std::rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = std::rotl(s_[3], 45);
    return result;
  }

  /// Uniform in [0, bound). Requires bound > 0 (throws otherwise). Uses
  /// rejection sampling, so the distribution is exactly uniform.
  std::uint64_t next_below(std::uint64_t bound) {
    return next_below(bound, below_threshold(bound));
  }

  /// next_below's rejection threshold for `bound` (> 0): draws under it
  /// are redrawn. A caller drawing many times below one bound can hoist
  /// it out of its loop.
  static std::uint64_t below_threshold(std::uint64_t bound) {
    SETLIB_EXPECTS(bound > 0);
    return (0 - bound) % bound;
  }

  /// next_below(bound) with `threshold` == below_threshold(bound)
  /// precomputed: the same draws, so the same stream.
  std::uint64_t next_below(std::uint64_t bound,
                           std::uint64_t threshold) noexcept {
    // Lemire-style rejection to remove modulo bias.
    for (;;) {
      const std::uint64_t r = next_u64();
      if (r >= threshold) return r % bound;
    }
  }

  /// Uniform int in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t next_in(std::int64_t lo, std::int64_t hi);

  /// Uniform double in [0, 1).
  double next_double() noexcept;

  /// Bernoulli trial with probability p (clamped to [0,1]).
  bool next_bool(double p) noexcept;

  /// Pick an index according to non-negative weights (at least one > 0).
  std::size_t next_weighted(const std::vector<double>& weights);

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      using std::swap;
      swap(v[i - 1], v[next_below(i)]);
    }
  }

  /// Derive an independent child generator (for per-process streams).
  Rng fork() noexcept;

 private:
  std::uint64_t s_[4];
};

}  // namespace setlib

#endif  // SETLIB_UTIL_RNG_H
