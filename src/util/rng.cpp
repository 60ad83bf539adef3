#include "src/util/rng.h"

#include <cmath>

namespace setlib {

Rng::Rng(std::uint64_t seed) noexcept {
  std::uint64_t sm = seed;
  for (auto& s : s_) s = splitmix64(sm);
}

std::int64_t Rng::next_in(std::int64_t lo, std::int64_t hi) {
  SETLIB_EXPECTS(lo <= hi);
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(next_below(span));
}

double Rng::next_double() noexcept {
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

bool Rng::next_bool(double p) noexcept {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return next_double() < p;
}

std::size_t Rng::next_weighted(const std::vector<double>& weights) {
  double total = 0.0;
  for (double w : weights) {
    SETLIB_EXPECTS(w >= 0.0);
    total += w;
  }
  SETLIB_EXPECTS(total > 0.0);
  double x = next_double() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    x -= weights[i];
    if (x < 0.0) return i;
  }
  return weights.size() - 1;  // numeric edge: fall into the last bucket
}

Rng Rng::fork() noexcept { return Rng(next_u64()); }

}  // namespace setlib
