#include "src/util/procset.h"

#include <bit>
#include <ostream>
#include <sstream>

namespace setlib {

ProcSet ProcSet::universe(int n) {
  SETLIB_EXPECTS(n >= 0 && n <= kMaxProcs);
  if (n == 0) return ProcSet();
  return ProcSet((std::uint64_t{1} << n) - 1);
}

ProcSet ProcSet::of(Pid p) {
  SETLIB_EXPECTS(p >= 0 && p < kMaxProcs);
  return ProcSet(std::uint64_t{1} << p);
}

ProcSet ProcSet::of(std::initializer_list<Pid> pids) {
  ProcSet s;
  for (Pid p : pids) s = s.with(p);
  return s;
}

ProcSet ProcSet::from(const std::vector<Pid>& pids) {
  ProcSet s;
  for (Pid p : pids) s = s.with(p);
  return s;
}

ProcSet ProcSet::range(Pid lo, Pid hi) {
  SETLIB_EXPECTS(0 <= lo && lo <= hi && hi <= kMaxProcs);
  ProcSet s;
  for (Pid p = lo; p < hi; ++p) s = s.with(p);
  return s;
}

ProcSet ProcSet::with(Pid p) const {
  SETLIB_EXPECTS(p >= 0 && p < kMaxProcs);
  return ProcSet(mask_ | (std::uint64_t{1} << p));
}

ProcSet ProcSet::without(Pid p) const {
  SETLIB_EXPECTS(p >= 0 && p < kMaxProcs);
  return ProcSet(mask_ & ~(std::uint64_t{1} << p));
}

Pid ProcSet::min() const {
  SETLIB_EXPECTS(!empty());
  return std::countr_zero(mask_);
}

Pid ProcSet::max() const {
  SETLIB_EXPECTS(!empty());
  return 63 - std::countl_zero(mask_);
}

Pid ProcSet::nth(int m) const {
  SETLIB_EXPECTS(m >= 0);
  std::uint64_t mask = mask_;
  for (int i = 0; i < m && mask != 0; ++i) mask &= mask - 1;  // clear lowest
  // m < size() iff a set bit survives clearing the m lowest; checked
  // this way because popcount is a library call without -mpopcnt.
  SETLIB_EXPECTS(mask != 0);
  return std::countr_zero(mask);
}

std::vector<Pid> ProcSet::to_vector() const {
  std::vector<Pid> out;
  out.reserve(static_cast<std::size_t>(size()));
  for (std::uint64_t m = mask_; m != 0; m &= m - 1) {
    out.push_back(std::countr_zero(m));
  }
  return out;
}

ProcSet ProcSet::complement(int n) const {
  return ProcSet::universe(n) - *this;
}

std::string ProcSet::to_string() const {
  std::ostringstream os;
  os << *this;
  return os.str();
}

std::ostream& operator<<(std::ostream& os, ProcSet s) {
  os << '{';
  bool first = true;
  for (Pid p : s.to_vector()) {
    if (!first) os << ',';
    os << p;
    first = false;
  }
  return os << '}';
}

std::int64_t binomial(int n, int k) {
  SETLIB_EXPECTS(n >= 0 && k >= 0);
  if (k > n) return 0;
  if (k > n - k) k = n - k;
  std::int64_t result = 1;
  for (int i = 1; i <= k; ++i) {
    // Exact at every step: result * (n-k+i) is divisible by i here.
    SETLIB_ASSERT(result <= (std::int64_t{1} << 62) / (n - k + i));
    result = result * (n - k + i) / i;
  }
  return result;
}

std::vector<ProcSet> k_subsets(int n, int k) {
  SETLIB_EXPECTS(n >= 0 && n <= kMaxProcs);
  SETLIB_EXPECTS(k >= 0 && k <= n);
  SubsetRanker ranker(n, k);
  std::vector<ProcSet> out;
  out.reserve(static_cast<std::size_t>(ranker.count()));
  for (std::int64_t r = 0; r < ranker.count(); ++r) {
    out.push_back(ranker.unrank(r));
  }
  return out;
}

SubsetRanker::SubsetRanker(int n, int k) : n_(n), k_(k) {
  SETLIB_EXPECTS(n >= 0 && n <= kMaxProcs);
  SETLIB_EXPECTS(k >= 0 && k <= n);
  choose_.assign(static_cast<std::size_t>(n + 1),
                 std::vector<std::int64_t>(static_cast<std::size_t>(k + 1), 0));
  for (int i = 0; i <= n; ++i) {
    choose_[i][0] = 1;
    for (int j = 1; j <= k && j <= i; ++j) {
      choose_[i][j] = choose_[i - 1][j - 1] +
                      (j <= i - 1 ? choose_[i - 1][j] : 0);
    }
  }
  count_ = choose_[n][k];
}

std::int64_t SubsetRanker::rank(ProcSet s) const {
  SETLIB_EXPECTS(s.size() == k_);
  SETLIB_EXPECTS(s.subset_of(ProcSet::universe(n_)));
  // Combinatorial number system: rank = sum over elements c_1<...<c_k of
  // C(c_i, i).
  std::int64_t r = 0;
  int i = 1;
  for (Pid p : s.to_vector()) {
    r += choose_[p][i];
    ++i;
  }
  return r;
}

ProcSet SubsetRanker::unrank(std::int64_t r) const {
  SETLIB_EXPECTS(r >= 0 && r < count_);
  ProcSet s;
  std::int64_t rem = r;
  for (int i = k_; i >= 1; --i) {
    // Largest c with C(c, i) <= rem.
    int c = i - 1;
    while (c + 1 <= n_ - 1 && choose_[c + 1][i] <= rem) ++c;
    s = s.with(c);
    rem -= choose_[c][i];
  }
  SETLIB_ENSURES(s.size() == k_);
  return s;
}

}  // namespace setlib
