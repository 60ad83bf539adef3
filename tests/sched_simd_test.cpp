// The SIMD kernel layer's bit-identity contract (src/sched/simd.h):
// every kernel table — AVX2/NEON when the host has them, the portable
// scalar fallback always — must produce identical bits for or_into,
// identical WalkState for completed window walks, and identical prune
// outcomes. Pinned three ways: direct kernel differentials over random
// word arrays (vector tails and chunk boundaries included), a
// 1000-schedule randomized differential of the packed bound paths
// against min_timeliness_bound_reference over random [from, to)
// windows, and whole-scan equality of RankedPairScan under the active
// vs forced-scalar tables (the in-process form of the CI job that
// reruns the suite with SETLIB_FORCE_SCALAR=1).
#include "src/sched/simd.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "src/sched/analyzer.h"
#include "src/sched/generators.h"
#include "src/sched/schedule.h"
#include "src/util/arena.h"
#include "src/util/rng.h"

namespace setlib::sched {
namespace {

/// Pins the scalar table for a scope; restores the dispatched default
/// on exit.
class ForceScalarGuard {
 public:
  ForceScalarGuard() {
    simd::set_kernels_for_testing(&simd::scalar_kernels());
  }
  ~ForceScalarGuard() { simd::set_kernels_for_testing(nullptr); }
  ForceScalarGuard(const ForceScalarGuard&) = delete;
  ForceScalarGuard& operator=(const ForceScalarGuard&) = delete;
};

std::vector<std::uint64_t> random_words(Rng& rng, std::int64_t count,
                                        int p_density_shift) {
  // AND-ing k draws thins the bit density by 2^-k: window walks behave
  // very differently on sparse vs dense P words, so both get coverage.
  std::vector<std::uint64_t> out(static_cast<std::size_t>(count));
  for (auto& w : out) {
    w = std::numeric_limits<std::uint64_t>::max();
    for (int k = 0; k <= p_density_shift; ++k) w &= rng.next_u64();
  }
  return out;
}

TEST(SimdKernelTest, OrIntoMatchesScalarOnAllLengths) {
  const simd::Kernels& active = simd::active_kernels();
  const simd::Kernels& scalar = simd::scalar_kernels();
  Rng rng(2024);
  // Lengths straddle every vector width and tail shape.
  for (const std::int64_t words :
       {std::int64_t{1}, std::int64_t{2}, std::int64_t{3}, std::int64_t{4},
        std::int64_t{5}, std::int64_t{7}, std::int64_t{8}, std::int64_t{63},
        std::int64_t{64}, std::int64_t{65}, std::int64_t{130}}) {
    const auto src = random_words(rng, words, 0);
    auto a = random_words(rng, words, 0);
    auto b = a;
    active.or_into(a.data(), src.data(), words);
    scalar.or_into(b.data(), src.data(), words);
    EXPECT_EQ(a, b) << active.name << " vs scalar, words=" << words;
  }
}

TEST(SimdKernelTest, WindowWalkMatchesScalarBitForBit) {
  const simd::Kernels& active = simd::active_kernels();
  const simd::Kernels& scalar = simd::scalar_kernels();
  Rng rng(4096);
  for (int trial = 0; trial < 500; ++trial) {
    const std::int64_t words = 1 + static_cast<std::int64_t>(
                                       rng.next_in(0, 129));
    // Sparse P-words are the all-zero fast path's home turf; dense
    // ones exercise the per-word split loop.
    const int density = static_cast<int>(rng.next_in(0, 6));
    const auto p = random_words(rng, words, density);
    const auto q = random_words(rng, words, 1);
    simd::WalkState sa;
    simd::WalkState sb;
    const std::int64_t no_prune = std::numeric_limits<std::int64_t>::max();
    const bool pa =
        active.window_walk(p.data(), q.data(), words, no_prune, &sa);
    const bool pb =
        scalar.window_walk(p.data(), q.data(), words, no_prune, &sb);
    EXPECT_FALSE(pa);
    EXPECT_FALSE(pb);
    EXPECT_EQ(sa.max_q, sb.max_q) << "trial " << trial;
    EXPECT_EQ(sa.current, sb.current) << "trial " << trial;
  }
}

TEST(SimdKernelTest, PruneOutcomeIsImplementationIndependent) {
  // max_q is monotone, so whether a walk ever reaches prune_q is a
  // property of the input, not of the check granularity: the pruned
  // flag must agree even though a pruned walk's state is unspecified.
  const simd::Kernels& active = simd::active_kernels();
  const simd::Kernels& scalar = simd::scalar_kernels();
  Rng rng(777);
  for (int trial = 0; trial < 300; ++trial) {
    const std::int64_t words =
        1 + static_cast<std::int64_t>(rng.next_in(0, 100));
    const auto p = random_words(rng, words, 3);
    const auto q = random_words(rng, words, 1);
    const std::int64_t prune_q =
        static_cast<std::int64_t>(rng.next_in(1, 200));
    simd::WalkState sa;
    simd::WalkState sb;
    const bool pa =
        active.window_walk(p.data(), q.data(), words, prune_q, &sa);
    const bool pb =
        scalar.window_walk(p.data(), q.data(), words, prune_q, &sb);
    EXPECT_EQ(pa, pb) << "trial " << trial << " prune_q=" << prune_q;
    if (!pa) {
      EXPECT_EQ(sa.max_q, sb.max_q);
      EXPECT_EQ(sa.current, sb.current);
    }
  }
}

TEST(SimdKernelTest, KernelEntryPointsAreCacheLineAligned) {
  // CMakeLists.txt compiles simd.cpp with -falign-functions=64, so the
  // kernels' code placement does not move with unrelated changes to
  // the rest of the library.
  for (const simd::Kernels* k :
       {&simd::scalar_kernels(), &simd::active_kernels()}) {
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(k->or_into) % 64, 0u)
        << k->name << " or_into";
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(k->window_walk) % 64, 0u)
        << k->name << " window_walk";
  }
}

TEST(SimdDifferentialTest, ThousandRandomSchedulesMatchTheReference) {
  // The randomized differential: packed bound == reference bound on
  // 1000 random (schedule, P, Q, [from, to)) instances, under the
  // active table AND the forced-scalar table.
  Rng rng(20260808);
  for (int trial = 0; trial < 1000; ++trial) {
    const int n = 2 + static_cast<int>(rng.next_in(0, 4));  // 2..6
    const std::int64_t len =
        1 + static_cast<std::int64_t>(rng.next_in(0, 1999));
    UniformRandomGenerator gen(n, rng.next_u64());
    const Schedule s = generate(gen, len);
    const ProcSet p(rng.next_in(1, (1u << n) - 1));
    const ProcSet q(rng.next_in(1, (1u << n) - 1));
    const std::int64_t from =
        static_cast<std::int64_t>(rng.next_in(0, static_cast<std::uint64_t>(len)));
    const std::int64_t to =
        from + static_cast<std::int64_t>(
                   rng.next_in(0, static_cast<std::uint64_t>(len - from)));
    const std::int64_t reference =
        min_timeliness_bound_reference(s, p, q, from, to);
    EXPECT_EQ(min_timeliness_bound(s, p, q, from, to), reference)
        << "trial " << trial;
    const ForceScalarGuard force_scalar;
    EXPECT_EQ(min_timeliness_bound(s, p, q, from, to), reference)
        << "trial " << trial << " (forced scalar)";
  }
}

/// Reference best bound: the executable-spec analyzer over every
/// (|P| = i, |Q| = j) pair, mirroring RankedPairScan's pair space.
std::int64_t reference_best_bound(const Schedule& s, int i, int j) {
  std::int64_t best = std::numeric_limits<std::int64_t>::max();
  for (const ProcSet p : k_subsets(s.n(), i)) {
    for (const ProcSet q : k_subsets(s.n(), j)) {
      best = std::min(best, min_timeliness_bound_reference(s, p, q));
    }
  }
  return best;
}

TEST(SimdDifferentialTest, RankedScanAgreesAcrossTablesAndReference) {
  Rng rng(99);
  for (int trial = 0; trial < 40; ++trial) {
    const int n = 3 + static_cast<int>(rng.next_in(0, 2));  // 3..5
    const std::int64_t len =
        64 + static_cast<std::int64_t>(rng.next_in(0, 4999));
    const int i = 1 + static_cast<int>(rng.next_in(0, static_cast<std::uint64_t>(n - 2)));
    const int j =
        i + 1 + static_cast<int>(rng.next_in(0, static_cast<std::uint64_t>(n - i - 1)));
    UniformRandomGenerator gen(n, rng.next_u64());
    const Schedule s = generate(gen, len);
    const PackedSchedule packed(s);

    const TimelyPair vec = RankedPairScan(packed, i, j).best_pair();
    TimelyPair sca;
    {
      const ForceScalarGuard force_scalar;
      sca = RankedPairScan(packed, i, j).best_pair();
    }
    EXPECT_EQ(vec.bound, sca.bound) << "trial " << trial;
    EXPECT_EQ(vec.timely_set.mask(), sca.timely_set.mask());
    EXPECT_EQ(vec.observed_set.mask(), sca.observed_set.mask());
    EXPECT_EQ(vec.bound, reference_best_bound(s, i, j))
        << "trial " << trial;
    EXPECT_EQ(min_timeliness_bound_reference(s, vec.timely_set,
                                             vec.observed_set),
              vec.bound);
  }
}

TEST(SimdDifferentialTest, ArenaBackedScanMatchesHeapBackedScan) {
  Rng rng(5150);
  util::ArenaAllocator arena;
  for (int trial = 0; trial < 25; ++trial) {
    const int n = 4;
    const std::int64_t len =
        64 + static_cast<std::int64_t>(rng.next_in(0, 9999));
    UniformRandomGenerator gen(n, rng.next_u64());
    const Schedule s = generate(gen, len);
    const util::FrameScope frame(arena);
    const PackedSchedule packed(s, arena);
    const PackedSchedule heap_packed(s);
    const std::int64_t cap = 1 + static_cast<std::int64_t>(rng.next_in(0, 6));
    const auto with_arena =
        RankedPairScan(packed, 2, 3, &arena).count_members(cap);
    const auto on_heap = RankedPairScan(heap_packed, 2, 3).count_members(cap);
    EXPECT_EQ(with_arena.pairs, on_heap.pairs) << "trial " << trial;
    EXPECT_EQ(with_arena.members, on_heap.members) << "trial " << trial;
    EXPECT_EQ(with_arena.first.has_value(), on_heap.first.has_value());
    if (with_arena.first && on_heap.first) {
      EXPECT_EQ(with_arena.first->bound, on_heap.first->bound);
      EXPECT_EQ(with_arena.first->timely_set.mask(),
                on_heap.first->timely_set.mask());
    }
  }
}

TEST(SimdDifferentialTest, RepackMatchesFreshPack) {
  Rng rng(31337);
  PackedSchedule scratch;
  for (int trial = 0; trial < 20; ++trial) {
    const int n = 2 + static_cast<int>(rng.next_in(0, 4));
    const std::int64_t len =
        1 + static_cast<std::int64_t>(rng.next_in(0, 2999));
    UniformRandomGenerator gen(n, rng.next_u64());
    const Schedule s = generate(gen, len);
    scratch.repack(s);  // recycled storage, shrinking and growing
    const PackedSchedule fresh(s);
    ASSERT_EQ(scratch.n(), fresh.n());
    ASSERT_EQ(scratch.size(), fresh.size());
    ASSERT_EQ(scratch.words(), fresh.words());
    for (Pid p = 0; p < n; ++p) {
      for (std::int64_t w = 0; w < fresh.words(); ++w) {
        ASSERT_EQ(scratch.column(p)[w], fresh.column(p)[w])
            << "trial " << trial << " p=" << p << " w=" << w;
      }
    }
  }
}

TEST(SimdDifferentialTest, LargeNCensusSmoke) {
  // n = 28 membership census: C(28,2) * C(28,27) = 10584 pairs over a
  // packed prefix — the large-n shape the fig2 bench sweeps, kept
  // small here. Active and forced-scalar tables must agree exactly.
  const int n = 28;
  UniformRandomGenerator gen(n, 11);
  const Schedule s = generate(gen, 4096);
  const PackedSchedule packed(s);
  const RankedPairScan scan(packed, 2, n - 1);
  ASSERT_EQ(scan.p_count(), 378);
  ASSERT_EQ(scan.q_count(), 28);
  const auto vec = scan.count_members(3);
  EXPECT_EQ(vec.pairs, 378 * 28);
  const ForceScalarGuard force_scalar;
  const auto sca = scan.count_members(3);
  EXPECT_EQ(vec.pairs, sca.pairs);
  EXPECT_EQ(vec.members, sca.members);
}

}  // namespace
}  // namespace setlib::sched
