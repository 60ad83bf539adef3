#include "src/sched/schedule.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/util/assert.h"
#include "src/util/rng.h"

namespace setlib::sched {
namespace {

TEST(ScheduleTest, AppendAndIndex) {
  Schedule s(3);
  EXPECT_TRUE(s.empty());
  s.append(0);
  s.append(2);
  s.append(1);
  EXPECT_EQ(s.size(), 3);
  EXPECT_EQ(s[0], 0);
  EXPECT_EQ(s[1], 2);
  EXPECT_EQ(s[2], 1);
}

TEST(ScheduleTest, RejectsOutOfRangePids) {
  Schedule s(2);
  EXPECT_THROW(s.append(2), ContractViolation);
  EXPECT_THROW(s.append(-1), ContractViolation);
  EXPECT_THROW((Schedule(2, {0, 1, 2})), ContractViolation);
}

TEST(ScheduleTest, CountsPerProcessAndSet) {
  const Schedule s(3, {0, 1, 0, 2, 0, 1});
  EXPECT_EQ(s.count(0), 3);
  EXPECT_EQ(s.count(1), 2);
  EXPECT_EQ(s.count(2), 1);
  EXPECT_EQ(s.count(0, 1, 4), 1);  // window [1,4) = 1,0,2
  EXPECT_EQ(s.count_set(ProcSet::of({0, 2})), 4);
  EXPECT_EQ(s.count_set(ProcSet::of({1, 2}), 0, 3), 1);
}

TEST(ScheduleTest, AppearingFrom) {
  const Schedule s(4, {0, 1, 2, 1, 1});
  EXPECT_EQ(s.appearing(), ProcSet::of({0, 1, 2}));
  EXPECT_EQ(s.appearing_from(3), ProcSet::of({1}));
  EXPECT_EQ(s.appearing_from(5), ProcSet());
}

TEST(ScheduleTest, ConcatPreservesOrder) {
  const Schedule a(2, {0, 1});
  const Schedule b(2, {1, 1});
  const Schedule c = a.concat(b);
  ASSERT_EQ(c.size(), 4);
  EXPECT_EQ(c[0], 0);
  EXPECT_EQ(c[3], 1);
}

TEST(ScheduleTest, HashIsStableAndOrderSensitive) {
  const Schedule s(3, {0, 1, 2});
  EXPECT_EQ(schedule_hash(s), schedule_hash(Schedule(3, {0, 1, 2})));
  // Same multiset of pids, different order: the chain must diverge, or
  // equal hashes would no longer mean bit-identical executions.
  EXPECT_NE(schedule_hash(s), schedule_hash(Schedule(3, {2, 1, 0})));
  EXPECT_NE(schedule_hash(s), schedule_hash(Schedule(3, {1, 0, 2})));
  // n and length are folded in too.
  EXPECT_NE(schedule_hash(s), schedule_hash(Schedule(4, {0, 1, 2})));
  EXPECT_NE(schedule_hash(s), schedule_hash(Schedule(3, {0, 1, 2, 2})));
  EXPECT_NE(schedule_hash(Schedule(2)), schedule_hash(Schedule(3)));
}

/// The replay hash chain written out step by step, independently of
/// ScheduleHasher: seed, n, length, then pid + 1 per step, each folded
/// through splitmix64.
std::uint64_t reference_chain(int n, const std::vector<Pid>& steps) {
  std::uint64_t state = 0x5e741a11u;
  state += static_cast<std::uint64_t>(n);
  state = splitmix64(state);
  state += static_cast<std::uint64_t>(steps.size());
  state = splitmix64(state);
  for (Pid p : steps) {
    state += static_cast<std::uint64_t>(p) + 1;
    state = splitmix64(state);
  }
  return state;
}

TEST(ScheduleHasherTest, FoldingStepByStepEqualsScheduleHash) {
  Rng rng(20260419);
  for (int n = 1; n <= kMaxProcs; ++n) {
    for (const std::int64_t length :
         {std::int64_t{0}, std::int64_t{1}, std::int64_t{2000},
          static_cast<std::int64_t>(rng.next_below(2001))}) {
      Schedule s(n);
      ScheduleHasher hasher(n, length);
      for (std::int64_t t = 0; t < length; ++t) {
        const auto p = static_cast<Pid>(
            rng.next_below(static_cast<std::uint64_t>(n)));
        s.append(p);
        hasher.fold(p);
      }
      EXPECT_EQ(hasher.value(), schedule_hash(s))
          << "n=" << n << " length=" << length;
      EXPECT_EQ(schedule_hash(s), reference_chain(n, s.steps()))
          << "n=" << n << " length=" << length;
    }
  }
}

TEST(ScheduleHasherTest, SeededLengthIsPartOfTheHash) {
  // A hasher seeded with the wrong length gives a different value for
  // the same steps: the length plan cannot be guessed after the fact.
  ScheduleHasher planned(3, 4);
  ScheduleHasher short_plan(3, 3);
  for (Pid p : {0, 1, 2, 0}) {
    planned.fold(p);
    short_plan.fold(p);
  }
  EXPECT_EQ(planned.value(), schedule_hash(Schedule(3, {0, 1, 2, 0})));
  EXPECT_NE(short_plan.value(), planned.value());
}

TEST(ScheduleTest, ReserveKeepsContentsAndRejectsNegative) {
  Schedule s(2, {1, 0});
  s.reserve(1000);
  s.append(1);
  EXPECT_EQ(s.steps(), (std::vector<Pid>{1, 0, 1}));
  EXPECT_THROW(s.reserve(-1), ContractViolation);
}

TEST(ScheduleTest, SliceIsHalfOpen) {
  const Schedule s(3, {0, 1, 2, 0, 1});
  const Schedule mid = s.slice(1, 4);
  ASSERT_EQ(mid.size(), 3);
  EXPECT_EQ(mid[0], 1);
  EXPECT_EQ(mid[2], 0);
  EXPECT_EQ(s.slice(2, 2).size(), 0);
  EXPECT_THROW(s.slice(3, 2), ContractViolation);
}

}  // namespace
}  // namespace setlib::sched
