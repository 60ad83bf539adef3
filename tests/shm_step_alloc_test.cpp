// Heap-allocation accounting for the simulator step loop and for
// shm::Value.
//
// This file is its own test executable, so it can replace the global
// operator new with a counting one. A cell run at 10x the step budget
// must not make more than a small constant number of extra
// allocations: the step loop (Simulator -> ProcessRuntime ->
// SimMemory -> program coroutines, the schedule generators, and the
// detector's stop predicate) makes none per step, and what remains
// grows with log(steps) (vector doublings of the executed schedule)
// or not at all.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <utility>
#include <vector>

#include "src/core/engine.h"
#include "src/core/experiments.h"
#include "src/shm/value.h"
#include "src/util/assert.h"

namespace {

std::atomic<std::int64_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace setlib {
namespace {

using shm::Value;

std::int64_t allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

// ---------------------------------------------------------------------
// Step loop

/// Allocations made by one run_agreement call of `cfg` at `steps`.
std::int64_t cell_allocations(core::RunConfig cfg, std::int64_t steps) {
  cfg.max_steps = steps;
  const std::int64_t before = allocations();
  const core::RunReport report = core::run_agreement(cfg);
  const std::int64_t used = allocations() - before;
  EXPECT_EQ(report.steps_executed, steps);
  EXPECT_TRUE(report.agreement_ok);
  EXPECT_TRUE(report.validity_ok);
  return used;
}

// Log-many growths of the executed schedule and of the analysis
// buffers between 10k and 100k steps, with room to spare; O(steps)
// would be tens of thousands.
constexpr std::int64_t kGrowthSlack = 16;

void expect_flat(const core::RunConfig& cfg) {
  const std::int64_t small = cell_allocations(cfg, 10'000);
  const std::int64_t large = cell_allocations(cfg, 100'000);
  EXPECT_LE(large - small, kGrowthSlack)
      << "10k steps: " << small << " allocations, 100k steps: " << large;
}

core::RunConfig cell(core::ScheduleFamily family, core::AgreementSpec spec,
                     int i, int j) {
  core::RunConfig cfg;
  cfg.spec = spec;
  cfg.system = {i, j, spec.n};
  cfg.family = family;
  cfg.seed = 7;
  cfg.run_full_budget = true;
  return cfg;
}

TEST(StepLoopAllocationTest, ObliviousCellIsFlatInSteps) {
  // The kanti-omega+paxos stack under the enforced-random family.
  expect_flat(cell(core::ScheduleFamily::kEnforcedRandom, {2, 1, 4}, 1, 4));
}

TEST(StepLoopAllocationTest, ReactiveCellIsFlatInSteps) {
  // The same stack against the decision-chaser, which re-ranks the
  // alive processes on every pull.
  expect_flat(cell(core::ScheduleFamily::kDecisionChaser, {2, 2, 5}, 2, 3));
}

TEST(StepLoopAllocationTest, BudgetCrasherCellIsFlatInSteps) {
  // Crash source polled on every pull, plus a mid-run crash.
  expect_flat(cell(core::ScheduleFamily::kBudgetCrasher, {2, 2, 5}, 2, 3));
}

/// Allocations made by one detector-only run at `steps`. The window
/// is out of reach, so KAntiOmega::stabilized — the run's stop
/// predicate, checked every 64 steps — polls until the budget ends.
std::int64_t detector_allocations(std::int64_t steps) {
  core::DetectorRunConfig cfg;
  cfg.seed = 7;
  cfg.max_steps = steps;
  cfg.stabilization_window = std::int64_t{1} << 40;
  const std::int64_t before = allocations();
  const core::DetectorRunResult result =
      core::run_detector_convergence(cfg);
  const std::int64_t used = allocations() - before;
  EXPECT_EQ(result.steps, steps);
  EXPECT_FALSE(result.stabilized);
  return used;
}

TEST(StepLoopAllocationTest, DetectorRunStopChecksAreFlatInSteps) {
  const std::int64_t small = detector_allocations(10'000);
  const std::int64_t large = detector_allocations(100'000);
  EXPECT_LE(large - small, kGrowthSlack)
      << "10k steps: " << small << " allocations, 100k steps: " << large;
}

// ---------------------------------------------------------------------
// Value: inline (<= kInlineWords) and spilled (> kInlineWords) storage

Value spilled_value() { return Value{1, 2, 3, 4, 5, 6}; }

TEST(ValueStorageTest, InlineValuesNeverAllocate) {
  const std::int64_t before = allocations();
  Value a = Value::of(1, 2, 3, 4);
  Value b = a;             // copy
  Value c = std::move(b);  // move
  b = c;                   // copy-assign into a moved-from value
  a = Value::of(9);        // shrink
  const Value bottom;
  EXPECT_EQ(allocations() - before, 0);
  EXPECT_EQ(c, Value::of(1, 2, 3, 4));
  EXPECT_EQ(b, c);
  EXPECT_EQ(a.size(), 1u);
  EXPECT_EQ(a.at(0), 9);
  EXPECT_TRUE(bottom.is_nil());
}

TEST(ValueStorageTest, SpilledValuesHoldEveryWord) {
  const Value v = spilled_value();
  EXPECT_EQ(v.size(), 6u);
  for (std::size_t i = 0; i < v.size(); ++i) {
    EXPECT_EQ(v.at(i), static_cast<std::int64_t>(i) + 1);
  }
  EXPECT_EQ(v.at_or(6, -1), -1);
  EXPECT_THROW(v.at(6), ContractViolation);
  EXPECT_EQ(Value(std::vector<std::int64_t>{1, 2, 3, 4, 5, 6}), v);
  EXPECT_EQ(Value(std::vector<std::int64_t>{7, 8}), Value::of(7, 8));
}

TEST(ValueStorageTest, CopyAndMoveAcrossRepresentations) {
  Value spilled = spilled_value();
  Value small = Value::of(5, 6);

  // Copies of a spilled value own their words.
  Value copy = spilled;
  EXPECT_EQ(copy, spilled);
  copy = small;  // spilled -> inline
  EXPECT_EQ(copy, small);
  EXPECT_EQ(spilled, spilled_value());
  copy = spilled;  // inline -> spilled
  EXPECT_EQ(copy, spilled_value());

  // Moving a spilled value steals its heap words without allocating
  // and leaves the source bottom.
  const std::int64_t before = allocations();
  Value moved = std::move(spilled);
  EXPECT_EQ(allocations() - before, 0);
  EXPECT_EQ(moved, spilled_value());
  EXPECT_TRUE(spilled.is_nil());  // NOLINT(bugprone-use-after-move)

  small = std::move(moved);  // move-assign spilled over inline
  EXPECT_EQ(small, spilled_value());
  moved = Value::of(3);  // a moved-from value is reusable
  EXPECT_EQ(moved, Value::of(3));
  small = Value::of(4);  // move-assign inline over spilled
  EXPECT_EQ(small, Value::of(4));

  Value& self = small;
  small = self;  // self-assignment keeps the value
  EXPECT_EQ(small, Value::of(4));
}

TEST(ValueStorageTest, EqualityComparesWordsOnly) {
  EXPECT_EQ(Value::of(1, 2, 3, 4), (Value{1, 2, 3, 4}));
  EXPECT_NE(Value::of(1, 2, 3, 4), (Value{1, 2, 3, 4, 0}));
  EXPECT_NE(Value::of(1, 0), Value::of(1));  // trailing zero counts
  EXPECT_NE(Value::of(0), Value());           // 0 is not bottom
  EXPECT_NE(spilled_value(), (Value{1, 2, 3, 4, 5, 7}));
  EXPECT_EQ(Value(), Value(std::vector<std::int64_t>{}));
}

TEST(ValueStorageTest, BottomReadsAsDefaults) {
  const Value bottom;
  EXPECT_TRUE(bottom.is_nil());
  EXPECT_EQ(bottom.size(), 0u);
  EXPECT_EQ(bottom.at_or(0, 42), 42);
  EXPECT_EQ(bottom.as_int_or(-3), -3);
  EXPECT_THROW(bottom.at(0), ContractViolation);
  EXPECT_TRUE(bottom.words().empty());
}

TEST(ValueStorageTest, PrintsEveryWord) {
  EXPECT_EQ(Value().to_string(), "_|_");
  EXPECT_EQ(Value::of(-1).to_string(), "(-1)");
  EXPECT_EQ(Value::of(1, 2, 3, 4).to_string(), "(1,2,3,4)");
  EXPECT_EQ(spilled_value().to_string(), "(1,2,3,4,5,6)");
}

}  // namespace
}  // namespace setlib
