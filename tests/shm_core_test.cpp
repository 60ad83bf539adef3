// Unit tests for the shared-memory substrate: values, memory, coroutine
// programs, process runtimes, and the simulator.
#include <gtest/gtest.h>

#include <functional>
#include <utility>
#include <vector>

#include "src/sched/generators.h"
#include "src/shm/memory.h"
#include "src/shm/process.h"
#include "src/shm/program.h"
#include "src/shm/simulator.h"
#include "src/util/assert.h"

namespace setlib::shm {
namespace {

TEST(ValueTest, NilAndFields) {
  const Value nil;
  EXPECT_TRUE(nil.is_nil());
  EXPECT_EQ(nil.as_int_or(-7), -7);
  EXPECT_EQ(nil.at_or(3, 9), 9);

  const Value v = Value::of(1, 2, 3);
  EXPECT_FALSE(v.is_nil());
  EXPECT_EQ(v.size(), 3u);
  EXPECT_EQ(v.at(0), 1);
  EXPECT_EQ(v.at(2), 3);
  EXPECT_EQ(v.at_or(5, -1), -1);
  EXPECT_THROW(v.at(3), ContractViolation);
}

TEST(ValueTest, EqualityAndPrinting) {
  EXPECT_EQ(Value::of(4), Value{4});
  EXPECT_NE(Value::of(4), Value::of(4, 0));
  EXPECT_EQ(Value().to_string(), "_|_");
  EXPECT_EQ(Value::of(1, 2).to_string(), "(1,2)");
}

TEST(SimMemoryTest, AllocReadWrite) {
  SimMemory mem;
  const RegisterId r = mem.alloc("r");
  EXPECT_EQ(mem.register_count(), 1);
  EXPECT_EQ(mem.name(r), "r");
  EXPECT_TRUE(mem.read(r).is_nil());
  mem.write(r, Value::of(5));
  EXPECT_EQ(mem.read(r).as_int_or(0), 5);
  EXPECT_EQ(mem.read_count(), 2);
  EXPECT_EQ(mem.write_count(), 1);
  EXPECT_EQ(mem.peek(r), Value::of(5));  // peek does not count
  EXPECT_EQ(mem.read_count(), 2);
}

TEST(SimMemoryTest, AllocArrayContiguous) {
  SimMemory mem;
  mem.alloc("pad");
  const RegisterId base = mem.alloc_array("arr", 4);
  EXPECT_EQ(mem.register_count(), 5);
  EXPECT_EQ(mem.name(base), "arr[0]");
  EXPECT_EQ(mem.name(base + 3), "arr[3]");
  EXPECT_THROW(mem.read(99), ContractViolation);
}

// A tiny program: write x, read it back into *out, write x+1.
Prog write_read_write(RegisterId reg, std::int64_t x, std::int64_t* out) {
  co_await write(reg, Value::of(x));
  const Value v = co_await read(reg);
  *out = v.as_int_or(-1);
  co_await write(reg, Value::of(x + 1));
}

TEST(ProgramTest, OneOpPerStep) {
  SimMemory mem;
  const RegisterId r = mem.alloc("r");
  std::int64_t out = 0;
  ProcessRuntime proc(0);
  proc.add_task(write_read_write(r, 10, &out), "wrw");

  EXPECT_FALSE(proc.halted());
  EXPECT_TRUE(proc.step(mem));  // write 10
  EXPECT_EQ(mem.peek(r), Value::of(10));
  EXPECT_EQ(out, 0);
  EXPECT_TRUE(proc.step(mem));  // read
  EXPECT_EQ(out, 10);
  EXPECT_TRUE(proc.step(mem));  // write 11
  EXPECT_EQ(mem.peek(r), Value::of(11));
  EXPECT_TRUE(proc.halted());
  EXPECT_FALSE(proc.step(mem));  // halted: no-op step
  EXPECT_EQ(proc.ops_executed(), 3);
}

Prog thrower(RegisterId reg) {
  co_await write(reg, Value::of(1));
  throw std::runtime_error("program bug");
}

TEST(ProgramTest, ExceptionsPropagateToDriver) {
  SimMemory mem;
  const RegisterId r = mem.alloc("r");
  ProcessRuntime proc(0);
  proc.add_task(thrower(r), "thrower");
  // The first step executes the write and resumes into the throw; the
  // exception must surface at the driver, not be swallowed.
  EXPECT_THROW(
      {
        for (int i = 0; i < 3; ++i) proc.step(mem);
      },
      std::runtime_error);
  EXPECT_EQ(mem.peek(r), Value::of(1));  // the write did happen
}

Prog incrementer(RegisterId reg, int times) {
  for (int idx = 0; idx < times; ++idx) {
    const Value v = co_await read(reg);
    co_await write(reg, Value::of(v.as_int_or(0) + 1));
  }
}

TEST(ProcessRuntimeTest, RoundRobinAcrossTasks) {
  SimMemory mem;
  const RegisterId a = mem.alloc("a");
  const RegisterId b = mem.alloc("b");
  ProcessRuntime proc(0);
  proc.add_task(incrementer(a, 2), "inc-a");
  proc.add_task(incrementer(b, 2), "inc-b");
  // 8 ops total, alternating between the two tasks.
  for (int idx = 0; idx < 8; ++idx) EXPECT_TRUE(proc.step(mem));
  EXPECT_TRUE(proc.halted());
  EXPECT_EQ(mem.peek(a), Value::of(2));
  EXPECT_EQ(mem.peek(b), Value::of(2));
}

TEST(ProcessRuntimeTest, FinishedTaskSkipped) {
  SimMemory mem;
  const RegisterId a = mem.alloc("a");
  const RegisterId b = mem.alloc("b");
  ProcessRuntime proc(0);
  proc.add_task(incrementer(a, 1), "short");
  proc.add_task(incrementer(b, 3), "long");
  for (int idx = 0; idx < 8; ++idx) proc.step(mem);
  EXPECT_EQ(mem.peek(a), Value::of(1));
  EXPECT_EQ(mem.peek(b), Value::of(3));
}

TEST(SubProgramPumpTest, ForwardsChildOps) {
  SimMemory mem;
  const RegisterId r = mem.alloc("r");
  std::int64_t seen = -1;
  auto parent = [](RegisterId reg, std::int64_t* out) -> Prog {
    co_await write(reg, Value::of(7));
    SETLIB_CO_RUN(incrementer(reg, 2));
    const Value v = co_await read(reg);
    *out = v.as_int_or(0);
  };
  ProcessRuntime proc(0);
  proc.add_task(parent(r, &seen), "parent");
  // Ops: write + (read+write)*2 + read = 6.
  int ops = 0;
  while (!proc.halted() && ops < 20) {
    proc.step(mem);
    ++ops;
  }
  EXPECT_EQ(ops, 6);
  EXPECT_EQ(seen, 9);
}

TEST(SimulatorTest, RecordsExecutedSchedule) {
  SimMemory mem;
  const RegisterId r = mem.alloc("r");
  Simulator sim(mem, 3);
  for (Pid p = 0; p < 3; ++p) {
    sim.process(p).add_task(incrementer(r, 100), "inc");
  }
  sched::RoundRobinGenerator gen(3);
  EXPECT_EQ(sim.run(gen, 30), 30);
  EXPECT_EQ(sim.executed().size(), 30);
  for (Pid p = 0; p < 3; ++p) EXPECT_EQ(sim.executed().count(p), 10);
}

TEST(SimulatorTest, CrashStopsSteps) {
  SimMemory mem;
  const RegisterId r = mem.alloc("r");
  Simulator sim(mem, 2);
  sim.process(0).add_task(incrementer(r, 1'000), "inc0");
  sim.process(1).add_task(incrementer(r, 1'000), "inc1");
  sim.crash(1);
  sched::RoundRobinGenerator gen(2);
  sim.run(gen, 50);
  EXPECT_EQ(sim.executed().count(1), 0);
  EXPECT_EQ(sim.executed().count(0), 50);
  EXPECT_TRUE(sim.crashed(1));
  EXPECT_EQ(sim.crashed_set(), ProcSet::of({1}));
}

TEST(SimulatorTest, CrashPlanTriggersMidRun) {
  SimMemory mem;
  const RegisterId r = mem.alloc("r");
  Simulator sim(mem, 2);
  sim.process(0).add_task(incrementer(r, 10'000), "inc0");
  sim.process(1).add_task(incrementer(r, 10'000), "inc1");
  sim.use_crash_plan(sched::CrashPlan::at(2, ProcSet::of(1), 20));
  sched::RoundRobinGenerator gen(2);
  sim.run(gen, 100);
  EXPECT_EQ(sim.executed().count(1, 20, sim.executed().size()), 0);
  EXPECT_GT(sim.executed().count(1), 0);
}

TEST(SimulatorTest, RunUntilStops) {
  SimMemory mem;
  const RegisterId r = mem.alloc("r");
  Simulator sim(mem, 2);
  sim.process(0).add_task(incrementer(r, 100'000), "inc");
  sim.process(1).add_task(incrementer(r, 100'000), "inc");
  sched::RoundRobinGenerator gen(2);
  const std::int64_t steps = sim.run_until(
      gen, 1'000'000, [&] { return mem.peek(r).as_int_or(0) >= 50; },
      /*check_every=*/1);
  EXPECT_LT(steps, 200);
  EXPECT_GE(mem.peek(r).as_int_or(0), 50);
}

TEST(SimulatorTest, StepAccountingMatchesMemoryCounters) {
  SimMemory mem;
  const RegisterId r = mem.alloc("r");
  Simulator sim(mem, 2);
  sim.process(0).add_task(incrementer(r, 50), "inc");
  sim.process(1).add_task(incrementer(r, 50), "inc");
  sched::RoundRobinGenerator gen(2);
  sim.run(gen, 120);
  EXPECT_EQ(mem.read_count() + mem.write_count(), 120);
}

// ---------------------------------------------------------------------
// Crash and stop cadences against a per-step reference. The simulator
// scans its crash plan only when the next pending crash step is reached
// and counts down to its stop checks; the reference below re-checks the
// whole plan before every pull and tests executed % check_every, the
// straightforward reading of the cadence contract in simulator.h.

struct CadenceRun {
  std::vector<Pid> steps;
  ProcSet crashed;
  std::vector<std::int64_t> stop_checks;  // executed steps at each check
};

CadenceRun reference_run(const sched::CrashPlan& plan,
                         sched::ScheduleGenerator& gen,
                         std::int64_t max_steps,
                         const std::function<ProcSet()>& source,
                         std::int64_t check_every) {
  CadenceRun out;
  const int n = plan.n();
  std::int64_t pulls = 0;
  while (static_cast<std::int64_t>(out.steps.size()) < max_steps &&
         pulls < 16 * max_steps + 1024) {
    const auto now = static_cast<std::int64_t>(out.steps.size());
    for (Pid p = 0; p < n; ++p) {
      if (plan.crash_step(p) <= now) out.crashed = out.crashed.with(p);
    }
    if (source) out.crashed = out.crashed | source();
    if (out.crashed == ProcSet::universe(n)) break;
    const Pid p = gen.next();
    ++pulls;
    if (out.crashed.contains(p)) continue;
    out.steps.push_back(p);
    if (out.steps.size() % static_cast<std::size_t>(check_every) == 0) {
      out.stop_checks.push_back(static_cast<std::int64_t>(out.steps.size()));
    }
  }
  return out;
}

CadenceRun simulator_run(const sched::CrashPlan& plan,
                         sched::ScheduleGenerator& gen,
                         std::int64_t max_steps,
                         std::function<ProcSet()> source,
                         std::int64_t check_every) {
  SimMemory mem;
  Simulator sim(mem, plan.n());
  sim.use_crash_plan(plan);
  if (source) sim.use_crash_source(std::move(source));
  CadenceRun out;
  sim.run_until(
      gen, max_steps,
      [&] {
        out.stop_checks.push_back(sim.steps_taken());
        return false;
      },
      check_every);
  out.steps = sim.executed().steps();
  out.crashed = sim.crashed_set();
  return out;
}

/// A crash source that requests `who` from its `at`-th poll on; each
/// copy counts its own polls, so the source crashes at a pull, not at
/// a step.
std::function<ProcSet()> crash_after_polls(
    std::vector<std::pair<int, ProcSet>> schedule) {
  return [polls = 0, schedule = std::move(schedule)]() mutable {
    ++polls;
    ProcSet requested;
    for (const auto& [at, who] : schedule) {
      if (polls >= at) requested = requested | who;
    }
    return requested;
  };
}

void expect_same_as_reference(const sched::CrashPlan& plan,
                              std::uint64_t seed, std::int64_t max_steps,
                              const std::function<ProcSet()>& source,
                              std::int64_t check_every) {
  sched::UniformRandomGenerator sim_gen(plan.n(), seed);
  sched::UniformRandomGenerator ref_gen(plan.n(), seed);
  const CadenceRun got =
      simulator_run(plan, sim_gen, max_steps, source, check_every);
  const CadenceRun want =
      reference_run(plan, ref_gen, max_steps, source, check_every);
  EXPECT_EQ(got.steps, want.steps);
  EXPECT_EQ(got.crashed, want.crashed);
  EXPECT_EQ(got.stop_checks, want.stop_checks);
}

TEST(SimulatorCadenceTest, StaggeredPlanCrashesMatchPerStepCheck) {
  sched::CrashPlan plan(6);
  plan.set_crash(0, 0);  // before the very first step
  plan.set_crash(1, 7);
  plan.set_crash(2, 7);  // two crashes due at the same step
  plan.set_crash(3, 31);
  plan.set_crash(4, 32);  // due right after another crash
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    expect_same_as_reference(plan, seed, 300, nullptr, 16);
  }
}

TEST(SimulatorCadenceTest, PlanWithCrashSourceMatchesPerStepCheck) {
  sched::CrashPlan plan(5);
  plan.set_crash(1, 12);
  plan.set_crash(2, 50);
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    // The source asks for 3 at the 40th poll, then for 2 (already due
    // under the plan by then, or not) and 0 at the 45th.
    expect_same_as_reference(
        plan, seed, 400,
        crash_after_polls({{40, ProcSet::of(3)}, {45, ProcSet::of({0, 2})}}),
        8);
  }
}

TEST(SimulatorCadenceTest, EveryoneCrashedEndsRunLikeReference) {
  const sched::CrashPlan plan = sched::CrashPlan::at(3, ProcSet::of({0, 1}), 9);
  expect_same_as_reference(plan, 5, 100,
                           crash_after_polls({{20, ProcSet::of(2)}}), 4);
}

TEST(SimulatorCadenceTest, StepOnceAppliesPlanCrashAtItsStep) {
  SimMemory mem;
  Simulator sim(mem, 3);
  sched::CrashPlan plan(3);
  plan.set_crash(1, 3);
  plan.set_crash(2, 0);
  sim.use_crash_plan(plan);
  for (int i = 0; i < 5; ++i) sim.step_once(1);
  // Steps 0..2 execute; the crash lands before step 3.
  EXPECT_EQ(sim.steps_taken(), 3);
  EXPECT_EQ(sim.crashed_set(), ProcSet::of({1, 2}));
  sim.step_once(0);
  EXPECT_EQ(sim.executed().steps(), (std::vector<Pid>{1, 1, 1, 0}));

  // A plan installed mid-run re-arms the check: a crash step already
  // passed applies before the next step.
  sched::CrashPlan late(3);
  late.set_crash(0, 2);
  sim.use_crash_plan(late);
  sim.step_once(0);
  EXPECT_EQ(sim.steps_taken(), 4);
  EXPECT_TRUE(sim.crashed(0));
}

}  // namespace
}  // namespace setlib::shm
