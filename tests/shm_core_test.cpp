// Unit tests for the shared-memory substrate: values, memory, coroutine
// programs, process runtimes, and the simulator.
#include <gtest/gtest.h>

#include <functional>
#include <utility>
#include <vector>

#include "src/sched/generators.h"
#include "src/sched/schedule.h"
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

// ---------------------------------------------------------------------
// Multi-step read requests: read_words(base, count, out) is `count`
// read steps, one register each, and resumes its program after the
// last.

/// Scans `count` registers from `base` into out, then writes 1 to `done`.
Prog scan_then_mark(RegisterId base, std::int64_t count, std::int64_t* out,
                    RegisterId done) {
  co_await read_words(base, count, out);
  co_await write(done, Value::of(1));
}

TEST(ReadWordsTest, OneReadStepPerRegisterThenResume) {
  SimMemory mem;
  const RegisterId base = mem.alloc_array("x", 3);
  const RegisterId done = mem.alloc("done");
  mem.write(base, Value::of(4));
  mem.write(base + 2, Value::of(6, 9));  // a multi-word register: word 0
  std::vector<std::int64_t> out(3, -7);
  ProcessRuntime proc(0);
  proc.add_task(scan_then_mark(base, 3, out.data(), done), "scan");
  const std::int64_t reads0 = mem.read_count();

  EXPECT_TRUE(proc.step(mem));
  EXPECT_EQ(out, (std::vector<std::int64_t>{4, -7, -7}));
  EXPECT_TRUE(proc.step(mem));  // x[1] is bottom: reads as 0
  EXPECT_EQ(out, (std::vector<std::int64_t>{4, 0, -7}));
  EXPECT_TRUE(mem.peek(done).is_nil());
  EXPECT_EQ(proc.ops_executed(), 2);
  EXPECT_EQ(mem.read_count() - reads0, 2);
  EXPECT_TRUE(proc.step(mem));  // the last read resumes the program
  EXPECT_EQ(out, (std::vector<std::int64_t>{4, 0, 6}));
  EXPECT_TRUE(mem.peek(done).is_nil());
  EXPECT_TRUE(proc.step(mem));
  EXPECT_EQ(mem.peek(done), Value::of(1));
  EXPECT_TRUE(proc.halted());
  EXPECT_EQ(proc.ops_executed(), 4);
  EXPECT_EQ(mem.read_count() - reads0, 3);
}

TEST(ReadWordsTest, WriteBetweenTwoReadsIsSeenByTheLaterReadOnly) {
  SimMemory mem;
  const RegisterId base = mem.alloc_array("x", 3);
  const RegisterId done = mem.alloc("done");
  std::vector<std::int64_t> out(3, -7);
  auto writer = [](RegisterId a, RegisterId b) -> Prog {
    co_await write(a, Value::of(5));
    co_await write(b, Value::of(6));
  };
  Simulator sim(mem, 2);
  sim.process(0).add_task(scan_then_mark(base, 3, out.data(), done), "scan");
  sim.process(1).add_task(writer(base, base + 1), "writer");
  sim.step_once(0);  // reads x[0] = 0
  sim.step_once(1);  // x[0] := 5
  sim.step_once(1);  // x[1] := 6
  sim.step_once(0);  // reads x[1] = 6
  sim.step_once(0);  // reads x[2] = 0
  EXPECT_EQ(out, (std::vector<std::int64_t>{0, 6, 0}));
  EXPECT_EQ(sim.process(0).ops_executed(), 3);
  EXPECT_EQ(mem.read_count(), 3);
}

TEST(ReadWordsTest, RoundRobinWithASecondTaskIsUnchanged) {
  // A scan of x[0..2] next to a task that writes 1, 2, 3, ... into
  // x[2]: the tasks alternate single steps, so the scan's third read
  // (the process's fifth step) sees the sibling's second write.
  SimMemory mem;
  const RegisterId base = mem.alloc_array("x", 3);
  const RegisterId done = mem.alloc("done");
  std::vector<std::int64_t> out(3, -7);
  auto counter = [](RegisterId reg) -> Prog {
    for (std::int64_t v = 1;; ++v) co_await write(reg, Value::of(v));
  };
  ProcessRuntime proc(0);
  proc.add_task(scan_then_mark(base, 3, out.data(), done), "scan");
  proc.add_task(counter(base + 2), "ctr");
  for (int s = 0; s < 5; ++s) proc.step(mem);
  EXPECT_EQ(out, (std::vector<std::int64_t>{0, 0, 2}));
  EXPECT_TRUE(mem.peek(done).is_nil());
  proc.step(mem);  // the sibling's third write
  EXPECT_EQ(mem.peek(base + 2), Value::of(3));
  proc.step(mem);  // the scan task, resumed after its last read, marks
  EXPECT_EQ(mem.peek(done), Value::of(1));
  EXPECT_EQ(proc.ops_executed(), 7);
}

TEST(ReadWordsTest, CrashMidRequestLeavesTheRestUnread) {
  SimMemory mem;
  const RegisterId base = mem.alloc_array("x", 4);
  const RegisterId done = mem.alloc("done");
  for (RegisterId r = base; r < base + 4; ++r) mem.write(r, Value::of(r + 1));
  std::vector<std::int64_t> out(4, -7);
  Simulator sim(mem, 2);
  sim.process(0).add_task(scan_then_mark(base, 4, out.data(), done), "scan");
  const std::int64_t reads0 = mem.read_count();
  sim.step_once(0);
  sim.step_once(0);
  sim.crash(0);
  sim.step_once(0);  // crashed: no step
  EXPECT_EQ(out, (std::vector<std::int64_t>{base + 1, base + 2, -7, -7}));
  EXPECT_EQ(mem.read_count() - reads0, 2);
  EXPECT_EQ(sim.steps_taken(), 2);
  EXPECT_EQ(sim.process(0).ops_executed(), 2);
  EXPECT_TRUE(mem.peek(done).is_nil());
}

TEST(ReadWordsTest, ZeroCountDoesNotSuspend) {
  SimMemory mem;
  const RegisterId done = mem.alloc("done");
  ProcessRuntime proc(0);
  proc.add_task(scan_then_mark(done, 0, nullptr, done), "empty-scan");
  EXPECT_TRUE(proc.step(mem));  // the first step is already the write
  EXPECT_EQ(mem.peek(done), Value::of(1));
  EXPECT_TRUE(proc.halted());
  EXPECT_EQ(proc.ops_executed(), 1);
  EXPECT_EQ(mem.read_count(), 0);
}

TEST(ReadWordsTest, CoRunForwardsEachReadAsOneParentStep) {
  SimMemory mem;
  const RegisterId base = mem.alloc_array("x", 3);
  const RegisterId done = mem.alloc("done");
  for (RegisterId r = base; r < base + 3; ++r) mem.write(r, Value::of(10 + r));
  std::vector<std::int64_t> out(3, -7);
  auto parent = [](RegisterId b, std::int64_t* o, RegisterId d) -> Prog {
    SETLIB_CO_RUN(scan_then_mark(b, 3, o, d));
    co_await write(d, Value::of(2));
  };
  ProcessRuntime proc(0);
  proc.add_task(parent(base, out.data(), done), "parent");
  proc.step(mem);
  EXPECT_EQ(out, (std::vector<std::int64_t>{10 + base, -7, -7}));
  proc.step(mem);
  proc.step(mem);
  EXPECT_EQ(out,
            (std::vector<std::int64_t>{10 + base, 11 + base, 12 + base}));
  EXPECT_TRUE(mem.peek(done).is_nil());
  proc.step(mem);  // the child's write
  EXPECT_EQ(mem.peek(done), Value::of(1));
  proc.step(mem);  // the parent's own write
  EXPECT_EQ(mem.peek(done), Value::of(2));
  EXPECT_TRUE(proc.halted());
  EXPECT_EQ(proc.ops_executed(), 5);
  EXPECT_EQ(mem.read_count(), 3);
}

TEST(ReadWordsTest, RoundRobinPumpForwardsOneReadPerPass) {
  // MultiShotAgreement's forwarding loop: each pass forwards one step
  // of each live child, so two children's scans interleave read by
  // read, and a child resumes only after its last read.
  SimMemory mem;
  const RegisterId xs = mem.alloc_array("x", 2);
  const RegisterId ys = mem.alloc_array("y", 2);
  const RegisterId done_x = mem.alloc("done_x");
  const RegisterId done_y = mem.alloc("done_y");
  auto counter = [](RegisterId reg) -> Prog {
    for (std::int64_t v = 1;; ++v) co_await write(reg, Value::of(v));
  };
  std::vector<std::int64_t> out_x(2, -7);
  std::vector<std::int64_t> out_y(2, -7);
  auto pump = [](std::vector<Prog> kids) -> Prog {
    for (auto& kid : kids) kid.resume();
    for (bool live = true; live;) {
      live = false;
      for (auto& kid : kids) {
        if (kid.done()) continue;
        live = true;
        if (co_await forward(kid.pending())) kid.resume();
      }
    }
  };
  std::vector<Prog> kids;
  kids.push_back(scan_then_mark(xs, 2, out_x.data(), done_x));
  kids.push_back(scan_then_mark(ys, 2, out_y.data(), done_y));
  Simulator sim(mem, 2);
  sim.process(0).add_task(pump(std::move(kids)), "pump");
  // Process 1 bumps y[1] between every two steps of process 0.
  sim.process(1).add_task(counter(ys + 1), "ctr");
  const Pid order[] = {0, 1, 0, 1, 0, 1, 0};
  for (const Pid p : order) sim.step_once(p);
  // Steps of process 0: x[0], y[0], x[1], y[1] (after three bumps).
  EXPECT_EQ(out_x, (std::vector<std::int64_t>{0, 0}));
  EXPECT_EQ(out_y, (std::vector<std::int64_t>{0, 3}));
  EXPECT_TRUE(mem.peek(done_x).is_nil());
  sim.step_once(0);
  sim.step_once(0);
  EXPECT_EQ(mem.peek(done_x), Value::of(1));
  EXPECT_EQ(mem.peek(done_y), Value::of(1));
  EXPECT_TRUE(sim.process(0).halted());
  EXPECT_EQ(sim.process(0).ops_executed(), 6);
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
// Length plan: executed_hash() equals the post-run schedule_hash
// whether the run kept its plan (folded value) or not (fallback pass).

struct HashedRun {
  std::int64_t steps = 0;
  std::uint64_t executed_hash = 0;
  std::uint64_t post_run_hash = 0;
};

/// A 3-process incrementer run of at most `max_steps` pulls from a
/// seeded uniform generator, stopped once `stop_at` steps executed,
/// planned for `plan` steps (negative: unplanned), with `extra` step_once
/// calls on process 0 afterwards.
HashedRun hashed_run(std::int64_t plan, std::int64_t max_steps,
                     std::int64_t stop_at, const sched::CrashPlan& crashes,
                     int extra = 0) {
  SimMemory mem;
  const RegisterId r = mem.alloc("r");
  Simulator sim(mem, 3);
  for (Pid p = 0; p < 3; ++p) {
    sim.process(p).add_task(incrementer(r, 1'000), "inc");
  }
  if (plan >= 0) sim.plan_length(plan);
  sim.use_crash_plan(crashes);
  sched::UniformRandomGenerator gen(3, 11);
  HashedRun out;
  out.steps = sim.run_until(
      gen, max_steps, [&] { return sim.steps_taken() >= stop_at; },
      /*check_every=*/1);
  for (int i = 0; i < extra; ++i) sim.step_once(0);
  out.executed_hash = sim.executed_hash();
  out.post_run_hash = sched::schedule_hash(sim.executed());
  return out;
}

TEST(SimulatorLengthPlanTest, PlannedFullRunFoldsThePostRunHash) {
  const HashedRun planned =
      hashed_run(500, 500, 1'000, sched::CrashPlan::none(3));
  EXPECT_EQ(planned.steps, 500);
  EXPECT_EQ(planned.executed_hash, planned.post_run_hash);
  const HashedRun unplanned =
      hashed_run(-1, 500, 1'000, sched::CrashPlan::none(3));
  EXPECT_EQ(unplanned.executed_hash, planned.executed_hash);
}

TEST(SimulatorLengthPlanTest, PlannedRunStoppedEarlyFallsBack) {
  const HashedRun run = hashed_run(500, 500, 120, sched::CrashPlan::none(3));
  EXPECT_EQ(run.steps, 120);
  EXPECT_EQ(run.executed_hash, run.post_run_hash);
}

TEST(SimulatorLengthPlanTest, EveryoneCrashedBeforeThePlanFallsBack) {
  const HashedRun run = hashed_run(
      500, 500, 1'000, sched::CrashPlan::at(3, ProcSet::universe(3), 77));
  EXPECT_EQ(run.steps, 77);
  EXPECT_EQ(run.executed_hash, run.post_run_hash);
}

TEST(SimulatorLengthPlanTest, UnplannedRunHashesAfterTheRun) {
  const HashedRun run = hashed_run(-1, 300, 1'000, sched::CrashPlan::none(3));
  EXPECT_EQ(run.steps, 300);
  EXPECT_EQ(run.executed_hash, run.post_run_hash);
}

TEST(SimulatorLengthPlanTest, StepsPastThePlanFallBack) {
  const HashedRun run =
      hashed_run(500, 500, 1'000, sched::CrashPlan::none(3), /*extra=*/2);
  EXPECT_EQ(run.steps, 500);
  EXPECT_EQ(run.executed_hash, run.post_run_hash);
}

TEST(SimulatorLengthPlanTest, PlanMustPrecedeTheFirstStep) {
  SimMemory mem;
  Simulator sim(mem, 2);
  EXPECT_THROW(sim.plan_length(-1), ContractViolation);
  sim.step_once(0);
  EXPECT_THROW(sim.plan_length(10), ContractViolation);
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
