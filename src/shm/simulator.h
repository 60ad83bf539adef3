// The deterministic step-driven simulator.
//
// Pulls pids from a ScheduleGenerator and executes one step of the
// corresponding ProcessRuntime per pull, recording the *executed*
// schedule (which experiments cross-check with the timeliness analyzer —
// the executed schedule, not the generator's intent, is what Definition
// 1 is evaluated on). Crashed processes take no further steps; pulls
// that land on a crashed process are skipped without being recorded.
//
// Step-loop cadences (part of the determinism contract: reactive
// adversaries read the ObservationFeed, so moving any of these would
// change their schedules):
//   - the stop predicate runs after every check_every-th executed step;
//   - the crash source is polled before every pull;
//   - a plan crash happens before the first step at or after its crash
//     step.
// The loop itself does no heap allocation and no integer division per
// step: the stop check counts down, and the crash plan is scanned only
// when the executed step count reaches its next pending crash step.
//
// Length plan: a caller that knows the run's final length up front (a
// full-budget cell) calls plan_length(steps) before the first step. The
// executed schedule is then reserved once instead of regrowing, and
// every executed step is folded into a sched::ScheduleHasher seeded
// with that length, so executed_hash() needs no post-run pass. The plan
// is bit-identity-neutral: it changes no step, and when the final
// length differs from it (the stop predicate fired, every process
// crashed, step_once added steps) executed_hash() falls back to the
// post-run schedule_hash(executed()). Either way executed_hash() equals
// schedule_hash(executed()).
#ifndef SETLIB_SHM_SIMULATOR_H
#define SETLIB_SHM_SIMULATOR_H

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "src/sched/generator.h"
#include "src/sched/generators.h"
#include "src/sched/observations.h"
#include "src/sched/schedule.h"
#include "src/shm/memory.h"
#include "src/shm/process.h"
#include "src/util/assert.h"
#include "src/util/procset.h"

namespace setlib::shm {

class Simulator {
 public:
  /// The memory is concrete: the step loop reads and writes SimMemory's
  /// inline register access directly (process.h's step template).
  Simulator(SimMemory& mem, int n);

  int n() const noexcept { return n_; }
  ProcessRuntime& process(Pid p);

  /// Mark p crashed from now on (takes no further steps).
  void crash(Pid p);
  bool crashed(Pid p) const;
  ProcSet crashed_set() const noexcept { return crashed_; }

  /// Apply a CrashPlan: processes crash when the executed step count
  /// reaches their crash step (checked as the run proceeds).
  void use_crash_plan(const sched::CrashPlan& plan);

  /// Mirror an adversary's crash decisions (ReactiveGenerator::
  /// crashes_requested): the source is polled once per pull, and any
  /// newly requested process is crashed before the next step executes,
  /// so the validator's faulty accounting matches the adversary's
  /// budget spending.
  void use_crash_source(std::function<ProcSet()> source);

  /// Publish every executed step (and every crash) into `feed`, the
  /// read-only view reactive adversaries consume. The feed must
  /// outlive the simulator; pass nullptr to detach. Publication is
  /// part of the deterministic step loop — no wall-clock, no thread
  /// state — so the ObservationFeed determinism contract holds.
  void publish_observations(sched::ObservationFeed* feed);

  /// Execute exactly one step of process p (test hook).
  void step_once(Pid p);

  /// Run `steps` scheduled steps. Returns the number actually executed
  /// (= steps unless every process crashed/halted and pulls were
  /// exhausted).
  std::int64_t run(sched::ScheduleGenerator& gen, std::int64_t steps);

  /// Run until stop() returns true (checked every `check_every` steps)
  /// or max_steps executed. Returns executed steps. `stop` is any
  /// callable returning bool; it is invoked in place, never stored.
  template <typename Stop>
  std::int64_t run_until(sched::ScheduleGenerator& gen,
                         std::int64_t max_steps, Stop&& stop,
                         std::int64_t check_every = 64);

  /// Declare that the run will execute `steps` steps in total. Must be
  /// called before the first step; see the length plan above.
  void plan_length(std::int64_t steps);

  const sched::Schedule& executed() const noexcept { return executed_; }
  std::int64_t steps_taken() const noexcept { return executed_.size(); }

  /// schedule_hash(executed()): the folded value when the run kept its
  /// length plan, the post-run pass otherwise.
  std::uint64_t executed_hash() const noexcept;

 private:
  /// Crash every live process whose plan step has been reached, then
  /// re-arm next_plan_crash_ at the plan's next crash step.
  void crash_per_plan();
  void crash_per_plan_if_due() {
    if (steps_taken() >= next_plan_crash_) crash_per_plan();
  }
  void crash_per_source();
  bool execute(Pid p);

  SimMemory& mem_;
  int n_;
  std::vector<ProcessRuntime> procs_;
  ProcSet crashed_;
  sched::Schedule executed_;
  ProcSet everyone_;
  sched::CrashPlan plan_;
  /// The plan's first crash step after the last scan (kNever when
  /// none): no plan crash is due before it.
  std::int64_t next_plan_crash_ = sched::CrashPlan::kNever;
  std::function<ProcSet()> crash_source_;
  sched::ObservationFeed* feed_ = nullptr;
  /// Set by plan_length: the planned length and the hash of the steps
  /// executed so far, seeded with it.
  std::int64_t planned_steps_ = 0;
  std::optional<sched::ScheduleHasher> hasher_;
};

template <typename Stop>
std::int64_t Simulator::run_until(sched::ScheduleGenerator& gen,
                                  std::int64_t max_steps, Stop&& stop,
                                  std::int64_t check_every) {
  SETLIB_EXPECTS(gen.n() == n_);
  SETLIB_EXPECTS(max_steps >= 0);
  SETLIB_EXPECTS(check_every >= 1);
  std::int64_t executed = 0;
  std::int64_t until_check = check_every;
  // A pull landing on a crashed process is skipped without executing;
  // cap total pulls so a generator that only schedules crashed pids
  // cannot livelock the run.
  std::int64_t pulls = 0;
  const std::int64_t max_pulls = 16 * max_steps + 1024;
  while (executed < max_steps && pulls < max_pulls) {
    crash_per_plan_if_due();
    if (crash_source_) crash_per_source();
    if (crashed_ == everyone_) break;
    const Pid p = gen.next();
    ++pulls;
    if (!execute(p)) continue;
    ++executed;
    if (--until_check == 0) {
      until_check = check_every;
      if (stop()) break;
    }
  }
  return executed;
}

}  // namespace setlib::shm

#endif  // SETLIB_SHM_SIMULATOR_H
