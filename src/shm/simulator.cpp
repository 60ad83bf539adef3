#include "src/shm/simulator.h"

#include "src/util/assert.h"

namespace setlib::shm {

Simulator::Simulator(SimMemory& mem, int n)
    : mem_(mem),
      n_(n),
      executed_(n),
      everyone_(ProcSet::universe(n)),
      plan_(sched::CrashPlan::none(n)) {
  SETLIB_EXPECTS(n >= 1 && n <= kMaxProcs);
  procs_.reserve(static_cast<std::size_t>(n));
  for (Pid p = 0; p < n; ++p) procs_.emplace_back(p);
}

ProcessRuntime& Simulator::process(Pid p) {
  SETLIB_EXPECTS(p >= 0 && p < n_);
  return procs_[static_cast<std::size_t>(p)];
}

void Simulator::crash(Pid p) {
  SETLIB_EXPECTS(p >= 0 && p < n_);
  crashed_ = crashed_.with(p);
  if (feed_ != nullptr) feed_->record_crash(p);
}

bool Simulator::crashed(Pid p) const {
  SETLIB_EXPECTS(p >= 0 && p < n_);
  return crashed_.contains(p);
}

void Simulator::use_crash_plan(const sched::CrashPlan& plan) {
  SETLIB_EXPECTS(plan.n() == n_);
  plan_ = plan;
  next_plan_crash_ = 0;  // rescan before the next step
}

void Simulator::use_crash_source(std::function<ProcSet()> source) {
  crash_source_ = std::move(source);
}

void Simulator::publish_observations(sched::ObservationFeed* feed) {
  SETLIB_EXPECTS(feed == nullptr || feed->n() == n_);
  feed_ = feed;
}

void Simulator::crash_per_source() {
  const ProcSet requested = crash_source_() - crashed_;
  requested.for_each([this](Pid p) { crash(p); });
}

void Simulator::crash_per_plan() {
  const std::int64_t now = steps_taken();
  for (Pid p = 0; p < n_; ++p) {
    if (!crashed_.contains(p) && plan_.crashed_by(p, now)) crash(p);
  }
  next_plan_crash_ = plan_.next_crash_after(now);
}

bool Simulator::execute(Pid p) {
  SETLIB_EXPECTS(p >= 0 && p < n_);
  if (crashed_.contains(p)) return false;
  procs_[static_cast<std::size_t>(p)].step(mem_);
  executed_.append(p);
  if (hasher_) hasher_->fold(p);
  if (feed_ != nullptr) feed_->record_step(p);
  return true;
}

void Simulator::plan_length(std::int64_t steps) {
  SETLIB_EXPECTS(steps >= 0);
  SETLIB_EXPECTS(steps_taken() == 0);
  executed_.reserve(steps);
  planned_steps_ = steps;
  hasher_.emplace(n_, steps);
}

std::uint64_t Simulator::executed_hash() const noexcept {
  if (hasher_ && steps_taken() == planned_steps_) return hasher_->value();
  return sched::schedule_hash(executed_);
}

void Simulator::step_once(Pid p) {
  crash_per_plan_if_due();
  execute(p);
}

std::int64_t Simulator::run(sched::ScheduleGenerator& gen,
                            std::int64_t steps) {
  return run_until(gen, steps, [] { return false; });
}

}  // namespace setlib::shm
