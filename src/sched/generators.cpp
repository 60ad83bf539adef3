#include "src/sched/generators.h"

#include <algorithm>

#include "src/util/assert.h"

namespace setlib::sched {

Schedule generate(ScheduleGenerator& gen, std::int64_t steps) {
  SETLIB_EXPECTS(steps >= 0);
  Schedule s(gen.n());
  for (std::int64_t i = 0; i < steps; ++i) s.append(gen.next());
  return s;
}

RoundRobinGenerator::RoundRobinGenerator(int n) : n_(n) {
  SETLIB_EXPECTS(n >= 1 && n <= kMaxProcs);
}

Pid RoundRobinGenerator::next() {
  const Pid p = next_;
  if (++next_ == n_) next_ = 0;
  return p;
}

UniformRandomGenerator::UniformRandomGenerator(int n, std::uint64_t seed)
    : n_(n), rng_(seed) {
  SETLIB_EXPECTS(n >= 1 && n <= kMaxProcs);
  threshold_ = Rng::below_threshold(static_cast<std::uint64_t>(n));
}

Pid UniformRandomGenerator::next() {
  return static_cast<Pid>(
      rng_.next_below(static_cast<std::uint64_t>(n_), threshold_));
}

WeightedRandomGenerator::WeightedRandomGenerator(std::vector<double> weights,
                                                 std::uint64_t seed)
    : weights_(std::move(weights)), rng_(seed) {
  SETLIB_EXPECTS(!weights_.empty() &&
                 weights_.size() <= static_cast<std::size_t>(kMaxProcs));
}

Pid WeightedRandomGenerator::next() {
  return static_cast<Pid>(rng_.next_weighted(weights_));
}

Figure1Generator::Figure1Generator(int n, Pid p1, Pid p2, Pid q)
    : n_(n), p1_(p1), p2_(p2), q_(q) {
  SETLIB_EXPECTS(n >= 1 && n <= kMaxProcs);
  SETLIB_EXPECTS(p1 >= 0 && p1 < n && p2 >= 0 && p2 < n && q >= 0 && q < n);
  SETLIB_EXPECTS(p1 != p2 && p1 != q && p2 != q);
}

Pid Figure1Generator::next() {
  if (emit_q_) {
    emit_q_ = false;
    ++pair_in_half_;
    if (pair_in_half_ == phase_) {
      pair_in_half_ = 0;
      if (second_half_) {
        second_half_ = false;
        ++phase_;
      } else {
        second_half_ = true;
      }
    }
    return q_;
  }
  emit_q_ = true;
  return second_half_ ? p2_ : p1_;
}

std::int64_t Figure1Generator::steps_through_phase(std::int64_t i) {
  SETLIB_EXPECTS(i >= 0);
  // Phase i contributes i pairs of (p1 q) plus i pairs of (p2 q) = 4i.
  return 2 * i * (i + 1);
}

RotatingStarverGenerator::RotatingStarverGenerator(int n, ProcSet rotors,
                                                   ProcSet background,
                                                   std::int64_t growth)
    : n_(n),
      rotors_(rotors.to_vector()),
      background_((background - rotors).to_vector()),
      growth_(growth) {
  SETLIB_EXPECTS(n >= 1 && n <= kMaxProcs);
  SETLIB_EXPECTS(!rotors_.empty());
  SETLIB_EXPECTS(growth >= 1);
  SETLIB_EXPECTS(rotors.subset_of(ProcSet::universe(n)));
  SETLIB_EXPECTS(background.subset_of(ProcSet::universe(n)));
}

void RotatingStarverGenerator::advance_block() {
  pos_in_block_ = 0;
  ++block_in_phase_;
  if (block_in_phase_ >= growth_ * phase_) {
    block_in_phase_ = 0;
    ++phase_;
    rotor_idx_ = (rotor_idx_ + 1) % rotors_.size();
  }
}

Pid RotatingStarverGenerator::next() {
  if (pos_in_block_ == 0) {
    const Pid r = rotors_[rotor_idx_];
    if (background_.empty()) {
      advance_block();
    } else {
      pos_in_block_ = 1;
    }
    return r;
  }
  const Pid b = background_[pos_in_block_ - 1];
  if (pos_in_block_ == background_.size()) {
    advance_block();
  } else {
    ++pos_in_block_;
  }
  return b;
}

KSubsetStarverGenerator::KSubsetStarverGenerator(int n, ProcSet live, int k,
                                                 std::int64_t growth)
    : n_(n),
      live_(live),
      ranker_(live.size(), k),
      live_members_(live.to_vector()),
      growth_(growth) {
  SETLIB_EXPECTS(n >= 1 && n <= kMaxProcs);
  SETLIB_EXPECTS(live.subset_of(ProcSet::universe(n)));
  SETLIB_EXPECTS(k >= 1 && k < live.size());  // someone must stay active
  SETLIB_EXPECTS(growth >= 1);
  enter_phase();
}

void KSubsetStarverGenerator::enter_phase() {
  ++phase_;
  step_in_phase_ = 0;
  // The starved subset: rank cycles through all C(|live|, k) subsets of
  // live-member *indices*; map indices back to pids.
  const std::int64_t rank = (phase_ - 1) % ranker_.count();
  const ProcSet starved_idx = ranker_.unrank(rank);
  active_.clear();
  for (std::size_t idx = 0; idx < live_members_.size(); ++idx) {
    if (!starved_idx.contains(static_cast<Pid>(idx))) {
      active_.push_back(live_members_[idx]);
    }
  }
  SETLIB_ASSERT(!active_.empty());
  rr_ = 0;
}

Pid KSubsetStarverGenerator::next() {
  if (step_in_phase_ >= growth_ * phase_) enter_phase();
  ++step_in_phase_;
  const Pid p = active_[rr_];
  if (++rr_ == active_.size()) rr_ = 0;
  return p;
}

SwitchGenerator::SwitchGenerator(std::unique_ptr<ScheduleGenerator> before,
                                 std::unique_ptr<ScheduleGenerator> after,
                                 std::int64_t switch_at)
    : before_(std::move(before)),
      after_(std::move(after)),
      switch_at_(switch_at) {
  SETLIB_EXPECTS(before_ != nullptr && after_ != nullptr);
  SETLIB_EXPECTS(before_->n() == after_->n());
  SETLIB_EXPECTS(switch_at >= 0);
}

int SwitchGenerator::n() const { return before_->n(); }

Pid SwitchGenerator::next() {
  const Pid p =
      emitted_ < switch_at_ ? before_->next() : after_->next();
  ++emitted_;
  return p;
}

ReplayGenerator::ReplayGenerator(Schedule schedule)
    : schedule_(std::move(schedule)) {}

Pid ReplayGenerator::next() {
  if (pos_ < schedule_.size()) {
    return schedule_[pos_++];
  }
  const Pid p = fallback_;
  fallback_ = (fallback_ + 1) % schedule_.n();
  return p;
}

CrashPlan::CrashPlan(int n)
    : n_(n), crash_step_(static_cast<std::size_t>(n), kNever) {
  SETLIB_EXPECTS(n >= 1 && n <= kMaxProcs);
}

CrashPlan CrashPlan::none(int n) { return CrashPlan(n); }

CrashPlan CrashPlan::at(int n, ProcSet who, std::int64_t when) {
  CrashPlan plan(n);
  for (Pid p : who.to_vector()) plan.set_crash(p, when);
  return plan;
}

void CrashPlan::set_crash(Pid p, std::int64_t step) {
  SETLIB_EXPECTS(p >= 0 && p < n_);
  SETLIB_EXPECTS(step >= 0);
  crash_step_[static_cast<std::size_t>(p)] = step;
}

std::int64_t CrashPlan::crash_step(Pid p) const {
  SETLIB_EXPECTS(p >= 0 && p < n_);
  return crash_step_[static_cast<std::size_t>(p)];
}

bool CrashPlan::crashed_by(Pid p, std::int64_t step) const {
  return crash_step(p) <= step;
}

ProcSet CrashPlan::faulty() const {
  ProcSet s;
  for (Pid p = 0; p < n_; ++p) {
    if (crash_step_[static_cast<std::size_t>(p)] != kNever) s = s.with(p);
  }
  return s;
}

ProcSet CrashPlan::alive_at(std::int64_t step) const {
  ProcSet s;
  for (Pid p = 0; p < n_; ++p) {
    if (!crashed_by(p, step)) s = s.with(p);
  }
  return s;
}

std::int64_t CrashPlan::next_crash_after(std::int64_t step) const {
  std::int64_t next = kNever;
  for (const std::int64_t at : crash_step_) {
    if (at > step) next = std::min(next, at);
  }
  return next;
}

CrashFilterGenerator::CrashFilterGenerator(
    std::unique_ptr<ScheduleGenerator> base, CrashPlan plan)
    : base_(std::move(base)), plan_(std::move(plan)) {
  SETLIB_EXPECTS(base_ != nullptr);
  SETLIB_EXPECTS(plan_.n() == base_->n());
  SETLIB_EXPECTS(!plan_.alive_at(CrashPlan::kNever - 1).empty());
}

Pid CrashFilterGenerator::next() {
  // Pull until the base yields an alive process. Fair bases revisit every
  // process, so this loop terminates; cap pulls defensively regardless.
  for (std::int64_t attempts = 0; attempts < 1'000'000; ++attempts) {
    const Pid p = base_->next();
    if (!plan_.crashed_by(p, emitted_)) {
      ++emitted_;
      return p;
    }
  }
  // The base starved all alive processes; fall back to the smallest
  // alive pid to preserve progress (recorded like any other step).
  const ProcSet alive = plan_.alive_at(emitted_);
  SETLIB_ASSERT(!alive.empty());
  ++emitted_;
  return alive.min();
}

}  // namespace setlib::sched
