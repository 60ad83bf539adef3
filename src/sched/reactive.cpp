#include "src/sched/reactive.h"

#include <algorithm>
#include <utility>

#include "src/util/assert.h"

namespace setlib::sched {

namespace {

/// Independent per-role seed streams (same derivation shape as
/// sched::families.cpp and core::derive_cell_seed).
std::uint64_t reactive_seed(std::uint64_t seed, std::uint64_t role) noexcept {
  std::uint64_t state = seed + 0x9E3779B97F4A7C15ull * (role + 1);
  return splitmix64(state);
}

/// Writes s's members to out in increasing order; returns how many.
/// The generators' per-pull picks use this instead of to_vector() so a
/// pull never touches the heap.
int to_array(ProcSet s, Pid (&out)[kMaxProcs]) {
  int count = 0;
  s.for_each([&](Pid p) { out[count++] = p; });
  return count;
}

/// Uniform member of a non-empty set (the same draw as indexing its
/// increasing pid list).
Pid uniform_member(ProcSet s, Rng& rng) {
  return s.nth(static_cast<int>(
      rng.next_below(static_cast<std::uint64_t>(s.size()))));
}

void validate(const ReactiveParams& params) {
  SETLIB_EXPECTS(params.n >= 1 && params.n <= kMaxProcs);
  SETLIB_EXPECTS(params.victims >= 0);
  SETLIB_EXPECTS(params.stretch >= 1);
  SETLIB_EXPECTS(params.crash_budget >= 0);
  SETLIB_EXPECTS(params.decide_threshold >= 0);
}

}  // namespace

ReactiveGenerator::ReactiveGenerator(std::shared_ptr<ObservationFeed> feed)
    : feed_(std::move(feed)) {
  SETLIB_EXPECTS(feed_ != nullptr);
}

ProcSet ReactiveGenerator::alive() const {
  const ProcSet live = ProcSet::universe(n()) - feed_->crashed();
  SETLIB_ASSERT(!live.empty());  // crash budgets are < n
  return live;
}

WindowStretcherGenerator::WindowStretcherGenerator(
    const ReactiveParams& params, std::uint64_t seed,
    std::shared_ptr<ObservationFeed> feed)
    : ReactiveGenerator(std::move(feed)),
      params_(params),
      rng_(reactive_seed(seed, 0)) {
  validate(params);
  SETLIB_EXPECTS(params.n == n());
}

void WindowStretcherGenerator::begin_epoch() {
  // Victims = the most-stepped alive processes: silencing the recent
  // steppers is what keeps every currently-aging P-free window open.
  // Equivalently the epoch's actives are the fewest-stepped, so the
  // solo/active role rotates through all processes as counts balance —
  // over time every candidate P-set gets fully-silenced epochs.
  Pid pids[kMaxProcs];
  const int alive_count = to_array(alive(), pids);
  // Ties by pid: the stable order of the increasing pid list.
  std::sort(pids, pids + alive_count, [this](Pid a, Pid b) {
    const std::int64_t sa = feed_->steps_of(a);
    const std::int64_t sb = feed_->steps_of(b);
    return sa != sb ? sa < sb : a < b;
  });
  int vcount = params_.victims == 0 ? alive_count - 1 : params_.victims;
  vcount = std::clamp(vcount, 0, alive_count - 1);
  Pid* const split = pids + (alive_count - vcount);
  active_.assign(pids, split);
  release_.assign(split, pids + alive_count);
  // Reactive growth: the epoch lasts as long as the oldest window the
  // run has produced so far (the peak silence, sampled step by step in
  // next()), plus the base stretch — so silent stretches keep getting
  // longer, which no fixed-scale oblivious family does.
  epoch_left_ = params_.stretch + peak_silence_;
}

Pid WindowStretcherGenerator::next() {
  peak_silence_ = std::max(peak_silence_, feed_->max_silence());
  if (epoch_left_ == 0) {
    if (!release_.empty()) {
      // One step per victim between epochs: everybody keeps taking
      // infinitely many steps, as the model's correctness requires.
      const Pid p = release_.back();
      release_.pop_back();
      return p;
    }
    begin_epoch();
  }
  --epoch_left_;
  return active_[static_cast<std::size_t>(
      rng_.next_below(static_cast<std::uint64_t>(active_.size())))];
}

DecisionChaserGenerator::DecisionChaserGenerator(
    const ReactiveParams& params, std::uint64_t seed,
    std::shared_ptr<ObservationFeed> feed)
    : ReactiveGenerator(std::move(feed)),
      params_(params),
      rng_(reactive_seed(seed, 1)),
      until_release_(params.stretch) {
  validate(params);
  SETLIB_EXPECTS(params.n == n());
}

Pid DecisionChaserGenerator::next() {
  const ProcSet alive_set = alive();
  if (--until_release_ == 0) {
    until_release_ = params_.stretch;
    // Liveness release: round-robin over the alive set, so even the
    // chased processes step infinitely often.
    const int size = alive_set.size();
    const Pid p = alive_set.nth(rr_ % size);
    rr_ = (rr_ + 1) % size;
    return p;
  }
  // Victims = the alive, undecided processes nearest to deciding
  // (published progress, or step counts as the proxy), re-targeted
  // every step as the frontier moves.
  int vcount = params_.victims == 0 ? 1 : params_.victims;
  vcount = std::clamp(vcount, 0, alive_set.size() - 1);
  ProcSet victims;
  if (vcount > 0) {
    Pid chased[kMaxProcs];
    const int count = to_array(alive_set - feed_->decided_set(), chased);
    const int take = std::min(vcount, count);
    // Most progress first, ties by pid: the stable order of the
    // increasing pid list, so only the first `take` need sorting.
    std::partial_sort(chased, chased + take, chased + count,
                      [this](Pid a, Pid b) {
                        const std::int64_t pa = feed_->progress_of(a);
                        const std::int64_t pb = feed_->progress_of(b);
                        return pa != pb ? pa > pb : a < b;
                      });
    for (int v = 0; v < take; ++v) victims = victims.with(chased[v]);
  }
  ProcSet pool = alive_set - victims;
  if (pool.empty()) pool = alive_set;
  return uniform_member(pool, rng_);
}

BudgetCrasherGenerator::BudgetCrasherGenerator(
    const ReactiveParams& params, std::uint64_t seed,
    std::shared_ptr<ObservationFeed> feed)
    : ReactiveGenerator(std::move(feed)),
      params_(params),
      rng_(reactive_seed(seed, 2)),
      budget_left_(std::min(params.crash_budget, params.n - 1)) {
  validate(params);
  SETLIB_EXPECTS(params.n == n());
  // Seeded fallback checkpoints: when no published progress crosses
  // the threshold, the budget is still spent, at these steps.
  Rng plan(reactive_seed(seed, 3));
  std::int64_t at = 0;
  for (int c = 0; c < budget_left_; ++c) {
    at += plan.next_in(params_.stretch, 8 * params_.stretch);
    checkpoints_.push_back(at);
  }
}

void BudgetCrasherGenerator::maybe_spend_budget() {
  if (budget_left_ <= 0) return;
  const ProcSet alive_set = alive();
  if (alive_set.size() <= 1) return;  // somebody must keep stepping
  // Worst moment #1: a process is about to decide (published progress
  // crossed the threshold). Crash the most advanced such process.
  Pid target = -1;
  std::int64_t best = -1;
  alive_set.for_each([&](Pid p) {
    if (!feed_->has_progress(p) || feed_->decided(p)) return;
    const std::int64_t progress = feed_->progress_of(p);
    if (progress >= params_.decide_threshold && progress > best) {
      best = progress;
      target = p;
    }
  });
  // Worst moment #2 (fallback): a seeded checkpoint came due. Crash
  // the most advanced alive process.
  if (target < 0 && checkpoint_idx_ < checkpoints_.size() &&
      feed_->total_steps() >= checkpoints_[checkpoint_idx_]) {
    ++checkpoint_idx_;
    best = -1;
    alive_set.for_each([&](Pid p) {
      const std::int64_t progress = feed_->progress_of(p);
      if (progress > best) {
        best = progress;
        target = p;
      }
    });
  }
  if (target >= 0) {
    requested_ = requested_.with(target);
    feed_->record_crash(target);
    --budget_left_;
  }
}

Pid BudgetCrasherGenerator::next() {
  maybe_spend_budget();
  return uniform_member(alive(), rng_);
}

const std::vector<ReactiveInfo>& reactive_adversaries() {
  static const std::vector<ReactiveInfo> kinds = {
      {ReactiveKind::kWindowStretcher, "window-stretcher",
       "feed-scaled silencing epochs; stretches grow with the oldest "
       "observed window"},
      {ReactiveKind::kDecisionChaser, "decision-chaser",
       "silences the alive undecided processes nearest to deciding"},
      {ReactiveKind::kBudgetCrasher, "budget-crasher",
       "spends the t crash budget at observed worst moments"},
  };
  return kinds;
}

const ReactiveInfo* find_reactive(std::string_view name) {
  for (const ReactiveInfo& info : reactive_adversaries()) {
    if (name == info.name) return &info;
  }
  return nullptr;
}

std::unique_ptr<ReactiveGenerator> make_reactive(
    ReactiveKind kind, const ReactiveParams& params, std::uint64_t seed,
    std::shared_ptr<ObservationFeed> feed) {
  validate(params);
  if (feed == nullptr) feed = std::make_shared<ObservationFeed>(params.n);
  SETLIB_EXPECTS(feed->n() == params.n);
  switch (kind) {
    case ReactiveKind::kWindowStretcher:
      return std::make_unique<WindowStretcherGenerator>(params, seed,
                                                        std::move(feed));
    case ReactiveKind::kDecisionChaser:
      return std::make_unique<DecisionChaserGenerator>(params, seed,
                                                       std::move(feed));
    case ReactiveKind::kBudgetCrasher:
      return std::make_unique<BudgetCrasherGenerator>(params, seed,
                                                      std::move(feed));
  }
  SETLIB_ASSERT(false);
  return nullptr;
}

Schedule generate_observed(ReactiveGenerator& gen, std::int64_t steps) {
  SETLIB_EXPECTS(steps >= 0);
  Schedule out(gen.n());
  for (std::int64_t i = 0; i < steps; ++i) {
    const Pid p = gen.next();
    out.append(p);
    gen.feed_ptr()->record_step(p);
  }
  return out;
}

}  // namespace setlib::sched
