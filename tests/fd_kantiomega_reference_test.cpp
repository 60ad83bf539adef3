// The production Figure 2 detector against a literal transcription.
//
// KAntiOmega::run_impl scans Counter and Heartbeat with multi-step read
// requests and runs the timer resets after the last heartbeat read.
// ReferenceFigure2 below is the loop as the figure writes it: one
// `co_await shm::read` per register, and each heartbeat's timer reset
// right after its read. The two must be indistinguishable step by
// step: after every step of a lockstep run, the executed schedules,
// every View, every Counter and Heartbeat register and the memory's
// read/write counts are equal. This file is the reference oracle for
// later work on the detector's fast path; it shares no loop code with
// it.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "src/fd/kantiomega.h"
#include "src/sched/generators.h"
#include "src/shm/memory.h"
#include "src/shm/program.h"
#include "src/shm/simulator.h"

namespace setlib::fd {
namespace {

using View = KAntiOmega::View;

class ReferenceFigure2 {
 public:
  ReferenceFigure2(shm::IMemory& mem, KAntiOmega::Params params)
      : params_(params), subsets_(k_subsets(params.n, params.k)) {
    // Same allocation order as KAntiOmega: the register ids coincide.
    heartbeat_base_ = mem.alloc_array("Heartbeat", params.n);
    counter_base_ = mem.alloc_array("Counter", sets() * params.n);
    views_.assign(static_cast<std::size_t>(params.n), View{});
    for (auto& v : views_) {
      v.winnerset = subsets_[0];
      v.fd_output = subsets_[0].complement(params.n);
      v.last_excluded.assign(static_cast<std::size_t>(params.n), 0);
    }
  }

  const View& view(Pid p) const {
    return views_[static_cast<std::size_t>(p)];
  }

  shm::Prog run(Pid p) {
    const int n = params_.n;
    const int q_idx = params_.t;  // the (t+1)-st smallest, 0-based
    const std::int64_t sets = this->sets();
    View& view = views_[static_cast<std::size_t>(p)];
    std::int64_t my_hb = 0;
    std::vector<std::int64_t> prev_heartbeat(static_cast<std::size_t>(n), 0);
    std::vector<std::int64_t> timeout(static_cast<std::size_t>(sets),
                                      params_.initial_timeout);
    std::vector<std::int64_t> timer = timeout;
    std::vector<std::int64_t> cnt(static_cast<std::size_t>(sets * n), 0);
    std::vector<std::int64_t> row(static_cast<std::size_t>(n), 0);
    for (;;) {
      // line 2
      for (std::int64_t a = 0; a < sets; ++a) {
        for (Pid q = 0; q < n; ++q) {
          const shm::Value v = co_await shm::read(counter_base_ + a * n + q);
          cnt[static_cast<std::size_t>(a * n + q)] = v.as_int_or(0);
        }
      }
      // lines 3-4
      std::int64_t best_acc = -1;
      std::int64_t best_rank = -1;
      for (std::int64_t a = 0; a < sets; ++a) {
        for (Pid q = 0; q < n; ++q) {
          row[static_cast<std::size_t>(q)] =
              cnt[static_cast<std::size_t>(a * n + q)];
        }
        std::nth_element(row.begin(), row.begin() + q_idx, row.end());
        const std::int64_t accusation = row[static_cast<std::size_t>(q_idx)];
        if (best_rank < 0 || accusation < best_acc) {
          best_acc = accusation;
          best_rank = a;
        }
      }
      const ProcSet winner = subsets_[static_cast<std::size_t>(best_rank)];
      // line 5
      if (winner != view.winnerset) {
        ++view.winnerset_changes;
        view.last_change_iteration = view.iterations + 1;
      }
      view.winnerset = winner;
      view.fd_output = winner.complement(n);
      view.winner_accusation = best_acc;
      for (Pid c = 0; c < n; ++c) {
        if (!winner.contains(c)) {
          view.last_excluded[static_cast<std::size_t>(c)] =
              view.iterations + 1;
        }
      }
      // lines 6-7
      ++my_hb;
      co_await shm::write(heartbeat_base_ + p, shm::Value::of(my_hb));
      // lines 8-13, each reset right after its heartbeat's read
      for (Pid q = 0; q < n; ++q) {
        const shm::Value v = co_await shm::read(heartbeat_base_ + q);
        const std::int64_t hbq = v.as_int_or(0);
        if (hbq > prev_heartbeat[static_cast<std::size_t>(q)]) {
          for (std::int64_t a = 0; a < sets; ++a) {
            if (subsets_[static_cast<std::size_t>(a)].contains(q)) {
              timer[static_cast<std::size_t>(a)] =
                  timeout[static_cast<std::size_t>(a)];
            }
          }
          prev_heartbeat[static_cast<std::size_t>(q)] = hbq;
        }
      }
      // lines 14-19
      for (std::int64_t a = 0; a < sets; ++a) {
        auto& tm = timer[static_cast<std::size_t>(a)];
        tm -= 1;
        if (tm == 0) {
          auto& to = timeout[static_cast<std::size_t>(a)];
          to += 1;
          tm = to;
          const std::int64_t prev = cnt[static_cast<std::size_t>(a * n + p)];
          co_await shm::write(counter_base_ + a * n + p,
                              shm::Value::of(prev + 1));
        }
      }
      ++view.iterations;
    }
  }

 private:
  std::int64_t sets() const {
    return static_cast<std::int64_t>(subsets_.size());
  }

  KAntiOmega::Params params_;
  std::vector<ProcSet> subsets_;
  shm::RegisterId heartbeat_base_ = -1;
  shm::RegisterId counter_base_ = -1;
  std::vector<View> views_;
};

/// One of the two detectors on its own memory and simulator. Each
/// process also runs a sibling task that bumps a private register, so
/// multi-step reads share their process's round-robin turns.
template <typename Detector>
struct Side {
  shm::SimMemory mem;
  Detector detector;
  shm::Simulator sim;
  shm::RegisterId sibling_base;

  static shm::Prog bump(shm::RegisterId reg) {
    for (std::int64_t v = 1;; ++v) co_await shm::write(reg, shm::Value::of(v));
  }

  Side(KAntiOmega::Params params, const sched::CrashPlan& crashes,
       bool siblings)
      : detector(mem, params), sim(mem, params.n) {
    sibling_base = mem.alloc_array("sibling", params.n);
    for (Pid p = 0; p < params.n; ++p) {
      sim.process(p).add_task(detector.run(p), "fd");
      if (siblings) sim.process(p).add_task(bump(sibling_base + p), "bump");
    }
    sim.use_crash_plan(crashes);
  }
};

void expect_same_view(const View& fast, const View& ref, Pid p,
                      std::int64_t step) {
  ASSERT_EQ(fast.winnerset, ref.winnerset) << "p" << p << " step " << step;
  ASSERT_EQ(fast.fd_output, ref.fd_output) << "p" << p << " step " << step;
  ASSERT_EQ(fast.winner_accusation, ref.winner_accusation)
      << "p" << p << " step " << step;
  ASSERT_EQ(fast.iterations, ref.iterations) << "p" << p << " step " << step;
  ASSERT_EQ(fast.winnerset_changes, ref.winnerset_changes)
      << "p" << p << " step " << step;
  ASSERT_EQ(fast.last_change_iteration, ref.last_change_iteration)
      << "p" << p << " step " << step;
  ASSERT_EQ(fast.last_excluded, ref.last_excluded)
      << "p" << p << " step " << step;
}

struct Case {
  int n;
  int k;
  int t;
  std::uint64_t seed;
  bool starver;    // k-subset starver instead of uniform random pulls
  int crashes;     // the highest `crashes` pids crash at crash_at
  std::int64_t crash_at;
  bool siblings;
};

std::string case_name(const ::testing::TestParamInfo<Case>& info) {
  // Built with append: operator+ on these temporaries trips GCC 12's
  // -Wrestrict false positive.
  const Case& c = info.param;
  std::string name("n");
  name.append(std::to_string(c.n)).append("k").append(std::to_string(c.k));
  name.append("t").append(std::to_string(c.t));
  name.append("s").append(std::to_string(c.seed));
  name.append(c.starver ? "_starver" : "_uniform");
  name.append("_c").append(std::to_string(c.crashes));
  if (c.siblings) name.append("_siblings");
  return name;
}

std::unique_ptr<sched::ScheduleGenerator> make_generator(const Case& c) {
  if (c.starver) {
    return std::make_unique<sched::KSubsetStarverGenerator>(
        c.n, ProcSet::universe(c.n), c.k, 2);
  }
  return std::make_unique<sched::UniformRandomGenerator>(c.n, c.seed);
}

class Figure2ReferenceTest : public ::testing::TestWithParam<Case> {};

TEST_P(Figure2ReferenceTest, LockstepRunsAreIndistinguishable) {
  const Case& c = GetParam();
  const KAntiOmega::Params params{c.n, c.k, c.t, 1};
  const sched::CrashPlan crashes =
      c.crashes > 0
          ? sched::CrashPlan::at(c.n, ProcSet::range(c.n - c.crashes, c.n),
                                 c.crash_at)
          : sched::CrashPlan::none(c.n);
  Side<KAntiOmega> fast(params, crashes, c.siblings);
  Side<ReferenceFigure2> ref(params, crashes, c.siblings);
  ASSERT_EQ(fast.mem.register_count(), ref.mem.register_count());
  const shm::RegisterId shared = fast.sibling_base;  // Heartbeat + Counter

  auto gen = make_generator(c);
  constexpr std::int64_t kPulls = 12'000;
  for (std::int64_t s = 0; s < kPulls; ++s) {
    const Pid p = gen->next();
    fast.sim.step_once(p);
    ref.sim.step_once(p);
    ASSERT_EQ(fast.sim.steps_taken(), ref.sim.steps_taken()) << "pull " << s;
    ASSERT_EQ(fast.mem.read_count(), ref.mem.read_count()) << "pull " << s;
    ASSERT_EQ(fast.mem.write_count(), ref.mem.write_count()) << "pull " << s;
    for (Pid q = 0; q < c.n; ++q) {
      expect_same_view(fast.detector.view(q), ref.detector.view(q), q, s);
    }
    for (shm::RegisterId r = 0; r < shared; ++r) {
      ASSERT_EQ(fast.mem.peek(r), ref.mem.peek(r))
          << fast.mem.name(r) << " after pull " << s;
    }
  }
  EXPECT_EQ(fast.sim.executed().steps(), ref.sim.executed().steps());
  // The run exercised the detector: loops completed, counters grew.
  EXPECT_GT(fast.detector.view(0).iterations, 10);
  std::int64_t counter_sum = 0;
  for (shm::RegisterId r = c.n; r < shared; ++r) {
    counter_sum += fast.mem.peek(r).as_int_or(0);
  }
  EXPECT_GT(counter_sum, 0);
}

TEST_P(Figure2ReferenceTest, FullRunsHashTheSameStepStream) {
  // The same comparison through Simulator::run's own loop, at a longer
  // budget: identical executed schedules and final views.
  const Case& c = GetParam();
  const KAntiOmega::Params params{c.n, c.k, c.t, 1};
  const sched::CrashPlan crashes =
      c.crashes > 0
          ? sched::CrashPlan::at(c.n, ProcSet::range(c.n - c.crashes, c.n),
                                 c.crash_at)
          : sched::CrashPlan::none(c.n);
  Side<KAntiOmega> fast(params, crashes, c.siblings);
  Side<ReferenceFigure2> ref(params, crashes, c.siblings);
  constexpr std::int64_t kSteps = 60'000;
  fast.sim.run(*make_generator(c), kSteps);
  ref.sim.run(*make_generator(c), kSteps);
  EXPECT_EQ(fast.sim.executed_hash(), ref.sim.executed_hash());
  EXPECT_EQ(fast.mem.read_count(), ref.mem.read_count());
  EXPECT_EQ(fast.mem.write_count(), ref.mem.write_count());
  for (Pid q = 0; q < c.n; ++q) {
    expect_same_view(fast.detector.view(q), ref.detector.view(q), q, kSteps);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, Figure2ReferenceTest,
    ::testing::Values(Case{3, 1, 1, 1, false, 0, 0, false},
                      Case{3, 2, 1, 2, false, 1, 700, true},
                      Case{4, 2, 2, 3, false, 2, 1'500, false},
                      Case{4, 1, 3, 4, true, 0, 0, true},
                      Case{5, 2, 3, 5, false, 3, 2'500, true},
                      Case{5, 3, 2, 6, true, 1, 400, false},
                      Case{6, 2, 2, 7, false, 2, 5'000, false}),
    case_name);

}  // namespace
}  // namespace setlib::fd
