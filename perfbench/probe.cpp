// The traced run's layer probe: per-layer metrics measured from
// outside the library, by re-executing sample cells split into parts.
//
// A matrix cell (oblivious family) is run whole with run_agreement, then
// again as three parts:
//   1. sched::generate of the same family and seed;
//   2. the same protocol stack (SimMemory, Simulator, k-anti-Omega,
//      KSetAgreement) driven by sched::ReplayGenerator over that
//      schedule;
//   3. PackedSchedule, bound_for and schedule_hash.
// An adversary cell (reactive family) cannot be generated apart from
// its execution, so the stack is first re-executed with the reactive
// generator (untimed here) to recover the executed schedule, which is
// then replayed and analysed; its generation cost is the whole cell
// minus replay and analysis. Every part must reproduce the whole run's
// schedule_hash, witness bound, and detector and decision counts.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <limits>
#include <numeric>
#include <optional>

#include "perfbench/bench.h"
#include "perfbench/cells.h"
#include "src/agreement/kset.h"
#include "src/agreement/multishot.h"
#include "src/core/runner.h"
#include "src/core/sweep.h"
#include "src/fd/kantiomega.h"
#include "src/sched/analyzer.h"
#include "src/sched/enforcer.h"
#include "src/sched/generators.h"
#include "src/sched/reactive.h"
#include "src/shm/memory.h"
#include "src/shm/simulator.h"
#include "src/util/arena.h"

namespace perfbench {

using namespace setlib;

// ---------------------------------------------------------------------
// Statistics and spans.

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

Tracer::Scope::Scope(Tracer& tracer, std::string name, std::int64_t unit)
    : tracer_(tracer), id_(static_cast<int>(tracer.spans_.size())) {
  Span span;
  span.name = std::move(name);
  span.parent = tracer.open_.empty() ? -1 : tracer.open_.back();
  span.unit = unit;
  span.start_ns = tracer.now_ns();
  tracer.spans_.push_back(std::move(span));
  tracer.open_.push_back(id_);
}

Tracer::Scope::~Scope() { close(); }

void Tracer::Scope::close() {
  if (!open_) return;
  open_ = false;
  tracer_.spans_[static_cast<std::size_t>(id_)].end_ns = tracer_.now_ns();
  tracer_.open_.pop_back();
}

double Tracer::Scope::seconds() const {
  return tracer_.spans_[static_cast<std::size_t>(id_)].seconds();
}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

std::vector<double> Tracer::durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name && s.end_ns >= s.start_ns) out.push_back(s.seconds());
  }
  return out;
}

bool Tracer::write_jsonl(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  for (const Span& s : spans_) {
    os << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
       << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent
       << ",\"unit\":" << s.unit << "}\n";
  }
  return static_cast<bool>(os);
}

namespace {

double sum(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

// ---------------------------------------------------------------------
// The agreement stack run_agreement builds for k <= t, built here.

struct Stack {
  explicit Stack(const core::RunConfig& cfg)
      : sim(mem, cfg.spec.n),
        detector(mem, fd::KAntiOmega::Params{cfg.spec.n, cfg.spec.k,
                                             cfg.spec.t, 1}),
        kset(mem,
             agreement::KSetAgreement::Params{cfg.spec.n, cfg.spec.k,
                                              cfg.spec.t},
             &detector) {
    for (Pid p = 0; p < cfg.spec.n; ++p) {
      sim.process(p).add_task(detector.run(p), "kanti-omega");
      kset.install(sim.process(p), p, 100 + p);
    }
  }

  shm::SimMemory mem;
  shm::Simulator sim;
  fd::KAntiOmega detector;
  agreement::KSetAgreement kset;
};

/// The oblivious generator run_agreement builds for `cfg`'s family.
std::unique_ptr<sched::ScheduleGenerator> oblivious_generator(
    const core::RunConfig& cfg) {
  const int n = cfg.spec.n;
  switch (cfg.family) {
    case core::ScheduleFamily::kEnforcedRandom:
      return sched::EnforcedGenerator::single(
          std::make_unique<sched::UniformRandomGenerator>(n, cfg.seed),
          sched::TimelinessConstraint(ProcSet::range(0, cfg.system.i),
                                      ProcSet::range(0, cfg.system.j),
                                      cfg.timeliness_bound));
    case core::ScheduleFamily::kRotisserie: {
      const int gap = cfg.system.j - cfg.system.i;
      const ProcSet live = ProcSet::range(n - gap, n).complement(n);
      return std::make_unique<sched::RotatingStarverGenerator>(
          n, live, ProcSet(), cfg.rotisserie_growth);
    }
    case core::ScheduleFamily::kKSubsetStarver:
      return std::make_unique<sched::KSubsetStarverGenerator>(
          n, ProcSet::universe(n), cfg.spec.k, cfg.rotisserie_growth);
    default:
      return nullptr;
  }
}

sched::ReactiveKind reactive_kind(core::ScheduleFamily family) {
  switch (family) {
    case core::ScheduleFamily::kDecisionChaser:
      return sched::ReactiveKind::kDecisionChaser;
    case core::ScheduleFamily::kBudgetCrasher:
      return sched::ReactiveKind::kBudgetCrasher;
    default:
      return sched::ReactiveKind::kWindowStretcher;
  }
}

/// Re-executes a reactive cell's stack with its adversary, publishing
/// what run_agreement publishes, and returns the executed schedule.
sched::Schedule reexecute_reactive(const core::RunConfig& cfg) {
  const int n = cfg.spec.n;
  sched::ReactiveParams params;
  params.n = n;
  params.stretch = cfg.adversary_scale;
  params.victims = 0;
  params.crash_budget = std::min(cfg.spec.t, n - 1);
  params.decide_threshold = cfg.stabilization_window;
  auto gen = sched::make_reactive(reactive_kind(cfg.family), params, cfg.seed);
  sched::ObservationFeed& feed = *gen->feed_ptr();
  Stack stack(cfg);
  stack.sim.publish_observations(&feed);
  stack.sim.use_crash_source(
      [r = gen.get()] { return r->crashes_requested(); });
  stack.sim.run_until(*gen, cfg.max_steps, [&] {
    for (Pid p = 0; p < n; ++p) {
      feed.publish_progress(p, stack.detector.view(p).iterations);
      if (stack.kset.decided(p)) feed.publish_decided(p);
    }
    return false;  // full budget
  });
  return stack.sim.executed();
}

/// The pool section's cells: the matrix kinds at a third of the
/// budget, eight of them so four workers each get two.
std::vector<core::RunConfig> pool_cells(std::uint64_t seed) {
  const std::vector<core::RunConfig> kinds = matrix_cells(seed);
  std::vector<core::RunConfig> cells;
  for (std::size_t i = 0; i < 8; ++i) {
    core::RunConfig c = kinds[i % kinds.size()];
    c.max_steps = kMatrixSteps / 3;
    cells.push_back(c);
  }
  return cells;
}

/// Rounds of each split cell; its timings are medians over them.
constexpr int kSplitRounds = 3;
/// The share of a matrix cell's time its parts must account for.
constexpr double kMinCoverage = 0.9;

struct Counts {
  double steps = 0, reads = 0, writes = 0, registers = 0, words = 0;
  double iterations = 0, winnerset_changes = 0, decided = 0, pulls = 0;
  double allocs = 0, bytes = 0;
};

class Probe {
 public:
  Probe(std::uint64_t seed, Tracer& tracer) : seed_(seed), tracer_(tracer) {}

  ProbeResult run() {
    std::int64_t unit = 0;
    for (const core::RunConfig& cfg : matrix_cells(seed_)) {
      split_cell(cfg, unit++, false);
    }
    for (const core::RunConfig& cfg : adversary_cells(seed_)) {
      split_cell(cfg, unit++, true);
    }
    serve(unit++);
    census(unit++);
    pool();
    emit();
    return std::move(result_);
  }

 private:
  void fail(const std::string& what) {
    ++result_.failed;
    result_.errors.push_back(what);
  }

  /// Wall seconds of one cell's parts, from one round of the split.
  struct Split {
    double whole = 0, gen = 0, replay = 0, analysis = 0, steps = 0;
    std::string error;  // first part that did not reproduce the whole
  };

  /// Runs the cell whole and split kSplitRounds times, in alternation so
  /// host drift hits every part alike; the timings are the medians over
  /// the rounds, the counts those of the first round.
  void split_cell(const core::RunConfig& cfg, std::int64_t unit,
                  bool reactive) {
    ++result_.attempted;
    const std::string label = reactive ? "adversary" : "matrix";
    const Tracer::Scope cell_span(tracer_, "probe." + label + ".cell", unit);
    std::optional<sched::Schedule> recovered;
    if (reactive) {
      Tracer::Scope s(tracer_, "probe.reexecute", unit);
      recovered = reexecute_reactive(cfg);
    }
    std::vector<double> whole, gen, replay, analysis;
    double steps = 0;
    std::string error;
    for (int round = 0; round < kSplitRounds; ++round) {
      Split split = split_once(cfg, unit, recovered, round == 0);
      whole.push_back(split.whole);
      gen.push_back(split.gen);
      replay.push_back(split.replay);
      analysis.push_back(split.analysis);
      steps = split.steps;
      if (error.empty()) error = std::move(split.error);
    }
    if (!error.empty()) fail(label + " cell " + std::to_string(unit) + error);

    const double whole_s = median(whole);
    const double replay_s = median(replay);
    const double analysis_s = median(analysis);
    ns_per_step_.push_back(1e9 * replay_s / steps);
    if (reactive) {
      reactive_ns_per_step_.push_back(1e9 * (whole_s - replay_s - analysis_s) /
                                      steps);
    } else {
      const double gen_s = median(gen);
      matrix_cell_s_.push_back(whole_s);
      gen_ns_per_pull_.push_back(1e9 * gen_s / steps);
      coverage_.push_back((gen_s + replay_s + analysis_s) / whole_s);
    }
  }

  /// One round: the whole cell, then generation (oblivious cells; a
  /// reactive cell replays the schedule `recovered` once before), the
  /// replayed step loop and the analysis. With `count`, adds the round's
  /// layer counts to counts_.
  Split split_once(const core::RunConfig& cfg, std::int64_t unit,
                   const std::optional<sched::Schedule>& recovered,
                   bool count) {
    Split split;
    core::RunReport report;
    {
      Tracer::Scope s(tracer_, "core.run_agreement", unit);
      report = core::run_agreement(cfg, arena_);
      s.close();
      split.whole = s.seconds();
    }
    counts_.allocs = std::max(counts_.allocs, double(report.allocs_per_op));
    counts_.bytes = std::max(counts_.bytes, double(report.bytes_per_op));

    sched::Schedule schedule(cfg.spec.n);
    if (recovered) {
      schedule = *recovered;
    } else {
      auto gen = oblivious_generator(cfg);
      Tracer::Scope s(tracer_, "sched.generate", unit);
      schedule = sched::generate(*gen, report.steps_executed);
      s.close();
      split.gen = s.seconds();
      if (count) counts_.pulls += double(report.steps_executed);
    }

    Stack stack(cfg);  // set-up is not part of the step loop's span
    sched::ReplayGenerator replay(schedule);
    {
      Tracer::Scope s(tracer_, "shm.replay", unit);
      stack.sim.run(replay, schedule.size());
      s.close();
      split.replay = s.seconds();
    }
    split.steps = double(stack.sim.steps_taken());

    std::int64_t bound = 0;
    std::uint64_t hash = 0;
    {
      const util::FrameScope frame(arena_);
      Tracer::Scope pack(tracer_, "sched.pack", unit);
      const sched::PackedSchedule packed(stack.sim.executed(), arena_);
      pack.close();
      Tracer::Scope bound_span(tracer_, "sched.bound", unit);
      bound = packed.bound_for(report.timely_set, report.observed_set);
      bound_span.close();
      Tracer::Scope hash_span(tracer_, "sched.hash", unit);
      hash = sched::schedule_hash(stack.sim.executed());
      hash_span.close();
      split.analysis =
          pack.seconds() + bound_span.seconds() + hash_span.seconds();
      if (count) counts_.words += double(packed.words());
    }

    // The parts must reproduce the whole run.
    if (sched::schedule_hash(schedule) != report.schedule_hash ||
        hash != report.schedule_hash) {
      split.error = ": re-executed schedule_hash differs";
    } else if (bound != report.witness_bound) {
      split.error = ": witness bound differs";
    }
    const ProcSet correct = report.faulty.complement(cfg.spec.n);
    std::int64_t max_it = 0;
    std::int64_t changes = 0;
    std::int64_t decided = 0;
    for (Pid p = 0; p < cfg.spec.n; ++p) {
      const auto& view = stack.detector.view(p);
      if (count) {
        counts_.iterations += double(view.iterations);
        counts_.winnerset_changes += double(view.winnerset_changes);
      }
      if (correct.contains(p)) {
        max_it = std::max(max_it, view.iterations);
        changes += view.winnerset_changes;
      }
      if (stack.kset.decided(p)) ++decided;
    }
    std::int64_t reported_decided = 0;
    for (const auto& d : report.decisions) reported_decided += d ? 1 : 0;
    if (split.error.empty() &&
        (max_it != report.detector.max_iterations ||
         changes != report.detector.total_winnerset_changes ||
         decided != reported_decided)) {
      split.error = ": replayed detector/decision counts differ";
    }
    if (count) {
      counts_.decided += double(decided);
      counts_.steps += split.steps;
      counts_.reads += double(stack.mem.read_count());
      counts_.writes += double(stack.mem.write_count());
      counts_.registers += double(stack.mem.register_count());
    }
    return split;
  }

  void serve(std::int64_t unit) {
    ++result_.attempted;
    const core::ServiceHarness harness(serve_config(seed_));
    core::AdmissionPlan plan;
    {
      Tracer::Scope s(tracer_, "core.service.plan", unit);
      plan = harness.plan();
    }
    constexpr std::size_t kBatches = 1000;
    const std::size_t batches = std::min(kBatches, plan.batches.size());
    core::JsonSink sink{core::JsonSink::Config{}};
    std::vector<std::pair<core::SweepCell, core::RunReport>> rows;
    const int n = harness.config().spec.n;
    const int k = harness.config().spec.k;
    const int t = harness.config().spec.t;
    for (std::size_t b = 0; b < batches; ++b) {
      const core::AdmissionPlan::Batch& batch = plan.batches[b];
      std::vector<std::int64_t> commands;
      for (int s = 0; s < batch.size; ++s) {
        commands.push_back(
            plan.admitted[batch.first_admitted + std::size_t(s)].command);
      }
      core::BatchOutcome out;
      {
        Tracer::Scope s(tracer_, "core.service.batch", unit);
        out = harness.run_batch(plan, b);
      }
      if (!out.success || out.decided_ok != batch.size) {
        fail("serve probe batch " + std::to_string(b) + " undecided");
      }
      {
        // The batch's stack, built and installed from outside.
        Tracer::Scope s(tracer_, "core.service.batch_setup", unit);
        shm::SimMemory mem;
        shm::Simulator sim(mem, n);
        fd::KAntiOmega detector(mem, fd::KAntiOmega::Params{n, k, t, 1});
        agreement::MultiShotAgreement log(
            mem, agreement::MultiShotAgreement::Params{n, k, t, batch.size},
            &detector);
        for (Pid p = 0; p < n; ++p) {
          sim.process(p).add_task(detector.run(p), "kanti-omega");
          log.install(sim.process(p), p, commands);
        }
      }
      core::SweepCell cell;
      cell.index = b;
      core::RunReport report;
      report.success = out.success;
      report.steps_executed = out.steps;
      report.witness_bound = out.witness_bound;
      report.distinct_decisions = out.distinct_decisions;
      rows.emplace_back(cell, report);
    }
    {
      Tracer::Scope s(tracer_, "core.report.emit", unit);
      sink.begin_section("closed_loop", plan.batches.size(), {});
      for (const auto& [cell, report] : rows) sink.cell(cell, report, 0.0);
      core::SectionStats stats;
      stats.name = "closed_loop";
      stats.cells = rows.size();
      sink.end_section(stats);
      if (sink.render().empty()) fail("serve probe rendered no report");
    }
    batch_size_mean_ = double(plan.accepted) / double(plan.batches.size());
    shed_ = double(plan.shed);
  }

  void census(std::int64_t unit) {
    core::ExperimentRunner runner(runner_options(1));
    for (const core::PairScanConfig& cfg : census_cells(seed_)) {
      ++result_.attempted;
      // Generation alone, for its share of the census.
      sched::Schedule schedule(cfg.n);
      double gen_s = 0.0;
      {
        Tracer::Scope s(tracer_, "sched.scan.generate", unit);
        schedule = census_schedule(cfg);
        s.close();
        gen_s = s.seconds();
      }
      Tracer::Scope s(tracer_, "core.ranked_pair_scan", unit);
      const core::PairScanResult out = core::ranked_pair_scan(cfg, runner);
      s.close();
      scan_pairs_ += double(out.pairs);
      scan_members_ += double(out.members);
      scan_s_ += s.seconds() - gen_s;
      if (out.pairs <= 0) fail("census probe scanned no pairs");
    }
  }

  void pool() {
    const double one = pool_section_seconds(seed_, 1);
    efficiency_2t_ = one / (2.0 * pool_section_seconds(seed_, 2));
    efficiency_4t_ = one / (4.0 * pool_section_seconds(seed_, 4));
    // The 1-thread section again, timed cell by cell inside the
    // callback: the runner's own cost is the section minus its cells.
    core::ExperimentRunner runner(runner_options(1));
    const std::vector<core::RunConfig> cells = pool_cells(seed_);
    std::vector<double> cell_s(cells.size());
    const Clock::time_point start = Clock::now();
    runner.run(cells.size(), "pool", [&](std::size_t i) {
      util::ArenaAllocator& arena = runner.worker_arena();
      arena.reset();
      const Clock::time_point cell_start = Clock::now();
      core::run_agreement(cells[i], arena);
      cell_s[i] = seconds_since(cell_start);
    });
    runner_overhead_s_ = seconds_since(start) - sum(cell_s);
  }

  void emit() {
    auto add = [&](const char* name, double value, const char* unit) {
      result_.metrics.push_back({name, value, unit});
    };
    const auto ms = [&](const char* span) {
      return 1e3 * median(tracer_.durations(span));
    };
    add("shm.steps", counts_.steps, "count");
    add("shm.ns_per_step", median(ns_per_step_), "ns");
    add("shm.reads", counts_.reads, "count");
    add("shm.writes", counts_.writes, "count");
    add("shm.registers", counts_.registers, "count");
    add("sched.gen.pulls", counts_.pulls, "count");
    add("sched.gen.ns_per_pull", median(gen_ns_per_pull_), "ns");
    add("sched.reactive.ns_per_step", median(reactive_ns_per_step_), "ns");
    add("sched.analyzer.pack_ms", ms("sched.pack"), "ms");
    add("sched.analyzer.bound_ms", ms("sched.bound"), "ms");
    add("sched.analyzer.hash_ms", ms("sched.hash"), "ms");
    add("sched.analyzer.words", counts_.words, "count");
    add("sched.scan.generate_ms", ms("sched.scan.generate"), "ms");
    add("sched.scan.pairs", scan_pairs_, "count");
    add("sched.scan.members", scan_members_, "count");
    add("sched.scan.member_ratio", scan_members_ / scan_pairs_, "ratio");
    add("sched.scan.ns_per_pair", 1e9 * scan_s_ / scan_pairs_, "ns");
    add("fd.iterations", counts_.iterations, "count");
    add("fd.steps_per_iteration", counts_.steps / counts_.iterations, "steps");
    add("fd.winnerset_changes", counts_.winnerset_changes, "count");
    add("agreement.decided", counts_.decided, "count");
    add("core.cell_ms", 1e3 * median(matrix_cell_s_), "ms");
    add("core.runner.overhead_ms", 1e3 * runner_overhead_s_, "ms");
    add("core.service.plan_ms", ms("core.service.plan"), "ms");
    add("core.service.batch_ms", ms("core.service.batch"), "ms");
    add("core.service.batch_setup_us",
        1e6 * median(tracer_.durations("core.service.batch_setup")), "us");
    add("core.report.emit_ms", ms("core.report.emit"), "ms");
    add("core.service.batch_size_mean", batch_size_mean_, "requests");
    add("core.service.shed", shed_, "count");
    add("util.arena.allocs_per_op", counts_.allocs, "count");
    add("util.arena.bytes_per_op", counts_.bytes, "bytes");
    const double coverage = median(coverage_);
    add("core.cell.coverage", coverage, "ratio");
    if (coverage < kMinCoverage) {
      std::printf("WARN: matrix core.cell.coverage %.3g is below %.2g: the "
                  "parts miss part of a cell's time\n",
                  coverage, kMinCoverage);
    }
    add("runtime.pool.efficiency_2t", efficiency_2t_, "ratio");
    add("runtime.pool.efficiency_4t", efficiency_4t_, "ratio");
  }

  std::uint64_t seed_;
  Tracer& tracer_;
  util::ArenaAllocator arena_;
  ProbeResult result_;
  Counts counts_;
  std::vector<double> matrix_cell_s_, ns_per_step_,
      gen_ns_per_pull_, reactive_ns_per_step_, coverage_;
  double scan_pairs_ = 0, scan_members_ = 0, scan_s_ = 0;
  double batch_size_mean_ = 0, shed_ = 0;
  double efficiency_2t_ = 0, efficiency_4t_ = 0, runner_overhead_s_ = 0;

};

}  // namespace

ProbeResult run_layer_probe(std::uint64_t seed, Tracer& tracer) {
  return Probe(seed, tracer).run();
}

double census_pairs_per_s(std::uint64_t seed, int reps) {
  core::ExperimentRunner runner(runner_options(1));
  const core::PairScanConfig cfg = census_cells(seed).front();
  std::vector<double> rates;
  for (int r = 0; r < reps; ++r) {
    const Clock::time_point start = Clock::now();
    const core::PairScanResult out = core::ranked_pair_scan(cfg, runner);
    rates.push_back(double(out.pairs) / seconds_since(start));
  }
  return median(rates);
}

double pool_section_seconds(std::uint64_t seed, int threads) {
  const std::vector<core::RunConfig> cells = pool_cells(seed);
  core::ExperimentRunner runner(runner_options(threads));
  const Clock::time_point start = Clock::now();
  runner.run(cells.size(), "pool", [&](std::size_t i) {
    util::ArenaAllocator& arena = runner.worker_arena();
    arena.reset();
    core::run_agreement(cells[i], arena);
  });
  return seconds_since(start);
}

}  // namespace perfbench
