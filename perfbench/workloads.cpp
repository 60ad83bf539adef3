// The four workloads and their output checks.
//
// Each unit times exactly one public library call:
//   matrix, adversary  core::run_agreement(config, arena)
//   serve              core::ServiceHarness::run_batch(plan, index)
//   census             core::ranked_pair_scan(config, runner)
// and checks its output afterwards, outside the timed interval, against
// oracles written here (the Theorem 27 predicate, distinct-value and
// validity counts, the client commands, min_timeliness_bound_reference)
// plus agreement::validate_agreement and, at the default seed, the
// pinned digests below.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>
#include <optional>
#include <set>

#include "perfbench/bench.h"
#include "perfbench/cells.h"
#include "src/agreement/validator.h"
#include "src/core/runner.h"
#include "src/core/solvability.h"
#include "src/core/sweep.h"
#include "src/sched/analyzer.h"
#include "src/sched/enforcer.h"
#include "src/sched/generators.h"
#include "src/util/procset.h"
#include "src/util/rng.h"

namespace perfbench {

using namespace setlib;

// ---------------------------------------------------------------------
// Unit kinds.

namespace {

struct MatrixKind {
  core::AgreementSpec spec;
  int i;
  int j;
};

// Per spec: rotisserie (i <= k, j - i <= t), friendly (j - i > t) and
// k-subset starver (i > k), on both sides of the frontier.
const MatrixKind kMatrixKinds[] = {
    {{2, 1, 4}, 1, 2}, {{2, 1, 4}, 1, 4}, {{2, 1, 4}, 2, 3},
    {{3, 2, 5}, 2, 4}, {{3, 2, 5}, 1, 5}, {{3, 2, 5}, 3, 5},
};

struct AdversaryKind {
  core::AgreementSpec spec;
  int i;
  int j;
  core::ScheduleFamily family;
};

const AdversaryKind kAdversaryKinds[] = {
    {{2, 2, 5}, 2, 3, core::ScheduleFamily::kWindowStretcher},
    {{2, 2, 5}, 2, 3, core::ScheduleFamily::kDecisionChaser},
    {{2, 2, 5}, 2, 3, core::ScheduleFamily::kBudgetCrasher},
    {{3, 2, 6}, 2, 4, core::ScheduleFamily::kWindowStretcher},
    {{3, 2, 6}, 2, 4, core::ScheduleFamily::kDecisionChaser},
    {{3, 2, 6}, 2, 4, core::ScheduleFamily::kBudgetCrasher},
};

}  // namespace

std::vector<core::RunConfig> matrix_cells(std::uint64_t seed) {
  const core::MatrixConfig defaults;
  std::vector<core::RunConfig> cells;
  for (const MatrixKind& kind : kMatrixKinds) {
    core::RunConfig c;
    c.spec = kind.spec;
    c.system = {kind.i, kind.j, kind.spec.n};
    c.seed = seed;
    c.max_steps = kMatrixSteps;
    c.rotisserie_growth = defaults.rotisserie_growth;
    c.timeliness_bound = defaults.friendly_bound;
    c.stabilization_window = defaults.stabilization_window;
    c.run_full_budget = true;
    // core::thm27_matrix's family rule: where (i, j) sits relative to
    // the Theorem 27 frontier picks the adversary.
    if (kind.i > kind.spec.k) {
      c.family = core::ScheduleFamily::kKSubsetStarver;
    } else if (kind.j - kind.i <= kind.spec.t) {
      c.family = core::ScheduleFamily::kRotisserie;
    } else {
      c.family = core::ScheduleFamily::kEnforcedRandom;
    }
    cells.push_back(c);
  }
  return cells;
}

std::vector<core::RunConfig> adversary_cells(std::uint64_t seed) {
  std::vector<core::RunConfig> cells;
  std::uint64_t index = 0;
  for (const AdversaryKind& kind : kAdversaryKinds) {
    core::RunConfig c;
    c.spec = kind.spec;
    c.system = {kind.i, kind.j, kind.spec.n};
    c.family = kind.family;
    c.seed = core::derive_cell_seed(seed, index++);
    c.max_steps = kAdversarySteps;
    c.run_full_budget = true;
    cells.push_back(c);
  }
  return cells;
}

std::vector<core::PairScanConfig> census_cells(std::uint64_t seed) {
  std::vector<core::PairScanConfig> cells;
  for (const std::int64_t enforced : {3, 0}) {
    core::PairScanConfig c;
    c.n = 16;
    c.i = 3;
    c.j = 13;
    c.len = 200'000;
    c.seed = seed;
    c.bound_cap = 3;
    c.enforced_bound = enforced;
    cells.push_back(c);
  }
  return cells;
}

core::ServiceConfig serve_config(std::uint64_t seed) {
  core::ServiceConfig c;  // spec (1, 1, 4), batches of up to 64
  c.requests = 200'000;
  c.seed = seed;
  return c;
}

sched::Schedule census_schedule(const core::PairScanConfig& cfg) {
  std::unique_ptr<sched::ScheduleGenerator> gen;
  if (cfg.enforced_bound > 0) {
    gen = sched::EnforcedGenerator::single(
        std::make_unique<sched::UniformRandomGenerator>(cfg.n, cfg.seed),
        sched::TimelinessConstraint(ProcSet::range(0, cfg.i),
                                    ProcSet::range(0, cfg.j),
                                    cfg.enforced_bound));
  } else {
    gen = std::make_unique<sched::KSubsetStarverGenerator>(
        cfg.n, ProcSet::universe(cfg.n), cfg.i, 64);
  }
  return sched::generate(*gen, cfg.len);
}

// ---------------------------------------------------------------------
// Pinned digests at kDefaultSeed, one per unit kind (serve: one per
// complete pass over the admission plan). A change that alters an
// executed step stream, a decision or a census count fails these.

namespace {

constexpr std::uint64_t kMatrixPinned[] = {
    0xd519e794b85d2ac3ULL, 0x6523a67f251c855aULL, 0xa7f7509af85d1629ULL,
    0xaaf97e48e913b49dULL, 0xa040fd637f2bcc20ULL, 0x1f415233d6bce60bULL,
};
constexpr std::uint64_t kAdversaryPinned[] = {
    0xddea06b1fb378b94ULL, 0x699a3d82213f282cULL, 0x8fd7c334dd5a676aULL,
    0x5af68d8083f9af4bULL, 0x6283a7be5d17942eULL, 0x33b5c939271d3456ULL,
};
constexpr std::uint64_t kCensusPinned[] = {0x8b43c68312dee4dbULL,
                                          0xe2cf1ad1787f485eULL};
constexpr std::uint64_t kServePinned = 0xf4c2f2154176bb7bULL;

std::string hex(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// Checks a unit's digest: equal to the pinned one at the default seed,
/// and equal to the first digest of the same kind at any seed (units of
/// one kind are identical runs). Prints each kind's digest once.
class DigestBook {
 public:
  DigestBook(std::string workload, std::uint64_t seed,
             const std::uint64_t* pinned, std::size_t kinds)
      : workload_(std::move(workload)), seed_(seed),
        pinned_(pinned, pinned + kinds) {}

  std::string check(int kind, std::uint64_t digest) {
    const auto [it, fresh] = first_.emplace(kind, digest);
    if (fresh) {
      std::printf("digest %s kind=%d %s\n", workload_.c_str(), kind,
                  hex(digest).c_str());
    }
    if (it->second != digest) {
      return "kind " + std::to_string(kind) + " digest " + hex(digest) +
             " differs from its first run " + hex(it->second);
    }
    if (seed_ == kDefaultSeed &&
        digest != pinned_[static_cast<std::size_t>(kind)]) {
      return "kind " + std::to_string(kind) + " digest " + hex(digest) +
             " != pinned " + hex(pinned_[static_cast<std::size_t>(kind)]);
    }
    return "";
  }

 private:
  std::string workload_;
  std::uint64_t seed_;
  std::vector<std::uint64_t> pinned_;
  std::map<int, std::uint64_t> first_;
};

std::vector<std::int64_t> default_proposals(int n) {
  std::vector<std::int64_t> out;
  for (int p = 0; p < n; ++p) out.push_back(100 + p);
  return out;
}

/// Safety of one agreement run: at most k distinct decided values,
/// each one somebody's proposal — counted here, and cross-checked with
/// agreement::validate_agreement.
std::string check_safety(const core::RunConfig& cfg,
                         const core::RunReport& report) {
  const std::vector<std::int64_t> proposals = default_proposals(cfg.spec.n);
  std::set<std::int64_t> values;
  for (const auto& d : report.decisions) {
    if (!d) continue;
    if (std::find(proposals.begin(), proposals.end(), *d) ==
        proposals.end()) {
      return "decided " + std::to_string(*d) + ", nobody's proposal";
    }
    values.insert(*d);
  }
  if (static_cast<int>(values.size()) > cfg.spec.k) {
    return std::to_string(values.size()) + " distinct decisions > k";
  }
  const auto verdict = agreement::validate_agreement(
      cfg.spec.t, cfg.spec.k, cfg.spec.n, proposals, report.decisions,
      report.faulty);
  if (!verdict.agreement_ok || !verdict.validity_ok) {
    return "validate_agreement: " + verdict.detail;
  }
  return "";
}

/// Theorem 27, written out: for k <= t, solvable iff i <= k and
/// j - i >= t + 1 - k.
bool theorem27_solvable(const core::RunConfig& cfg) {
  return cfg.system.i <= cfg.spec.k &&
         cfg.system.j - cfg.system.i >= cfg.spec.t + 1 - cfg.spec.k;
}

std::string check_frontier(const core::RunConfig& cfg,
                           const core::RunReport& report) {
  const bool predicted = theorem27_solvable(cfg);
  if (predicted != core::solvable(cfg.spec, cfg.system)) {
    return "core::solvable disagrees with Theorem 27";
  }
  // Solvable: the detector property and the solver both come through.
  // Unsolvable: the adversary defeats the detector property.
  const bool matches =
      predicted ? (report.detector.abstract_ok && report.success)
                : !report.detector.abstract_ok;
  return matches ? "" : "frontier mismatch: " + report.detail;
}

// ---------------------------------------------------------------------
// matrix / adversary: one run_agreement cell per unit.

class CellWorkload final : public Workload {
 public:
  CellWorkload(const char* name, std::uint64_t seed,
               std::vector<core::RunConfig> cells,
               const std::uint64_t* pinned, bool frontier)
      : name_(name), span_(std::string("unit.") + name),
        cells_(std::move(cells)), frontier_(frontier),
        digests_(name, seed, pinned, cells_.size()) {}

  const char* name() const override { return name_; }
  const char* work_name() const override { return "steps"; }
  const char* item_name() const override { return "cells"; }
  int kinds() const override { return static_cast<int>(cells_.size()); }
  std::size_t warmup_units() const override { return cells_.size(); }

  void setup() override {
    runner_ = std::make_unique<core::ExperimentRunner>(runner_options(1));
  }
  void teardown() override { runner_.reset(); }

  UnitResult run(std::size_t u, Tracer* tracer) override {
    UnitResult r;
    r.kind = static_cast<int>(u % cells_.size());
    const core::RunConfig& cfg = cells_[static_cast<std::size_t>(r.kind)];
    util::ArenaAllocator& arena = runner_->worker_arena();
    arena.reset();  // what the runner does before every grid cell
    const core::RunReport report =
        timed(tracer, span_.c_str(), std::int64_t(u), r.seconds,
              [&] { return core::run_agreement(cfg, arena); });
    r.work = static_cast<double>(report.steps_executed);
    r.items = 1.0;
    r.error = check(r.kind, cfg, report);
    r.ok = r.error.empty();
    return r;
  }

 private:
  std::string check(int kind, const core::RunConfig& cfg,
                    const core::RunReport& report) {
    if (report.steps_executed != cfg.max_steps) {
      return "executed " + std::to_string(report.steps_executed) +
             " of a full budget of " + std::to_string(cfg.max_steps);
    }
    std::string error = check_safety(cfg, report);
    if (error.empty() && frontier_) error = check_frontier(cfg, report);
    if (error.empty()) error = digests_.check(kind, report.schedule_hash);
    return error;
  }

  const char* name_;
  std::string span_;
  std::vector<core::RunConfig> cells_;
  bool frontier_;
  DigestBook digests_;
  std::unique_ptr<core::ExperimentRunner> runner_;
};

// ---------------------------------------------------------------------
// serve: the closed loop's batches, back to back, one per unit.

class ServeWorkload final : public Workload {
 public:
  explicit ServeWorkload(std::uint64_t seed)
      : config_(serve_config(seed)),
        digests_("serve", seed, &kServePinned, 1) {}

  const char* name() const override { return "serve"; }
  const char* work_name() const override { return "steps"; }
  const char* item_name() const override { return "requests"; }
  int kinds() const override { return 1; }
  std::size_t warmup_units() const override { return 256; }

  void setup() override {
    harness_ = std::make_unique<core::ServiceHarness>(config_);
    plan_ = harness_->plan();
  }
  void teardown() override {
    harness_.reset();
    plan_ = {};
  }

  UnitResult run(std::size_t u, Tracer* tracer) override {
    const std::size_t index = u % plan_.batches.size();
    const core::AdmissionPlan::Batch& batch = plan_.batches[index];
    UnitResult r;
    const core::BatchOutcome out =
        timed(tracer, "unit.serve", std::int64_t(u), r.seconds,
              [&] { return harness_->run_batch(plan_, index); });
    r.work = static_cast<double>(out.steps);
    r.items = static_cast<double>(batch.size);
    r.error = check(index, batch, out);
    r.ok = r.error.empty();
    return r;
  }

  std::string finish() override {
    std::printf("serve: %lld complete passes over %zu batches\n",
                static_cast<long long>(passes_), plan_.batches.size());
    return passes_ > 0 ? "" : "no complete pass over the plan to check";
  }

 private:
  std::string check(std::size_t index, const core::AdmissionPlan::Batch& batch,
                    const core::BatchOutcome& out) {
    // Every slot decides its client's command.
    if (out.decisions.size() != static_cast<std::size_t>(batch.size)) {
      return "batch " + std::to_string(index) + " has the wrong slot count";
    }
    for (int s = 0; s < batch.size; ++s) {
      const std::int64_t command =
          plan_.admitted[batch.first_admitted + static_cast<std::size_t>(s)]
              .command;
      if (out.decisions[static_cast<std::size_t>(s)] != command) {
        return "batch " + std::to_string(index) + " slot " +
               std::to_string(s) + " did not decide its command";
      }
    }
    if (!out.success || out.decided_ok != batch.size) {
      return "batch " + std::to_string(index) + " decided_ok " +
             std::to_string(out.decided_ok) + " of " +
             std::to_string(batch.size);
    }
    // The traced run repeats each unit at once; a pass counts each
    // batch once.
    if (index == last_index_) return "";
    last_index_ = index;
    if (index == 0) {
      pass_digest_ = 0;
      pass_decided_ok_ = 0;
    }
    pass_decided_ok_ += out.decided_ok;
    pass_digest_ = fold(pass_digest_, static_cast<std::uint64_t>(out.steps));
    pass_digest_ =
        fold(pass_digest_, static_cast<std::uint64_t>(out.witness_bound));
    for (const std::int64_t d : out.decisions) {
      pass_digest_ = fold(pass_digest_, static_cast<std::uint64_t>(d));
    }
    if (index + 1 < plan_.batches.size()) return "";
    // A complete pass over the plan: every accepted request decided.
    ++passes_;
    if (pass_decided_ok_ != plan_.accepted) {
      return "pass decided_ok " + std::to_string(pass_decided_ok_) +
             " != accepted " + std::to_string(plan_.accepted);
    }
    return digests_.check(0, pass_digest_);
  }

  core::ServiceConfig config_;
  DigestBook digests_;
  std::unique_ptr<core::ServiceHarness> harness_;
  core::AdmissionPlan plan_;
  std::size_t last_index_ = SIZE_MAX;
  std::uint64_t pass_digest_ = 0;
  std::int64_t pass_decided_ok_ = 0;
  std::int64_t passes_ = 0;
};

// ---------------------------------------------------------------------
// census: one ranked_pair_scan membership census per unit.

class CensusWorkload final : public Workload {
 public:
  explicit CensusWorkload(std::uint64_t seed)
      : cells_(census_cells(seed)),
        digests_("census", seed, kCensusPinned, cells_.size()),
        schedule_hash_(cells_.size()) {}

  const char* name() const override { return "census"; }
  const char* work_name() const override { return "pairs"; }
  const char* item_name() const override { return "censuses"; }
  int kinds() const override { return static_cast<int>(cells_.size()); }
  std::size_t warmup_units() const override { return cells_.size(); }

  void setup() override {
    runner_ = std::make_unique<core::ExperimentRunner>(runner_options(1));
  }
  void teardown() override { runner_.reset(); }

  UnitResult run(std::size_t u, Tracer* tracer) override {
    UnitResult r;
    r.kind = static_cast<int>(u % cells_.size());
    const core::PairScanConfig& cfg = cells_[static_cast<std::size_t>(r.kind)];
    const core::PairScanResult out =
        timed(tracer, "unit.census", std::int64_t(u), r.seconds,
              [&] { return core::ranked_pair_scan(cfg, *runner_); });
    r.work = static_cast<double>(out.pairs);
    r.items = 1.0;
    r.error = check(r.kind, cfg, out);
    r.ok = r.error.empty();
    return r;
  }

 private:
  std::string check(int kind, const core::PairScanConfig& cfg,
                    const core::PairScanResult& out) {
    const SubsetRanker p_rank(cfg.n, cfg.i);
    const SubsetRanker q_rank(cfg.n, cfg.j);
    std::uint64_t digest = 0;
    for (const std::int64_t v :
         {out.pairs, out.members, static_cast<std::int64_t>(out.found),
          out.found ? p_rank.rank(out.first.timely_set) : -1,
          out.found ? q_rank.rank(out.first.observed_set) : -1,
          out.found ? out.first.bound : -1}) {
      digest = fold(digest, static_cast<std::uint64_t>(v));
    }
    const auto k = static_cast<std::size_t>(kind);
    if (!schedule_hash_[k]) {  // later units of the kind are identical
      const sched::Schedule schedule = census_schedule(cfg);
      schedule_hash_[k] = sched::schedule_hash(schedule);
      std::string error = recheck(cfg, out, schedule, p_rank, q_rank);
      if (!error.empty()) return error;
    }
    return digests_.check(kind, fold(digest, *schedule_hash_[k]));
  }

  /// The census against min_timeliness_bound_reference: the reported
  /// first member is a member with the reported bound, and a seeded
  /// sample of pairs holds no more members than the census counted,
  /// none of them ranked before the first.
  std::string recheck(const core::PairScanConfig& cfg,
                      const core::PairScanResult& out,
                      const sched::Schedule& s, const SubsetRanker& p_rank,
                      const SubsetRanker& q_rank) const {
    const std::int64_t q_count = q_rank.count();
    const std::int64_t total = p_rank.count() * q_count;
    if (out.pairs != total) {
      return "census scanned " + std::to_string(out.pairs) + " of " +
             std::to_string(total) + " pairs";
    }
    if (out.found != (out.members > 0)) return "found/members disagree";
    std::int64_t first = total;  // flat rank of the first member
    if (out.found) {
      const std::int64_t ref = sched::min_timeliness_bound_reference(
          s, out.first.timely_set, out.first.observed_set);
      if (ref != out.first.bound || ref > cfg.bound_cap) {
        return "first member's reference bound " + std::to_string(ref) +
               " vs reported " + std::to_string(out.first.bound);
      }
      first = p_rank.rank(out.first.timely_set) * q_count +
              q_rank.rank(out.first.observed_set);
    }
    Rng rng(cfg.seed ^ 0x5eedc0deULL);
    std::int64_t sampled_members = 0;
    constexpr int kSample = 24;
    for (int x = 0; x < kSample; ++x) {
      // Half the sample from before the first member (all must be
      // non-members), half from anywhere.
      const std::int64_t range = (x % 2 == 0 && first > 0) ? first : total;
      const auto flat = static_cast<std::int64_t>(
          rng.next_below(static_cast<std::uint64_t>(range)));
      if (flat == first) continue;
      const ProcSet p = p_rank.unrank(flat / q_count);
      const ProcSet q = q_rank.unrank(flat % q_count);
      const bool member =
          sched::min_timeliness_bound_reference(s, p, q) <= cfg.bound_cap;
      if (member && flat < first) {
        return "pair ranked before the first member is a member";
      }
      if (member) ++sampled_members;
    }
    if (sampled_members + (out.found ? 1 : 0) > out.members) {
      return "sample holds more members than the census counted";
    }
    return "";
  }

  std::vector<core::PairScanConfig> cells_;
  DigestBook digests_;
  std::vector<std::optional<std::uint64_t>> schedule_hash_;
  std::unique_ptr<core::ExperimentRunner> runner_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "matrix") {
    return std::make_unique<CellWorkload>("matrix", seed, matrix_cells(seed),
                                          kMatrixPinned, true);
  }
  if (name == "adversary") {
    return std::make_unique<CellWorkload>(
        "adversary", seed, adversary_cells(seed), kAdversaryPinned, false);
  }
  if (name == "serve") return std::make_unique<ServeWorkload>(seed);
  if (name == "census") return std::make_unique<CensusWorkload>(seed);
  return nullptr;
}

}  // namespace perfbench
