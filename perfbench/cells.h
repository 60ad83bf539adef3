// The fixed unit kinds of the four workloads, shared by the timed loops
// (workloads.cpp) and the traced layer probe (probe.cpp).
#ifndef PERFBENCH_CELLS_H
#define PERFBENCH_CELLS_H

#include <cstdint>
#include <vector>

#include "src/core/engine.h"
#include "src/core/experiments.h"
#include "src/core/runner.h"
#include "src/core/service.h"
#include "src/sched/schedule.h"

namespace perfbench {

/// Steps of every matrix / adversary cell (run_full_budget, so every
/// cell executes exactly this many).
inline constexpr std::int64_t kMatrixSteps = 900'000;
inline constexpr std::int64_t kAdversarySteps = 600'000;

/// Theorem 27 matrix cells, one per kind: two specs, and for each the
/// three oblivious families of core::thm27_matrix's cell space.
std::vector<setlib::core::RunConfig> matrix_cells(std::uint64_t seed);

/// Reactive-adversary cells: the three reactive families on two
/// (spec, system) pairs, seeded per kind from `seed`.
std::vector<setlib::core::RunConfig> adversary_cells(std::uint64_t seed);

/// Membership censuses: kind 0 = enforced witness, kind 1 = i-subset
/// starver (enforced_bound 0).
std::vector<setlib::core::PairScanConfig> census_cells(std::uint64_t seed);

setlib::core::ServiceConfig serve_config(std::uint64_t seed);

/// The schedule core::ranked_pair_scan scans for `cfg`, generated here
/// from the same public generators (the census oracle's input).
setlib::sched::Schedule census_schedule(
    const setlib::core::PairScanConfig& cfg);

/// Options of an ExperimentRunner with `threads` pool workers.
inline setlib::core::RunnerOptions runner_options(int threads) {
  setlib::core::RunnerOptions options;
  options.name = "perfbench";
  options.threads = threads;
  return options;
}

/// Order-sensitive 64-bit fold used for the pinned digests.
inline std::uint64_t fold(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h * 0xff51afd7ed558ccdULL;
}

}  // namespace perfbench

#endif  // PERFBENCH_CELLS_H
