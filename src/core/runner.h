// The unified experiment surface: one session-style object that owns
// the executor, the cell space, and the result pipeline.
//
// ExperimentRunner holds a persistent runtime::WorkStealingPool that is
// reused across every sweep section of a binary (worker threads spawn
// once, at construction). A single run() entry point executes either a
// SweepGrid (streaming per-cell RunReports into ReportSinks, in cell
// order) or a generic indexed loop; map() is the typed convenience for
// loops that collect results.
//
// Sharding: RunnerOptions::shard = {lo, hi, span} restricts every
// cell space to its [lo, hi) slice of a span-wide virtual space — cell
// configs are pure functions of the global index, so the union of a
// tiling's shard runs is bit-identical to the unsharded run (modulo
// wall-clock fields). `--cells=LO..HI[/SPAN]` and its `--shard=K/N`
// sugar on any bench fall out of this.
//
// Batching: RunnerOptions::grain chunks the work-stealing index pops;
// 0 picks an automatic grain (1 for the usual milliseconds-heavy
// cells, larger on huge cheap-cell spaces) to cut steal overhead.
#ifndef SETLIB_CORE_RUNNER_H
#define SETLIB_CORE_RUNNER_H

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/core/report.h"
#include "src/core/sweep.h"
#include "src/runtime/executor.h"
#include "src/util/arena.h"

namespace setlib::core {

struct RunnerOptions {
  std::string name;       // experiment name (JSON default path stem)
  int threads = 1;        // pool width; 0 = hardware concurrency
  int repeat = 1;         // repeat factor benches feed into grids
  ShardSpec shard;        // {lo, hi, span} slice of every cell space
  std::size_t grain = 0;  // indices per steal chunk; 0 = auto
  bool json = false;
  std::string json_path;  // defaults to BENCH_<name>.json
};

/// Wall-clock stopwatch for sweep sections.
class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  double seconds() const {
    const std::chrono::duration<double> d =
        std::chrono::steady_clock::now() - start_;
    return d.count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

class ExperimentRunner {
 public:
  explicit ExperimentRunner(RunnerOptions options = {});

  const RunnerOptions& options() const noexcept { return options_; }

  /// The persistent pool — one set of worker threads for the runner's
  /// whole lifetime, reused by every run()/map() call.
  runtime::WorkStealingPool& pool() noexcept { return pool_; }

  /// The calling thread's per-worker-slot arena. Inside a run()/map()
  /// callback each participating thread gets its own arena (indexed by
  /// the pool's worker slot), so callbacks may use it without locking.
  /// Grid runs reset the arena before each cell — the determinism
  /// contract in src/util/arena.h makes the per-cell counter deltas
  /// independent of thread count and cell order.
  util::ArenaAllocator& worker_arena() noexcept {
    return *arenas_[pool_.current_slot()];
  }

  /// A JsonSink wired to this runner's options (name, path, shard).
  JsonSink json_sink() const;

  /// This runner's half-open slice of a flat index space [0, total).
  std::pair<std::size_t, std::size_t> shard_range(
      std::size_t total) const {
    return options_.shard.range(total);
  }

  /// Grid entry point: materializes this shard's cells, runs
  /// run_agreement on each through the pool, then streams
  /// (cell, report, seconds) to every sink in cell order.
  SectionStats run(const SweepGrid& grid, const std::string& name,
                   const std::vector<ReportSink*>& sinks = {});

  /// Generic indexed loop over this shard of [0, n); fn receives
  /// global indices, each exactly once.
  SectionStats run(std::size_t n, const std::string& name,
                   const std::function<void(std::size_t)>& fn);

  /// Generic map over this shard of [0, n): out[i] holds the result
  /// of global index shard_range(n).first + i, in index order — so
  /// concatenating the shards' vectors reproduces the unsharded map.
  template <typename T>
  std::vector<T> map(std::size_t n,
                     const std::function<T(std::size_t)>& fn) {
    const auto [begin, end] = shard_range(n);
    std::vector<T> out(end - begin);
    if (!out.empty()) {
      pool_.for_each(
          out.size(), [&](std::size_t i) { out[i] = fn(begin + i); },
          grain_for(out.size()));
    }
    return out;
  }

 private:
  std::size_t grain_for(std::size_t count) const;

  RunnerOptions options_;
  runtime::WorkStealingPool pool_;
  // One arena per pool worker slot (slot 0 doubles as the submitting
  // thread). unique_ptrs: arenas are non-movable and the vector is
  // sized once at construction.
  std::vector<std::unique_ptr<util::ArenaAllocator>> arenas_;
};

}  // namespace setlib::core

#endif  // SETLIB_CORE_RUNNER_H
