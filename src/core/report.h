// Report sinks: the result pipeline of the experiment surface.
//
// The ExperimentRunner executes a sweep section and streams its
// per-cell (SweepCell, RunReport, wall seconds) triples — in cell
// order, after the parallel phase has drained — into any number of
// ReportSinks. Sinks replace the ad-hoc per-bench output glue:
//
//   - AggregateSink folds the order-deterministic SweepAggregate
//     (success counts, step/bound summaries).
//   - TableSink renders the success-rate matrix grouped by
//     (spec, family) — the table every sweep bench prints.
//   - CollectSink keeps the raw cells + reports for callers that
//     post-process (the Theorem 27 matrix).
//   - JsonSink accumulates BENCH_<name>.json sections: cell counts,
//     wall/throughput, per-cell latency percentiles (util::Summary),
//     and a per-cell row array of the deterministic fields so shard
//     unions can be diffed cell-for-cell against unsharded runs.
//
// Because cells stream in cell order within a shard, and a shard is a
// contiguous slice of the flat index space (ShardSpec), concatenating
// the sink output of a tiling's shards in range order reproduces the
// unsharded output exactly (modulo wall-clock fields).
#ifndef SETLIB_CORE_REPORT_H
#define SETLIB_CORE_REPORT_H

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/core/engine.h"
#include "src/core/sweep.h"
#include "src/util/json.h"
#include "src/util/stats.h"

namespace setlib::core {

/// A half-open slice [lo, hi) of a span-wide virtual cell space. Every
/// real cell space of size total maps it to [total*lo/span,
/// total*hi/span), so ranges that tile [0, span) tile every section,
/// whatever its size (floor arithmetic maps shared boundaries to
/// shared boundaries), and the union of a tiling is bit-identical to
/// the unsharded run. A work queue can carve, split, and re-lease
/// ranges without knowing any section's cell count.
///
/// `--cells=LO..HI[/SPAN]` (the elastic work queue's worker flag)
/// fills the range directly; `--shard=K/N` is sugar for {K, K+1, N}.
/// The default {0, 1, 1} is the whole space.
struct ShardSpec {
  /// Default span of a bare `--cells=LO..HI`; wide enough that
  /// splitting halves stays meaningful far past any real worker count.
  static constexpr std::size_t kLeaseSpan = std::size_t{1} << 20;
  /// Largest legal span, enforced by valid() (so by the CLI parse,
  /// the runner, and range()) and by the merge parse. Its square fits
  /// in 64 bits, which keeps range() overflow-free for any total.
  static constexpr std::size_t kMaxSpan = std::size_t{1} << 30;

  std::size_t lo = 0;
  std::size_t hi = 1;
  std::size_t span = 1;

  /// 0 <= lo <= hi <= span, 1 <= span <= kMaxSpan.
  bool valid() const noexcept {
    return span >= 1 && span <= kMaxSpan && lo <= hi && hi <= span;
  }
  std::string to_string() const;  // "LO..HI/SPAN"
  /// This shard's slice of [0, total), as {begin, end}.
  std::pair<std::size_t, std::size_t> range(std::size_t total) const;

  friend bool operator==(const ShardSpec&, const ShardSpec&) = default;
};

/// Facts about one executed sweep section (one runner.run call).
struct SectionStats {
  std::string name;
  std::size_t grid_cells = 0;  // size of the full (unsharded) space
  std::size_t cells = 0;       // cells actually run (this shard)
  /// The grid's repeat factor (1 for generic loops): global cell
  /// index / repeats is the grid-point id the per-point multi-seed
  /// statistics group by.
  int repeats = 1;
  ShardSpec shard;
  Summary steps;         // per-cell steps_executed (deterministic)
  Summary cell_seconds;  // per-cell wall latency (thread-count dependent)
  // Wall-clock facts (the only thread-count-dependent scalars).
  double wall_seconds = 0.0;
  double runs_per_second = 0.0;
};

/// Streaming consumer of a sweep section. All hooks default to no-ops;
/// cell() is invoked in cell order after the parallel phase drains.
class ReportSink {
 public:
  virtual ~ReportSink() = default;
  virtual void begin_section(const std::string& name,
                             std::size_t grid_cells,
                             const ShardSpec& shard);
  virtual void cell(const SweepCell& cell, const RunReport& report,
                    double seconds);
  virtual void end_section(const SectionStats& stats);
};

/// Order-deterministic fold of the per-cell reports.
struct SweepAggregate {
  std::size_t cells = 0;
  std::size_t successes = 0;
  std::size_t detector_ok = 0;  // abstract k-anti-Omega held
  Summary steps;                // steps_executed per cell
  Summary witness_bound;        // measured (P, Q) bound per cell
  Summary distinct_decisions;
  // Wall-clock facts (the only thread-count-dependent fields).
  double wall_seconds = 0.0;
  double runs_per_second = 0.0;
};

class AggregateSink : public ReportSink {
 public:
  void cell(const SweepCell& cell, const RunReport& report,
            double seconds) override;
  void end_section(const SectionStats& stats) override;

  const SweepAggregate& aggregate() const noexcept { return agg_; }

 private:
  SweepAggregate agg_;
};

/// Raw cells + reports in cell order, for callers that post-process.
class CollectSink : public ReportSink {
 public:
  void cell(const SweepCell& cell, const RunReport& report,
            double seconds) override;

  const std::vector<SweepCell>& cells() const noexcept { return cells_; }
  const std::vector<RunReport>& reports() const noexcept {
    return reports_;
  }

 private:
  std::vector<SweepCell> cells_;
  std::vector<RunReport> reports_;
};

/// Success-rate matrix, one row per (spec, family) group in
/// first-appearance (cell) order. Deterministic at any thread count.
class TableSink : public ReportSink {
 public:
  void cell(const SweepCell& cell, const RunReport& report,
            double seconds) override;

  std::string render() const;

 private:
  struct Group {
    std::size_t cells = 0;
    std::size_t successes = 0;
    std::size_t detector_ok = 0;
    Summary steps;
  };
  std::vector<std::pair<std::string, Group>> groups_;
  std::map<std::string, std::size_t> index_of_;
};

/// How merge_shard_docs recombines a hand-recorded section fact
/// across shards. Counts over a shard's slice (successes, mismatches,
/// census members) sum; facts that are invariants of the run
/// (series_phases, n_max, a cross-check verdict) must agree and are
/// kept verbatim. Timing facts (see is_timing_key) are never merged.
enum class MergeRule {
  kSum,   // shard-local count: shards add up to the unsharded value
  kSame,  // run invariant: every shard (and the full run) agrees
};

/// Accumulates sweep sections and writes BENCH_<name>.json. Grid
/// sections (streamed through the ReportSink hooks) record successes,
/// per-cell latency percentiles, and a per-cell row array of the
/// deterministic fields; hand-fed section() calls cover loops whose
/// results are not RunReports.
///
/// Emission contract (the merge path depends on it): the document
/// always round-trips through a strict JSON parser — strings are
/// escaped, non-finite doubles render as null — and a grid section
/// emits its percentile and dispersion keys (steps_p50/p90/p99,
/// witness_bound_p90, cell_seconds_p50/p90/p99, plus the multi-seed
/// statistics: steps_mean/steps_stddev,
/// witness_bound_mean/witness_bound_stddev, success_rate and the 95%
/// confidence intervals ci_steps_low/high, ci_witness_bound_low/high,
/// ci_success_low/high — Student-t for means, normal approximation
/// for the success proportion) whether or not the shard ran any cells
/// (null when empty), so shard documents are schema-identical. The
/// scalars pool the whole section; the "point_stats" array repeats
/// the same keys per grid point (rows grouped by global index /
/// "repeat_factor"), i.e. per point across its --repeat seeds. All of
/// them are pure functions of the rows; merge_shard_docs recomputes
/// them from the union rows with the same arithmetic
/// (dispersion_stats in report.cpp is the single shared
/// implementation).
class JsonSink : public ReportSink {
 public:
  struct Config {
    std::string name;       // bench name ("thm24_agreement")
    std::string path;       // output path (BENCH_<name>.json)
    bool enabled = false;   // --json given
    int threads = 1;
    int repeat = 1;
    ShardSpec shard;
  };
  explicit JsonSink(Config config);

  void begin_section(const std::string& name, std::size_t grid_cells,
                     const ShardSpec& shard) override;
  void cell(const SweepCell& cell, const RunReport& report,
            double seconds) override;
  void end_section(const SectionStats& stats) override;

  /// Hand-recorded section for sharded loops whose per-index results
  /// are not RunReports (detector rows, ablation scenarios, ...).
  void section(const std::string& name, std::size_t cells,
               double wall_seconds,
               std::vector<std::pair<std::string, double>> extra = {});

  /// Attaches an extra numeric fact to the most recent section. The
  /// MergeRule tells merge_shard_docs how to recombine the fact; keys
  /// annotated kSame are listed in the section's "same_keys" array so
  /// the rule travels with the document.
  void annotate(const std::string& key, double value,
                MergeRule rule = MergeRule::kSum);

  /// The JSON document (also what write_if_requested persists).
  std::string render() const;

  /// Writes the JSON file when --json was requested; prints the path.
  void write_if_requested() const;

 private:
  struct CellRow {
    std::size_t index = 0;  // global (unsharded) cell index
    bool success = false;
    bool detector_ok = false;
    int distinct_decisions = 0;
    std::int64_t steps = 0;
    std::int64_t witness_bound = 0;
    // Replay hash of the executed schedule, rendered as a 16-hex-digit
    // string (JSON numbers are doubles and would corrupt it). Not a
    // timing key: rows concatenate verbatim in shard merges, so the
    // hash is pinned kSame-by-construction across merges and thread
    // counts.
    std::uint64_t schedule_hash = 0;
    // Arena counter deltas of the cell's analysis phase (see
    // RunReport). Deterministic facts, not timing keys: zero rows are
    // the pack-once pipeline's no-heap-traffic evidence.
    std::int64_t allocs_per_op = 0;
    std::int64_t bytes_per_op = 0;
  };
  struct Section {
    std::string name;
    std::size_t cells = 0;
    double wall_seconds = 0.0;
    std::vector<std::pair<std::string, double>> extra;
    std::vector<std::string> same_keys;  // extras annotated kSame
    bool from_grid = false;
    int repeat_factor = 1;      // grid sections: --repeat group width
    std::vector<CellRow> rows;  // grid sections only
  };

  Config config_;
  std::vector<Section> sections_;
  Section pending_;  // grid section currently streaming
  bool streaming_ = false;
};

// ---------------------------------------------------------------------
// Shard-document merging: the recombination rule behind the
// multi-process orchestrator. Given any set of shard documents of one
// bench whose "LO..HI/SPAN" ranges tile the span exactly once (any
// count, any split history, any completion order; a `--shard=K/N`
// set is the tiling {K, K+1, N}), merge_shard_docs produces the
// document the unsharded run would have written, bit-identical modulo
// timing keys:
//
//   - grid sections: the per-cell "rows" arrays concatenate in range
//     order (global indices must stay strictly increasing), and every
//     derived fact (successes, detector_ok, steps percentiles,
//     witness_bound_p90) is recomputed from the union rows with the
//     same Summary arithmetic the unsharded run uses;
//   - hand-fed sections: cells sum; extras sum (kSum) or must agree
//     (kSame, per the section's same_keys list);
//   - timing keys (is_timing_key) are wall-clock facts: wall_seconds
//     sums and runs_per_sec is recomputed, every other timing fact is
//     dropped — they are excluded from determinism diffs by rule.
//
// Inconsistent inputs (gaps or overlaps in the tiling — a missing or
// duplicate shard —, diverging configs, mismatched section sequences)
// throw MergeError rather than producing a silently incomplete
// document.

class MergeError : public std::runtime_error {
 public:
  explicit MergeError(const std::string& what_arg)
      : std::runtime_error(what_arg) {}
};

/// True for wall-clock-derived keys, which no determinism diff may
/// compare: "runs_per_sec", any key containing "wall", "seconds", or
/// "speedup", and "orchestration" (the elastic orchestrator's
/// lease/straggler report — pure scheduling facts). Mirrored by
/// scripts/check_shard_union.py.
bool is_timing_key(const std::string& key);

/// Deep-copies `value` with every is_timing_key object member removed.
JsonValue strip_timing_keys(const JsonValue& value);

/// Serializes with object keys sorted recursively (compact form), so
/// two documents compare bytewise regardless of emission order.
std::string canonical_json(const JsonValue& value);

/// Merges the shard documents of one bench run (any input order)
/// into the unsharded document. Throws MergeError on inconsistency.
JsonValue merge_shard_docs(const std::vector<JsonValue>& docs);

}  // namespace setlib::core

#endif  // SETLIB_CORE_REPORT_H
