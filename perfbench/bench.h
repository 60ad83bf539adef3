// Shared pieces of the perfbench binary: the workload interface, the
// stopwatch, order statistics, and the span recorder of the traced run.
//
// Everything timed here wraps one public call of the library (see
// perfbench/README.md); every output check runs outside the timed
// interval and shares no code with the call it checks.
#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// The seed whose unit digests are pinned (see the k*Pinned tables).
inline constexpr std::uint64_t kDefaultSeed = 1;

/// q-quantile (q in [0, 1]) by linear interpolation between order
/// statistics; the input need not be sorted. NaN on empty input.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

// ---------------------------------------------------------------------
// Spans of the traced run: name, start, end, parent and unit id, kept
// in memory and written out as JSON lines when the run ends.
class Tracer {
 public:
  struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;  // index into spans(), -1 = root
    std::int64_t unit = -1;
    double seconds() const {
      return 1e-9 * static_cast<double>(end_ns - start_ns);
    }
  };

  /// RAII span; nests under the innermost open span.
  class Scope {
   public:
    Scope(Tracer& tracer, std::string name, std::int64_t unit);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    double seconds() const;  // valid after close()
    void close();

   private:
    Tracer& tracer_;
    int id_;
    bool open_ = true;
  };

  const std::vector<Span>& spans() const noexcept { return spans_; }
  /// Durations (s) of every closed span called `name`.
  std::vector<double> durations(const std::string& name) const;
  bool write_jsonl(const std::string& path) const;

 private:
  std::int64_t now_ns() const;

  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Times one library call. With a tracer the call runs inside a span
/// named `span`, and the interval is taken around the span, so it holds
/// everything tracing adds: the name, the span's clock reads and record.
template <class Call>
auto timed(Tracer* tracer, const char* span, std::int64_t unit,
           double& seconds, Call&& call) {
  const Clock::time_point start = Clock::now();
  std::optional<Tracer::Scope> scope;
  if (tracer != nullptr) scope.emplace(*tracer, span, unit);
  auto out = call();
  scope.reset();
  seconds = seconds_since(start);
  return out;
}

/// One timed unit: one call into the library plus its output check.
struct UnitResult {
  int kind = 0;          // stratum (cell kind, census kind; serve: 0)
  double seconds = 0.0;  // wall time of the timed call only
  double work = 0.0;     // simulated steps, or scanned pairs (census)
  double items = 0.0;    // cells, requests, or censuses
  bool ok = true;        // the output check passed
  std::string error;     // first failed check, when !ok
};

/// A workload: a closed loop with one worker over a fixed list of unit
/// kinds, unit u being of kind u % kinds() (serve: batch u of the plan).
class Workload {
 public:
  virtual ~Workload() = default;
  virtual const char* name() const = 0;
  /// What work and items count ("steps", "pairs"; "cells", "requests",
  /// "censuses"), for the human-readable metric names.
  virtual const char* work_name() const = 0;
  virtual const char* item_name() const = 0;
  virtual int kinds() const = 0;
  /// Everything before the first timed unit (runner and pool; plus the
  /// admission plan on serve). Timed again during the run, each time
  /// after teardown(); the units use the state of the last call.
  virtual void setup() = 0;
  /// Frees what setup() built (nothing before the first setup()), so
  /// that set-up can be timed alone.
  virtual void teardown() = 0;
  /// Units to run untimed before measuring (caches, lazy state).
  virtual std::size_t warmup_units() const { return 0; }
  /// Runs unit `u`, timing only the library call via timed(); with a
  /// tracer, the call runs inside a span "unit.<name>".
  virtual UnitResult run(std::size_t u, Tracer* tracer) = 0;
  /// Checks that need the whole run (complete passes over the serving
  /// plan); returns "" when they hold.
  virtual std::string finish() { return ""; }
};

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed);

/// One reported figure: name, value, unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The layer probe's per-layer metrics and its own output checks. The
/// probe is the same whichever workload the traced run names.
struct ProbeResult {
  std::vector<Metric> metrics;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> errors;
};
ProbeResult run_layer_probe(std::uint64_t seed, Tracer& tracer);

/// Census pairs/s with whatever kernel table the process selected
/// (SETLIB_FORCE_SCALAR=1 pins the scalar one); median of `reps`.
double census_pairs_per_s(std::uint64_t seed, int reps);

/// Wall seconds of one fixed section of matrix cells through an
/// ExperimentRunner of `threads` workers.
double pool_section_seconds(std::uint64_t seed, int threads);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H
