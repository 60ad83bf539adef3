// perfbench: the benchmark binary.
//
//   perfbench --workload matrix|adversary|serve|census --seed N
//             --seconds S --trace 0|1 [--trace-out PATH]
//   perfbench --probe simd|pool [--seed N] [--threads T]
//
// A run sets up its workload, runs one untimed unit per kind, then runs
// units back to back on one thread for S seconds, checking each unit's
// output outside its timed interval. Set-up is torn down and timed
// again at even intervals through those S seconds; setup_s is the 90th
// percentile of all set-up times. The run prints human-readable lines,
// then, as its last line, one JSON object {"correct", "attempted", "failed", "metrics"} with the
// end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
// It exits 1 when any output check failed. See perfbench/README.md.
#include <malloc.h>
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <exception>
#include <string>
#include <vector>

#include "perfbench/bench.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  std::string probe;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 0.0;  // required with --workload
  bool trace = false;
  std::string trace_out;
  int threads = 1;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr, "perfbench: %s\n", why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--probe") {
      a.probe = value;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      a.trace = value == "1";
    } else if (flag == "--trace-out") {
      a.trace_out = value;
    } else if (flag == "--threads") {
      a.threads = std::atoi(value.c_str());
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (!a.workload.empty() && !(a.seconds > 0.0)) {
    usage("--workload needs a positive --seconds");
  }
  if (a.threads < 1) usage("--threads must be at least 1");
  return a;
}

/// Set-ups timed per run, spread evenly over its measured seconds so
/// they meet the host in the same states as the units do.
constexpr int kSetupRepeats = 64;

/// What a run keeps of each timed unit: small, and in a deque, so the
/// bookkeeping adds little and no doubling spikes to peak_rss_mb.
struct Sample {
  int kind;
  double seconds;
  double work;
  double items;
};

/// Units attempted and failed, and the samples of the timed ones.
struct Tally {
  std::deque<Sample> samples;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;

  void count(const UnitResult& r) {
    ++attempted;
    if (!r.ok && ++failed <= 5) std::printf("FAILED: %s\n", r.error.c_str());
  }
  void add(const UnitResult& r) {
    count(r);
    samples.push_back({r.kind, r.seconds, r.work, r.items});
  }
};

/// Stratified statistics of a run's units: each kind's order statistic
/// first, then combined over one unit of every kind, so the figures do
/// not depend on how many units of each kind fit in the run.
///
/// The reported rates are each kind's 10th-percentile per-unit rate (the
/// rate 90% of units reach) and the tail is its 90th-percentile time:
/// on a shared host these repeat from run to run about twice as closely
/// as the medians, which are printed as diagnostics (README.md).
struct Figures {
  double work_per_s = 0.0;
  double items_per_s = 0.0;
  double p90_ms = 0.0;
  double work_per_s_at_median = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double mean_ms = 0.0;  // plain mean over all units
  std::size_t units = 0;
};

Figures figures(const std::deque<Sample>& units, int kinds) {
  struct Kind {
    std::vector<double> seconds, work, items, work_rate, item_rate;
  };
  using Series = std::vector<double> Kind::*;
  std::vector<Kind> by_kind(static_cast<std::size_t>(kinds));
  double total_s = 0.0;
  for (const Sample& u : units) {
    Kind& k = by_kind[static_cast<std::size_t>(u.kind)];
    k.seconds.push_back(u.seconds);
    k.work.push_back(u.work);
    k.items.push_back(u.items);
    k.work_rate.push_back(u.work / u.seconds);
    k.item_rate.push_back(u.items / u.seconds);
    total_s += u.seconds;
  }
  // One unit of each kind at the kind's q-quantile rate: the kind's
  // median amount over that rate is the unit's time.
  const auto rate = [&](Series amount, Series rate_of, double q) {
    double sum = 0.0, time = 0.0;
    for (const Kind& k : by_kind) {
      if (k.seconds.empty()) continue;
      const double a = median(k.*amount);
      sum += a;
      time += a / quantile(k.*rate_of, q);
    }
    return sum / time;
  };
  const auto time_ms = [&](double q) {
    double sum = 0.0;
    int present = 0;
    for (const Kind& k : by_kind) {
      if (k.seconds.empty()) continue;
      sum += 1e3 * quantile(k.seconds, q);
      ++present;
    }
    return sum / present;
  };
  Figures f;
  f.work_per_s = rate(&Kind::work, &Kind::work_rate, 0.1);
  f.items_per_s = rate(&Kind::items, &Kind::item_rate, 0.1);
  f.p90_ms = time_ms(0.9);
  f.work_per_s_at_median = rate(&Kind::work, &Kind::work_rate, 0.5);
  f.p50_ms = time_ms(0.5);
  f.p99_ms = time_ms(0.99);
  f.mean_ms = units.empty() ? 0.0 : 1e3 * total_s / double(units.size());
  f.units = units.size();
  return f;
}

double peak_rss_mb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void print_result(bool correct, std::int64_t attempted, std::int64_t failed,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              correct ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

/// One unit; a unit that throws counts as a failed check.
UnitResult run_unit(Workload& w, std::size_t u, Tracer* tracer = nullptr) {
  try {
    return w.run(u, tracer);
  } catch (const std::exception& e) {
    UnitResult r;
    r.ok = false;
    r.error = std::string("unit threw: ") + e.what();
    return r;
  }
}

/// Times one set-up. The previous one is torn down before the clock
/// starts, so a sample holds construction only. The freed pages go back
/// to the system first, so every sample builds on fresh pages, as the
/// set-up of a new process does, whatever the run left in the heap.
double time_setup(Workload& w) {
  w.teardown();
#ifdef __GLIBC__
  malloc_trim(0);
#endif
  const Clock::time_point start = Clock::now();
  w.setup();
  return seconds_since(start);
}

/// Runs units from `next` for `seconds` of wall time (checks included)
/// into `plain`, timing a set-up into `setups` every
/// seconds / kSetupRepeats. With a tracer, each unit is run twice in a
/// row, once plain and once traced into `traced`; which goes first
/// alternates with every pass over the kinds, so neither always runs on
/// the other's warm caches.
void run_loop(double seconds, Workload& w, std::size_t& next,
              std::vector<double>& setups, Tally& plain, Tracer* tracer,
              Tally& traced) {
  const double setup_every = seconds / kSetupRepeats;
  const Clock::time_point start = Clock::now();
  while (seconds_since(start) < seconds) {
    if (seconds_since(start) >= double(setups.size()) * setup_every) {
      setups.push_back(time_setup(w));
    }
    const std::size_t u = next++;
    const bool traced_first =
        tracer != nullptr && (u / std::size_t(w.kinds())) % 2 == 1;
    if (traced_first) traced.add(run_unit(w, u, tracer));
    plain.add(run_unit(w, u));
    if (tracer != nullptr && !traced_first) {
      traced.add(run_unit(w, u, tracer));
    }
  }
}

int run_workload(const Args& args) {
  std::unique_ptr<Workload> w = make_workload(args.workload, args.seed);
  if (!w) usage(("unknown workload " + args.workload).c_str());
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              w->name(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0);

  std::vector<double> setups{time_setup(*w)};

  Tally plain;
  Tally traced;
  std::size_t next = 0;
  while (next < w->warmup_units()) plain.count(run_unit(*w, next++));
  Tracer tracer;
  run_loop(args.seconds, *w, next, setups, plain,
           args.trace ? &tracer : nullptr, traced);
  const double rss = peak_rss_mb();  // before the statistics' scratch
  // The whole-run check counts as one more attempted unit.
  std::int64_t attempted = plain.attempted + traced.attempted + 1;
  std::int64_t failed = plain.failed + traced.failed;
  const std::string finish_error = w->finish();
  if (!finish_error.empty()) {
    ++failed;
    std::printf("FAILED: %s\n", finish_error.c_str());
  }

  const Figures f = figures(plain.samples, w->kinds());
  const double setup_s = quantile(setups, 0.9);
  const char* work = w->work_name();
  const char* item = w->item_name();
  std::printf("units %zu (%d kinds), set-ups %zu\n", f.units, w->kinds(),
              setups.size());
  std::printf("metric %s_per_s %.6g 1/s\n", work, f.work_per_s);
  std::printf("metric %s_per_s %.6g 1/s\n", item, f.items_per_s);
  std::printf("metric unit_p90_ms %.6g ms\n", f.p90_ms);
  std::printf("metric setup_s %.6g s\n", setup_s);
  std::printf("metric peak_rss_mb %.6g MB\n", rss);
  std::printf("metric error_rate %.6g share\n",
              attempted > 0 ? double(failed) / double(attempted) : 1.0);
  std::printf("diag %s_per_s_at_median %.6g 1/s\n", work,
              f.work_per_s_at_median);
  std::printf("diag unit_p50_ms %.6g ms\n", f.p50_ms);
  std::printf("diag unit_mean_ms %.6g ms\n", f.mean_ms);
  std::printf("diag unit_p99_ms %.6g ms\n", f.p99_ms);
  std::printf("diag setup_s_min %.6g s\n", quantile(setups, 0.0));
  std::printf("diag setup_s_median %.6g s\n", median(setups));

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"work_per_s", f.work_per_s, "1/s"},
        {"units_per_s", f.items_per_s, "1/s"},
        {"unit_p90_ms", f.p90_ms, "ms"},
        {"setup_s", setup_s, "s"},
        {"peak_rss_mb", rss, "MB"},
    };
  } else {
    const ProbeResult probe = run_layer_probe(args.seed, tracer);
    attempted += probe.attempted;
    failed += probe.failed;
    for (const std::string& e : probe.errors) {
      std::printf("FAILED: %s\n", e.c_str());
    }
    for (const Metric& m : probe.metrics) {
      metrics.push_back(m);
      std::printf("layer %s %.6g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
    const Figures t = figures(traced.samples, w->kinds());
    const double overhead = 1.0 - t.work_per_s / f.work_per_s;
    metrics.push_back({"trace.overhead", overhead, "ratio"});
    std::printf("layer trace.overhead %.6g ratio (traced %s_per_s %.6g vs "
                "%.6g untraced)\n",
                overhead, work, t.work_per_s, f.work_per_s);
    if (!args.trace_out.empty() && !tracer.write_jsonl(args.trace_out)) {
      std::printf("FAILED: cannot write %s\n", args.trace_out.c_str());
      ++failed;
    }
    std::printf("spans %zu written to %s\n", tracer.spans().size(),
                args.trace_out.empty() ? "(nowhere)" : args.trace_out.c_str());
  }
  const bool correct = failed == 0;
  print_result(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

int run_probe(const Args& args) {
  if (args.probe == "simd") {
    print_result(true, 1, 0,
                 {{"pairs_per_s", census_pairs_per_s(args.seed, 3), "1/s"}});
  } else if (args.probe == "pool") {
    print_result(true, 1, 0,
                 {{"section_s", pool_section_seconds(args.seed, args.threads),
                   "s"}});
  } else {
    usage(("unknown probe " + args.probe).c_str());
  }
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Args args = perfbench::parse(argc, argv);
  try {
    return args.probe.empty() ? perfbench::run_workload(args)
                              : perfbench::run_probe(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
