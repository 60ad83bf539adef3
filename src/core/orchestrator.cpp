#include "src/core/orchestrator.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <thread>

#include "src/util/assert.h"
#include "src/util/rng.h"
#include "src/util/sync.h"

namespace setlib::core {

namespace {

/// Reads a whole file; false when it cannot be opened.
bool read_file(const std::string& path, std::string& out) {
  std::ifstream file(path, std::ios::binary);
  if (!file.good()) return false;
  std::ostringstream buffer;
  buffer << file.rdbuf();
  out = buffer.str();
  return true;
}

/// Trims a stderr capture for the failure report: last `limit` bytes,
/// whole lines.
std::string stderr_excerpt(const std::string& err,
                           std::size_t limit = 2000) {
  if (err.empty()) return "(empty)";
  std::string text = err;
  if (text.size() > limit) {
    text = text.substr(text.size() - limit);
    const std::size_t nl = text.find('\n');
    if (nl != std::string::npos && nl + 1 < text.size()) {
      text = text.substr(nl + 1);
    }
    text.insert(0, "[...]\n");
  }
  return text;
}

}  // namespace

std::chrono::milliseconds backoff_delay(const BackoffOptions& options,
                                        std::uint64_t stream,
                                        int attempt) {
  if (attempt < 1 || options.base.count() <= 0) {
    return std::chrono::milliseconds{0};
  }
  // base * 2^(attempt-1), saturated at cap (the shift is clamped well
  // below the doubling count that could overflow).
  const int exponent = std::min(attempt - 1, 30);
  double nominal = static_cast<double>(options.base.count()) *
                   static_cast<double>(std::uint64_t{1} << exponent);
  nominal = std::min(nominal, static_cast<double>(options.cap.count()));
  // Deterministic jitter in [0.5, 1.0]: splitmix64 over (seed, stream,
  // attempt). splitmix64 is a bijective scrambler, so nearby streams
  // and attempts land on unrelated fractions.
  std::uint64_t state = options.seed +
                        stream * 0x9E3779B97F4A7C15ull +
                        static_cast<std::uint64_t>(attempt);
  const std::uint64_t bits = splitmix64(state);
  const double unit =
      static_cast<double>(bits >> 11) / 9007199254740992.0;  // [0, 1)
  const double jittered = nominal * (0.5 + 0.5 * unit);
  return std::chrono::milliseconds{
      static_cast<std::int64_t>(jittered)};
}

bool ElasticResult::ok() const {
  return merge_error.empty() && queue.abort_reason.empty() &&
         queue.leases_completed > 0;
}

std::string ElasticResult::summary() const {
  std::ostringstream os;
  os << "elastic: " << queue.leases_issued << " leases over "
     << queue.initial_ranges << " initial ranges (span " << queue.span
     << "): " << queue.leases_completed << " completed, "
     << queue.leases_failed << " failed, " << queue.leases_expired
     << " expired, " << queue.leases_superseded << " superseded, "
     << queue.leases_resharded << " resharded, "
     << queue.completions_discarded << " completions discarded\n";

  // Per-worker totals over accepted leases.
  std::map<int, std::pair<std::size_t, double>> per_worker;
  for (const LeaseRun& run : leases) {
    if (!run.accepted) continue;
    auto& [cells, wall] = per_worker[run.worker];
    cells += run.hi - run.lo;
    wall += run.last.wall_seconds;
  }
  for (const auto& [worker, totals] : per_worker) {
    os << "  worker " << worker << ": " << totals.first
       << " virtual cells in " << totals.second << " s\n";
  }
  for (const LeaseEvent& event : queue.events) {
    os << "  " << lease_event_kind_name(event.kind) << " lease "
       << event.lease << " [" << event.lo << ".." << event.hi
       << ") worker " << event.worker
       << (event.split ? " (resharded)" : "") << ": " << event.detail
       << "\n";
  }
  for (const LeaseRun& run : leases) {
    if (run.ok || run.error.empty()) continue;
    os << "  lease " << run.lease << " [" << run.lo << ".." << run.hi
       << ") worker " << run.worker << " FAILED: " << run.error
       << "\n    stderr: " << stderr_excerpt(run.last.err) << "\n";
  }
  if (!queue.abort_reason.empty()) {
    os << "ABORTED: " << queue.abort_reason << "\n";
  }
  if (!merge_error.empty()) {
    os << "merge: FAILED: " << merge_error << "\n";
  }
  return os.str();
}

ElasticResult orchestrate_elastic(const ElasticOptions& options) {
  SETLIB_EXPECTS(!options.bench.empty());
  SETLIB_EXPECTS(options.workers >= 1);
  SETLIB_EXPECTS(options.span >= 1 &&
                 options.span <= ShardSpec::kMaxSpan);
  SETLIB_EXPECTS(options.lease_timeout.count() > 0);
  SETLIB_EXPECTS(!options.shard_dir.empty());

  std::filesystem::create_directories(options.shard_dir);

  runtime::LocalExecTransport local;
  runtime::Transport* transport =
      options.transport ? options.transport : &local;

  WorkQueueOptions queue_options;
  queue_options.span = options.span;
  queue_options.ranges = options.ranges;
  queue_options.workers = options.workers;
  queue_options.lease_timeout = options.lease_timeout;
  queue_options.straggler_factor = options.straggler_factor;
  queue_options.straggler_min = options.straggler_min;
  queue_options.failure_budget = options.failure_budget;
  queue_options.clock = options.clock;
  WorkQueue queue(queue_options);

  ElasticResult result;
  util::Mutex mu;  // guards result.leases and accepted docs
  // Accepted documents with their virtual lo, for the merge ordering.
  std::vector<std::pair<std::size_t, JsonValue>> accepted;

  auto run_worker = [&](int worker) {
    int failure_streak = 0;
    for (;;) {
      std::optional<Lease> lease = queue.acquire(worker);
      if (!lease) return;

      LeaseRun run;
      run.lease = lease->id;
      run.lo = lease->lo;
      run.hi = lease->hi;
      run.worker = worker;
      run.json_path = options.shard_dir + "/lease_" +
                      std::to_string(lease->id) + ".json";

      runtime::TransportCommand command;
      command.argv.reserve(options.bench_args.size() + 3);
      command.argv.push_back(options.bench);
      command.argv.insert(command.argv.end(),
                          options.bench_args.begin(),
                          options.bench_args.end());
      // The issue's worker flag: bare LO..HI rides on the default
      // span; a non-default span travels explicitly.
      std::string cells = "--cells=" + std::to_string(lease->lo) +
                          ".." + std::to_string(lease->hi);
      if (options.span != ShardSpec::kLeaseSpan) {
        cells += "/" + std::to_string(options.span);
      }
      command.argv.push_back(cells);
      command.argv.push_back("--json=" + run.json_path);
      // A local child cannot outlive its lease.
      command.timeout = options.lease_timeout;

      std::error_code ignored;
      std::filesystem::remove(run.json_path, ignored);

      run.last = transport->run(command);
      std::string text;
      JsonValue doc;
      if (!run.last.ok()) {
        run.error = run.last.describe();
      } else if (!read_file(run.json_path, text)) {
        run.error = "worker exited 0 but wrote no " + run.json_path;
      } else {
        try {
          doc = JsonValue::parse(text);
        } catch (const JsonParseError& e) {
          run.error =
              std::string("worker wrote unparsable JSON: ") + e.what();
        }
      }

      if (run.error.empty()) {
        run.ok = true;
        run.accepted = queue.complete(lease->id);
        failure_streak = 0;
        const util::MutexLock lock(mu);
        if (run.accepted) {
          accepted.emplace_back(run.lo, std::move(doc));
        }
        result.leases.push_back(std::move(run));
      } else {
        queue.fail(lease->id, run.error);
        ++failure_streak;
        {
          const util::MutexLock lock(mu);
          result.leases.push_back(std::move(run));
        }
        // A worker whose children keep dying backs off before leasing
        // again, so a poisoned environment cannot spin through the
        // failure budget at full speed.
        std::this_thread::sleep_for(backoff_delay(
            options.backoff, static_cast<std::uint64_t>(worker),
            failure_streak));
      }
    }
  };

  {
    std::vector<std::jthread> threads;
    threads.reserve(static_cast<std::size_t>(options.workers));
    for (int w = 0; w < options.workers; ++w) {
      threads.emplace_back(run_worker, w);
    }
  }

  result.queue = queue.report();

  if (result.queue.abort_reason.empty() && !accepted.empty()) {
    std::sort(accepted.begin(), accepted.end(),
              [](const auto& a, const auto& b) {
                return a.first < b.first;
              });
    std::vector<JsonValue> docs;
    docs.reserve(accepted.size());
    for (auto& [lo, doc] : accepted) docs.push_back(std::move(doc));
    try {
      result.merged = merge_shard_docs(docs);
      // The scheduler's accounting rides along under a timing key:
      // pure wall-clock/scheduling facts, excluded from determinism
      // diffs by is_timing_key("orchestration").
      JsonValue orchestration = result.queue.to_json();
      orchestration.set("transport",
                        JsonValue::of(transport->describe()));
      orchestration.set(
          "workers",
          JsonValue::of(static_cast<std::int64_t>(options.workers)));
      result.merged.set("orchestration", std::move(orchestration));
    } catch (const MergeError& e) {
      result.merge_error = e.what();
    }
  }

  return result;
}

void remove_lease_documents(const ElasticOptions& options,
                            const ElasticResult& result) {
  for (const LeaseRun& run : result.leases) {
    std::error_code ignored;
    std::filesystem::remove(run.json_path, ignored);
  }
  std::error_code ignored;
  std::filesystem::remove(options.shard_dir, ignored);  // if now empty
}

}  // namespace setlib::core
