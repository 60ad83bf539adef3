// sweep_orchestrator: multi-process driver for the bench binaries.
//
// An elastic work queue: the virtual cell space is carved into many
// small ranges, M worker loops lease ranges with deadlines and run
// `--cells=LO..HI --json=<shard-dir>/lease_<id>.json` children
// through the runtime::Transport seam; a crashed, hung, or straggling
// worker's lease is split, requeued, and re-leased, and the accepted
// lease documents merge into one --out document bit-identical (modulo
// timing keys) to the unsharded `--json` run. The merged document
// carries the scheduler's accounting under the top-level
// "orchestration" key (a timing key).
//
//   sweep_orchestrator <bench> [--workers=M] [--ranges=R]
//                      [--lease-timeout=SECONDS] [--straggler-factor=F]
//                      [--straggler-min-ms=MS] [--failure-budget=B]
//                      [--backoff-ms=MS] [--backoff-cap-ms=MS]
//                      [--backoff-seed=S] [--chaos-kill-nth=N]
//                      [--chaos-kill-delay-ms=MS] [--out=PATH]
//                      [--shard-dir=DIR] [--keep-shards]
//                      [-- <args forwarded to every worker>]
//
// The chaos flags wrap the transport in runtime::ChaosKillTransport,
// SIGKILLing the N-th launched child after a delay — the CI fixture
// proving that a murdered worker costs nothing but a reshard.
//
// The merge alone is exposed as
//
//   sweep_orchestrator --merge-only --out=PATH SHARD.json...
//
// which merges already-written shard documents (--cells or --shard
// runs whose ranges tile the span).
#include <exception>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/orchestrator.h"
#include "src/core/report.h"
#include "src/core/sweep_cli.h"
#include "src/runtime/transport.h"
#include "src/util/assert.h"
#include "src/util/json.h"

using namespace setlib;

namespace {

constexpr const char* kUsage = R"(usage:
  sweep_orchestrator <bench> [--workers=M] [--ranges=R]
                     [--lease-timeout=SECONDS] [--straggler-factor=F]
                     [--straggler-min-ms=MS] [--failure-budget=B]
                     [--backoff-ms=MS] [--backoff-cap-ms=MS]
                     [--backoff-seed=S] [--chaos-kill-nth=N]
                     [--chaos-kill-delay-ms=MS] [--out=PATH]
                     [--shard-dir=DIR] [--keep-shards]
                     [-- <args forwarded to workers>]
  sweep_orchestrator --merge-only [--out=PATH] SHARD.json...

M worker loops (default 3) lease --cells=LO..HI ranges with
deadlines; dead, hung, or straggling workers have their leases split
and re-leased. The merged --out document (default MERGED.json) is
bit-identical, modulo timing keys, to the unsharded --json run.
--merge-only skips the launching and merges already-written shard
documents whose ranges tile the span.
)";

int fail_usage(const std::string& message) {
  std::cerr << "sweep_orchestrator: " << message << "\n" << kUsage;
  return 2;
}

bool write_file(const std::string& path, const std::string& text) {
  std::ofstream file(path);
  if (!file.good()) return false;
  file << text;
  return file.good();
}

int merge_only(const std::string& out_path,
               const std::vector<std::string>& paths) {
  if (paths.empty()) {
    return fail_usage("--merge-only needs at least one shard document");
  }
  std::vector<JsonValue> docs;
  docs.reserve(paths.size());
  for (const std::string& path : paths) {
    std::ifstream file(path);
    if (!file.good()) {
      std::cerr << "sweep_orchestrator: cannot read " << path << "\n";
      return 1;
    }
    std::ostringstream buffer;
    buffer << file.rdbuf();
    try {
      docs.push_back(JsonValue::parse(buffer.str()));
    } catch (const JsonParseError& e) {
      std::cerr << "sweep_orchestrator: " << path << ": " << e.what()
                << "\n";
      return 1;
    }
  }
  try {
    const JsonValue merged = core::merge_shard_docs(docs);
    if (!write_file(out_path, merged.dump(1))) {
      std::cerr << "sweep_orchestrator: cannot write " << out_path
                << "\n";
      return 1;
    }
    std::cout << "merged " << paths.size() << " shard document"
              << (paths.size() == 1 ? "" : "s") << " -> " << out_path
              << "\n";
    return 0;
  } catch (const core::MergeError& e) {
    std::cerr << "sweep_orchestrator: merge failed: " << e.what()
              << "\n";
    return 1;
  }
}

}  // namespace

int main(int argc, char** argv) {
  core::ElasticOptions options;
  std::string out_path = "MERGED.json";
  bool merge_only_mode = false;
  int chaos_kill_nth = 0;
  int chaos_kill_delay_ms = 0;
  std::vector<std::string> positional;

  try {
    int i = 1;
    for (; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--") {
        // Everything after -- goes to the workers verbatim.
        for (++i; i < argc; ++i) options.bench_args.push_back(argv[i]);
        break;
      }
      if (arg == "--merge-only") {
        merge_only_mode = true;
        continue;
      }
      if (arg == "--keep-shards") {
        options.keep_shards = true;
        continue;
      }
      if (core::consume_int_flag(arg, "--workers=", &options.workers)) {
        if (options.workers < 0) {
          return fail_usage("--workers= must be >= 0");
        }
        continue;
      }
      long ranges = 0;
      if (core::consume_long_flag(arg, "--ranges=", &ranges)) {
        if (ranges < 0) return fail_usage("--ranges= must be >= 0");
        options.ranges = static_cast<std::size_t>(ranges);
        continue;
      }
      int lease_timeout_seconds = 0;
      if (core::consume_int_flag(arg, "--lease-timeout=",
                                 &lease_timeout_seconds)) {
        if (lease_timeout_seconds < 1) {
          return fail_usage("--lease-timeout= must be >= 1 second");
        }
        options.lease_timeout =
            std::chrono::seconds(lease_timeout_seconds);
        continue;
      }
      if (core::consume_double_flag(arg, "--straggler-factor=",
                                    &options.straggler_factor)) {
        if (options.straggler_factor < 0.0) {
          return fail_usage("--straggler-factor= must be >= 0");
        }
        continue;
      }
      int straggler_min_ms = 0;
      if (core::consume_int_flag(arg, "--straggler-min-ms=",
                                 &straggler_min_ms)) {
        if (straggler_min_ms < 0) {
          return fail_usage("--straggler-min-ms= must be >= 0");
        }
        options.straggler_min =
            std::chrono::milliseconds(straggler_min_ms);
        continue;
      }
      long failure_budget = 0;
      if (core::consume_long_flag(arg, "--failure-budget=",
                                  &failure_budget)) {
        if (failure_budget < 0) {
          return fail_usage("--failure-budget= must be >= 0");
        }
        options.failure_budget =
            static_cast<std::size_t>(failure_budget);
        continue;
      }
      int backoff_ms = 0;
      if (core::consume_int_flag(arg, "--backoff-ms=", &backoff_ms)) {
        if (backoff_ms < 0) return fail_usage("--backoff-ms= must be >= 0");
        options.backoff.base = std::chrono::milliseconds(backoff_ms);
        continue;
      }
      int backoff_cap_ms = 0;
      if (core::consume_int_flag(arg, "--backoff-cap-ms=",
                                 &backoff_cap_ms)) {
        if (backoff_cap_ms < 0) {
          return fail_usage("--backoff-cap-ms= must be >= 0");
        }
        options.backoff.cap = std::chrono::milliseconds(backoff_cap_ms);
        continue;
      }
      long backoff_seed = 0;
      if (core::consume_long_flag(arg, "--backoff-seed=",
                                  &backoff_seed)) {
        options.backoff.seed = static_cast<std::uint64_t>(backoff_seed);
        continue;
      }
      if (core::consume_int_flag(arg, "--chaos-kill-nth=",
                                 &chaos_kill_nth)) {
        if (chaos_kill_nth < 1) {
          return fail_usage("--chaos-kill-nth= must be >= 1");
        }
        continue;
      }
      if (core::consume_int_flag(arg, "--chaos-kill-delay-ms=",
                                 &chaos_kill_delay_ms)) {
        if (chaos_kill_delay_ms < 0) {
          return fail_usage("--chaos-kill-delay-ms= must be >= 0");
        }
        continue;
      }
      if (arg.rfind("--out=", 0) == 0) {
        out_path = arg.substr(6);
        if (out_path.empty()) return fail_usage("--out= is empty");
        continue;
      }
      if (arg.rfind("--shard-dir=", 0) == 0) {
        options.shard_dir = arg.substr(12);
        if (options.shard_dir.empty()) {
          return fail_usage("--shard-dir= is empty");
        }
        continue;
      }
      if (arg.rfind("--", 0) == 0) {
        return fail_usage("unknown flag " + arg);
      }
      positional.push_back(arg);
    }
  } catch (const ContractViolation& e) {
    return fail_usage(e.what());
  }

  if (merge_only_mode) return merge_only(out_path, positional);

  if (positional.size() != 1) {
    return fail_usage("expected exactly one bench binary");
  }
  options.bench = positional[0];
  if (options.workers == 0) options.workers = 3;

  runtime::LocalExecTransport local;
  std::unique_ptr<runtime::ChaosKillTransport> chaos;
  options.transport = &local;
  if (chaos_kill_nth >= 1) {
    chaos = std::make_unique<runtime::ChaosKillTransport>(
        local, chaos_kill_nth,
        std::chrono::milliseconds(chaos_kill_delay_ms));
    options.transport = chaos.get();
  }

  const core::ElasticResult result =
      core::orchestrate_elastic(options);
  std::cout << result.summary();
  if (!result.ok()) {
    std::cerr << "sweep_orchestrator: incomplete run, not writing "
              << out_path << "\n";
    return 1;
  }
  if (!write_file(out_path, result.merged.dump(1))) {
    std::cerr << "sweep_orchestrator: cannot write " << out_path
              << " (lease documents kept in " << options.shard_dir
              << ")\n";
    return 1;
  }
  if (!options.keep_shards) {
    core::remove_lease_documents(options, result);
  }
  std::cout << "wrote " << out_path << "\n";
  return 0;
}
