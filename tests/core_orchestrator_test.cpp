// core::orchestrate_elastic: the multi-process driver. Fake "bench"
// shell scripts stand in for the real binaries so the tests can
// exercise the failure paths cheaply: a healthy fleet merges, a child
// killed mid-run has its lease resharded, a worker that writes no
// document, writes garbage, or hangs past its lease fails that lease
// and is named in the summary, and a permanently failing fleet aborts
// with its stderr — never silently dropped. The chaos tests SIGKILL
// random workers and assert the merged document stays bit-identical
// to the unsharded reference anyway.
#include "src/core/orchestrator.h"

#include <gtest/gtest.h>

#include <sys/stat.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "src/core/report.h"
#include "src/runtime/transport.h"
#include "src/util/json.h"

namespace setlib::core {
namespace {

class OrchestratorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::path(::testing::TempDir()) /
           ("orch_test_" + std::string(::testing::UnitTest::GetInstance()
                                           ->current_test_info()
                                           ->name()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }

  void TearDown() override { std::filesystem::remove_all(dir_); }

  /// Writes an executable /bin/sh script and returns its path.
  std::string write_script(const std::string& name,
                           const std::string& body) {
    const std::filesystem::path path = dir_ / name;
    {
      std::ofstream file(path);
      file << "#!/bin/sh\n" << body;
    }
    ::chmod(path.c_str(), 0755);
    return path.string();
  }

  /// Script prologue for elastic workers: extracts --cells=LO..HI and
  /// --json=PATH into $lease, $lo, $hi, $out.
  std::string parse_cells() const {
    return R"(for a in "$@"; do
  case "$a" in
    --cells=*) lease=${a#--cells=} ;;
    --json=*) out=${a#--json=} ;;
  esac
done
lo=${lease%%..*}
hi=${lease##*..}
)";
  }

  /// Script epilogue: maps the virtual lease onto a 32-cell space with
  /// the same floor arithmetic ShardSpec::range uses, and writes the
  /// lease document for that slice. Cells across a tiling of the
  /// virtual span always sum to 32.
  std::string write_lease_doc() const {
    return R"(T=32
SPAN=1048576
rlo=$((T*lo/SPAN))
rhi=$((T*hi/SPAN))
cells=$((rhi-rlo))
cat > "$out" <<EOF
{"bench": "fake", "threads": 1, "repeat": 1, "shard": "$lease/$SPAN",
 "sections": [{"name": "s", "cells": $cells, "wall_seconds": 0.5,
               "runs_per_sec": 0}],
 "total_cells": $cells, "total_wall_seconds": 0.5, "runs_per_sec": 0}
EOF
)";
  }

  ElasticOptions elastic_options(const std::string& bench) const {
    ElasticOptions options;
    options.bench = bench;
    options.workers = 2;
    options.ranges = 4;
    options.lease_timeout = std::chrono::seconds(60);
    options.shard_dir = (dir_ / "leases").string();
    options.backoff.base = std::chrono::milliseconds(1);
    return options;
  }

  /// The unsharded reference: one whole-span run of the fake bench,
  /// normalized through the same merge the orchestrator uses.
  JsonValue reference_doc(const std::string& bench) {
    runtime::LocalExecTransport local;
    runtime::TransportCommand command;
    const std::string path = (dir_ / "reference.json").string();
    command.argv = {bench, "--cells=0..1048576", "--json=" + path};
    const runtime::SubprocessResult result = local.run(command);
    EXPECT_TRUE(result.ok()) << result.describe();
    std::ifstream file(path);
    std::ostringstream buffer;
    buffer << file.rdbuf();
    return merge_shard_docs({JsonValue::parse(buffer.str())});
  }

  /// Bit-identical modulo timing keys — the determinism contract.
  static void expect_merge_matches(const JsonValue& merged,
                                   const JsonValue& reference) {
    EXPECT_EQ(canonical_json(strip_timing_keys(merged)),
              canonical_json(strip_timing_keys(reference)));
  }

  std::filesystem::path dir_;
};

TEST_F(OrchestratorTest, BackoffDelayIsDeterministicAndBounded) {
  BackoffOptions options;
  options.base = std::chrono::milliseconds(200);
  options.cap = std::chrono::milliseconds(5'000);
  // Pure function of (seed, stream, attempt).
  EXPECT_EQ(backoff_delay(options, 3, 2), backoff_delay(options, 3, 2));
  // The first try never waits.
  EXPECT_EQ(backoff_delay(options, 0, 0).count(), 0);
  // Attempt 1: jittered [base/2, base].
  const auto first = backoff_delay(options, 1, 1);
  EXPECT_GE(first.count(), 100);
  EXPECT_LE(first.count(), 200);
  // Attempt 2 doubles the nominal delay: [base, 2*base].
  const auto second = backoff_delay(options, 1, 2);
  EXPECT_GE(second.count(), 200);
  EXPECT_LE(second.count(), 400);
  // Deep attempts saturate at the cap.
  EXPECT_LE(backoff_delay(options, 1, 40).count(), 5'000);
  EXPECT_GE(backoff_delay(options, 1, 40).count(), 2'500);
  // Streams de-synchronize: different shards draw different jitter.
  BackoffOptions wide;
  wide.base = std::chrono::milliseconds(1 << 20);
  wide.cap = std::chrono::milliseconds(1 << 30);
  EXPECT_NE(backoff_delay(wide, 0, 1), backoff_delay(wide, 1, 1));
  // Disabled backoff (base 0) never sleeps.
  BackoffOptions off;
  off.base = std::chrono::milliseconds(0);
  EXPECT_EQ(backoff_delay(off, 1, 5).count(), 0);
}

TEST_F(OrchestratorTest, ElasticHealthyFleetMergesBitIdentical) {
  const std::string bench =
      write_script("happy.sh", parse_cells() + write_lease_doc());
  ElasticOptions options = elastic_options(bench);
  const ElasticResult result = orchestrate_elastic(options);
  ASSERT_TRUE(result.ok()) << result.summary();
  EXPECT_EQ(result.queue.leases_issued, 4u);
  EXPECT_EQ(result.queue.leases_completed, 4u);
  EXPECT_EQ(result.queue.leases_failed, 0u);
  EXPECT_EQ(result.merged.at("total_cells").as_int(), 32);
  EXPECT_EQ(result.merged.at("shard").as_string(), ShardSpec{}.to_string());
  // The scheduler's accounting rides in the merged document, under a
  // timing key.
  const JsonValue& orch = result.merged.at("orchestration");
  EXPECT_EQ(orch.at("leases_completed").as_int(), 4);
  EXPECT_EQ(orch.at("transport").as_string(), "local");
  EXPECT_TRUE(is_timing_key("orchestration"));
  expect_merge_matches(result.merged, reference_doc(bench));
  // Lease documents outlive the merge until explicitly removed.
  for (const LeaseRun& run : result.leases) {
    EXPECT_TRUE(std::filesystem::exists(run.json_path));
  }
  remove_lease_documents(options, result);
  EXPECT_FALSE(std::filesystem::exists(options.shard_dir));
}

TEST_F(OrchestratorTest, ElasticRandomKillsReshardAndMergeBitIdentical) {
  // The first three invocations each grab a kill token (mkdir is the
  // atomic test-and-set) and SIGKILL themselves mid-run; the reshards
  // redistribute their leases across the survivors.
  const std::string bench = write_script(
      "chaos.sh",
      parse_cells() + "for n in 1 2 3; do\n  if mkdir \"" +
          dir_.string() +
          "/kill_$n\" 2>/dev/null; then kill -9 $$; fi\ndone\n" +
          write_lease_doc());
  ElasticOptions options = elastic_options(bench);
  options.workers = 3;
  options.ranges = 6;
  const ElasticResult result = orchestrate_elastic(options);
  ASSERT_TRUE(result.ok()) << result.summary();
  EXPECT_EQ(result.queue.leases_failed, 3u);
  EXPECT_GE(result.queue.leases_resharded, 1u);
  EXPECT_EQ(result.merged.at("total_cells").as_int(), 32);
  // All kill tokens are spent, so the reference run is clean.
  expect_merge_matches(result.merged, reference_doc(bench));
  const std::string summary = result.summary();
  EXPECT_NE(summary.find("signal 9"), std::string::npos);
}

TEST_F(OrchestratorTest, ElasticChaosTransportKillForcesReshard) {
  // The transport decorator murders the first launch as it starts;
  // the sleep keeps the victim alive long enough to be caught.
  const std::string bench = write_script(
      "slow_start.sh", parse_cells() + "sleep 0.2\n" + write_lease_doc());
  ElasticOptions options = elastic_options(bench);
  runtime::LocalExecTransport local;
  runtime::ChaosKillTransport chaos(local, 1,
                                    std::chrono::milliseconds(0));
  options.transport = &chaos;
  const ElasticResult result = orchestrate_elastic(options);
  ASSERT_TRUE(result.ok()) << result.summary();
  EXPECT_EQ(chaos.kills(), 1);
  EXPECT_GE(result.queue.leases_failed, 1u);
  EXPECT_GE(result.queue.leases_resharded, 1u);
  EXPECT_EQ(result.merged.at("orchestration").at("transport").as_string(),
            "local+chaos-kill");
  expect_merge_matches(result.merged, reference_doc(bench));
}

TEST_F(OrchestratorTest, ElasticStragglerIsSupersededAndDiscarded) {
  // The first invocation grabs the "slow" token and sleeps; everyone
  // else is instant. The idle worker supersedes the straggler, whose
  // own (eventually successful) completion must be discarded — not
  // double-counted.
  const std::string bench = write_script(
      "straggler.sh",
      parse_cells() + "if mkdir \"" + dir_.string() +
          "/slow\" 2>/dev/null; then sleep 1; fi\n" + write_lease_doc());
  ElasticOptions options = elastic_options(bench);
  options.ranges = 2;
  options.straggler_factor = 2.0;
  options.straggler_min = std::chrono::milliseconds(50);
  const ElasticResult result = orchestrate_elastic(options);
  ASSERT_TRUE(result.ok()) << result.summary();
  EXPECT_EQ(result.queue.leases_superseded, 1u);
  EXPECT_GE(result.queue.leases_resharded, 1u);
  EXPECT_EQ(result.queue.completions_discarded, 1u);
  // A straggler is slow, not broken: no failure budget spent.
  EXPECT_EQ(result.queue.failures_spent, 0u);
  EXPECT_EQ(result.merged.at("total_cells").as_int(), 32);
  expect_merge_matches(result.merged, reference_doc(bench));
}

TEST_F(OrchestratorTest, ElasticFailureBudgetAbortsThePoisonedRun) {
  const std::string bench =
      write_script("broken.sh", "echo doomed >&2\nexit 3\n");
  ElasticOptions options = elastic_options(bench);
  options.failure_budget = 2;
  const ElasticResult result = orchestrate_elastic(options);
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.merged.is_null());  // never silently incomplete
  EXPECT_NE(result.queue.abort_reason.find("failure budget"),
            std::string::npos);
  const std::string summary = result.summary();
  EXPECT_NE(summary.find("ABORTED"), std::string::npos);
  EXPECT_NE(summary.find("doomed"), std::string::npos);
}

/// Expects a run whose every lease failed: no merge, the budget
/// spent, and each failed lease named in the summary with `error`.
void expect_failed_leases(const ElasticResult& result,
                          const std::string& error) {
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.merged.is_null());  // never reaches the merge
  EXPECT_EQ(result.queue.leases_completed, 0u);
  ASSERT_FALSE(result.leases.empty());
  const std::string summary = result.summary();
  for (const LeaseRun& run : result.leases) {
    EXPECT_FALSE(run.ok);
    EXPECT_FALSE(run.accepted);
    EXPECT_NE(run.error.find(error), std::string::npos) << run.error;
    EXPECT_NE(summary.find("lease " + std::to_string(run.lease) + " [" +
                           std::to_string(run.lo) + ".." +
                           std::to_string(run.hi) + ") worker " +
                           std::to_string(run.worker) + " FAILED: "),
              std::string::npos)
        << summary;
  }
}

TEST_F(OrchestratorTest, SilentWorkerWithoutDocumentIsAFailure) {
  const std::string bench = write_script("silent.sh", "exit 0\n");
  ElasticOptions options = elastic_options(bench);
  options.failure_budget = 2;
  expect_failed_leases(orchestrate_elastic(options), "wrote no");
}

TEST_F(OrchestratorTest, UnparsableDocumentIsAFailure) {
  const std::string bench = write_script(
      "garbage.sh", parse_cells() + "echo 'not json' > \"$out\"\n");
  ElasticOptions options = elastic_options(bench);
  options.failure_budget = 2;
  expect_failed_leases(orchestrate_elastic(options), "unparsable");
}

TEST_F(OrchestratorTest, HungChildIsTimedOut) {
  // The lease timeout doubles as the child's transport timeout, so a
  // hung child is killed instead of holding its lease forever.
  const std::string bench = write_script("hang.sh", "sleep 60\n");
  ElasticOptions options = elastic_options(bench);
  options.lease_timeout = std::chrono::milliseconds(300);
  options.failure_budget = 2;
  const auto start = std::chrono::steady_clock::now();
  const ElasticResult result = orchestrate_elastic(options);
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::seconds(30));
  expect_failed_leases(result, "timed out");
  for (const LeaseRun& run : result.leases) {
    EXPECT_TRUE(run.last.timed_out);
  }
}

}  // namespace
}  // namespace setlib::core
