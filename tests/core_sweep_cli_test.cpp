// The shared bench CLI: strict integer parsing. Overflowing values
// must be rejected (strtol saturates with errno=ERANGE, which used to
// pass silently as LONG_MAX), long->int narrowing must not wrap, and
// malformed values fail with a message naming the flag.
#include "src/core/sweep_cli.h"

#include <gtest/gtest.h>

#include <climits>
#include <string>
#include <utility>
#include <vector>

#include "src/util/assert.h"

namespace setlib::core {
namespace {

RunnerOptions parse(std::vector<std::string> args) {
  std::vector<char*> argv;
  static std::string prog = "prog";
  argv.push_back(prog.data());
  for (std::string& arg : args) argv.push_back(arg.data());
  int argc = static_cast<int>(argv.size());
  return parse_runner_options(&argc, argv.data(), "cli_test");
}

TEST(SweepCliTest, ParsesAndStripsTheSharedFlags) {
  const RunnerOptions options =
      parse({"--threads=4", "--repeat=3", "--shard=1/3", "--grain=16",
             "--json=out.json"});
  EXPECT_EQ(options.threads, 4);
  EXPECT_EQ(options.repeat, 3);
  EXPECT_EQ(options.shard, (ShardSpec{1, 2, 3}));
  EXPECT_EQ(options.grain, 16u);
  EXPECT_TRUE(options.json);
  EXPECT_EQ(options.json_path, "out.json");
}

TEST(SweepCliTest, UnrecognizedArgsSurviveInOrder) {
  std::vector<std::string> args = {"--benchmark_list_tests",
                                   "--threads=2", "positional"};
  std::vector<char*> argv;
  std::string prog = "prog";
  argv.push_back(prog.data());
  for (std::string& arg : args) argv.push_back(arg.data());
  int argc = static_cast<int>(argv.size());
  parse_runner_options(&argc, argv.data(), "cli_test");
  ASSERT_EQ(argc, 3);
  EXPECT_STREQ(argv[1], "--benchmark_list_tests");
  EXPECT_STREQ(argv[2], "positional");
}

TEST(SweepCliTest, OverflowingLongIsRejectedNotSaturated) {
  // 20 nines saturate strtol to LONG_MAX with errno=ERANGE; the old
  // parser accepted that as a value.
  EXPECT_THROW(parse({"--grain=99999999999999999999"}),
               ContractViolation);
}

TEST(SweepCliTest, HugeIntFlagDoesNotWrap) {
  // Fits in long, not in int: must be an error, not a wrapped int.
  EXPECT_THROW(parse({"--threads=99999999999"}), ContractViolation);
  EXPECT_THROW(parse({"--repeat=2147483648"}), ContractViolation);
  // INT_MAX itself still parses.
  const RunnerOptions options = parse({"--threads=2147483647"});
  EXPECT_EQ(options.threads, INT_MAX);
}

TEST(SweepCliTest, TrailingGarbageAndEmptyValuesAreRejected) {
  EXPECT_THROW(parse({"--threads=8x"}), ContractViolation);
  EXPECT_THROW(parse({"--threads="}), ContractViolation);
  EXPECT_THROW(parse({"--grain=x"}), ContractViolation);
  EXPECT_THROW(parse({"--json="}), ContractViolation);
}

TEST(SweepCliTest, ShardFlagValidatesItsShape) {
  EXPECT_THROW(parse({"--shard=3/3"}), ContractViolation);
  EXPECT_THROW(parse({"--shard=-1/3"}), ContractViolation);
  EXPECT_THROW(parse({"--shard=1"}), ContractViolation);
  EXPECT_THROW(parse({"--shard=1/"}), ContractViolation);
  EXPECT_THROW(parse({"--shard=99999999999999999999/3"}),
               ContractViolation);
}

TEST(SweepCliTest, ShardFlagIsSugarForTheCellsRange) {
  EXPECT_EQ(parse({"--shard=1/3"}).shard, parse({"--cells=1..2/3"}).shard);
  EXPECT_EQ(parse({"--shard=1/3"}).shard.to_string(), "1..2/3");
}

TEST(SweepCliTest, CellsFlagParsesLeases) {
  // Bare LO..HI rides on the default virtual span.
  RunnerOptions options = parse({"--cells=1024..4096"});
  EXPECT_EQ(options.shard.lo, 1024u);
  EXPECT_EQ(options.shard.hi, 4096u);
  EXPECT_EQ(options.shard.span, ShardSpec::kLeaseSpan);
  EXPECT_EQ(options.shard.to_string(), "1024..4096/1048576");
  // An explicit span travels after the slash.
  options = parse({"--cells=2..6/8"});
  EXPECT_EQ(options.shard.lo, 2u);
  EXPECT_EQ(options.shard.hi, 6u);
  EXPECT_EQ(options.shard.span, 8u);
  // [total*lo/span, total*hi/span): the floor arithmetic that makes
  // tilings of the virtual span tile every real space.
  const auto [begin, end] = options.shard.range(10);
  EXPECT_EQ(begin, 2u);
  EXPECT_EQ(end, 7u);
  // The whole span is the unsharded run.
  EXPECT_EQ(parse({"--cells=0..8/8"}).shard.range(10),
            (std::pair<std::size_t, std::size_t>{0, 10}));
}

TEST(SweepCliTest, CellsFlagValidatesItsShape) {
  EXPECT_THROW(parse({"--cells=5"}), ContractViolation);
  EXPECT_THROW(parse({"--cells=5..4"}), ContractViolation);
  EXPECT_THROW(parse({"--cells=0..9/8"}), ContractViolation);
  EXPECT_THROW(parse({"--cells=-1..4"}), ContractViolation);
  EXPECT_THROW(parse({"--cells=0..4/0"}), ContractViolation);
  EXPECT_THROW(parse({"--cells=0..4x"}), ContractViolation);
  EXPECT_THROW(parse({"--cells=..4"}), ContractViolation);
  EXPECT_THROW(parse({"--cells=0../8"}), ContractViolation);
}

TEST(SweepCliTest, SpansPastTheBoundAreRejected) {
  // ShardSpec::range is overflow-free only up to kMaxSpan, so the CLI
  // rejects any wider span instead of running a wrong slice.
  EXPECT_THROW(
      parse({"--cells=0..9223372036854775807/9223372036854775807"}),
      ContractViolation);
  const std::string max = std::to_string(ShardSpec::kMaxSpan);
  const std::string past = std::to_string(ShardSpec::kMaxSpan + 1);
  EXPECT_THROW(parse({"--cells=0.." + past + "/" + past}),
               ContractViolation);
  EXPECT_THROW(parse({"--shard=0/" + past}), ContractViolation);
  EXPECT_EQ(parse({"--cells=0.." + max + "/" + max}).shard.span,
            ShardSpec::kMaxSpan);
}

TEST(SweepCliTest, ShardAndCellsAreMutuallyExclusive) {
  EXPECT_THROW(parse({"--shard=0/2", "--cells=0..8/8"}),
               ContractViolation);
  EXPECT_THROW(parse({"--cells=0..8/8", "--shard=0/2"}),
               ContractViolation);
}

TEST(SweepCliTest, DoubleValuesParseStrictly) {
  EXPECT_DOUBLE_EQ(parse_double_value("2.5", "--f="), 2.5);
  EXPECT_DOUBLE_EQ(parse_double_value("4", "--f="), 4.0);
  EXPECT_THROW(parse_double_value("", "--f="), ContractViolation);
  EXPECT_THROW(parse_double_value("2.5x", "--f="), ContractViolation);
  EXPECT_THROW(parse_double_value("nan", "--f="), ContractViolation);
  EXPECT_THROW(parse_double_value("1e999", "--f="), ContractViolation);
  double out = 0.0;
  EXPECT_TRUE(consume_double_flag("--f=1.5", "--f=", &out));
  EXPECT_DOUBLE_EQ(out, 1.5);
  EXPECT_FALSE(consume_double_flag("--g=1.5", "--f=", &out));
}

TEST(SweepCliTest, NegativeCountsAreRejected) {
  EXPECT_THROW(parse({"--threads=-1"}), ContractViolation);
  EXPECT_THROW(parse({"--repeat=0"}), ContractViolation);
  EXPECT_THROW(parse({"--grain=-5"}), ContractViolation);
}

TEST(SweepCliTest, ParseValueHelpersNameTheFlag) {
  try {
    parse_int_value("99999999999", "--workers=");
    FAIL() << "expected ContractViolation";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("--workers="),
              std::string::npos);
  }
  EXPECT_EQ(parse_int_value("12", "--workers="), 12);
  EXPECT_EQ(parse_long_value("-3", "--x="), -3);
}

}  // namespace
}  // namespace setlib::core
