// Thin command-line surface for the bench binaries and heavier
// examples: parses the shared flags into a core::RunnerOptions that
// constructs the binary's ExperimentRunner.
//
// Every bench accepts, before its Google Benchmark arguments:
//   --threads=N    sweep parallelism (0 = hardware concurrency)
//   --repeat=N     repeat factor for grid sweeps (seeds per cell point)
//   --cells=LO..HI[/SPAN]
//                  run the [LO, HI) slice of a SPAN-wide virtual cell
//                  space (default ShardSpec::kLeaseSpan, at most
//                  ShardSpec::kMaxSpan) — the elastic orchestrator's
//                  worker flag; documents of ranges tiling [0, SPAN)
//                  merge to the unsharded document
//   --shard=K/N    sugar for --cells=K..K+1/N: the K-th of N
//                  contiguous slices. Mutually exclusive with --cells.
//   --grain=N      indices per work-stealing pop (0 = auto)
//   --json[=path]  write BENCH_<name>.json (sections, throughput,
//                  per-cell latency percentiles and rows)
// Recognized flags are stripped from argv so the remainder can go to
// benchmark::Initialize unchanged.
#ifndef SETLIB_CORE_SWEEP_CLI_H
#define SETLIB_CORE_SWEEP_CLI_H

#include <string>

#include "src/core/runner.h"

namespace setlib::core {

/// Parses and strips the shared flags from (argc, argv).
RunnerOptions parse_runner_options(int* argc, char** argv,
                                   const std::string& name);

/// Strict base-10 parse of a flag value. Rejects empty values,
/// trailing garbage ("8x"), and out-of-range magnitudes (strtol's
/// ERANGE saturation is an error here, not a value) with a
/// ContractViolation naming the flag. Shared by every CLI in the repo
/// so no surface silently truncates or wraps.
long parse_long_value(const std::string& text, const std::string& flag);

/// parse_long_value narrowed to int, rejecting values outside
/// [INT_MIN, INT_MAX] instead of wrapping.
int parse_int_value(const std::string& text, const std::string& flag);

/// Strict parse of a floating-point flag value (strtod, whole-string,
/// finite). Same error discipline as parse_long_value.
double parse_double_value(const std::string& text,
                          const std::string& flag);

/// If arg starts with prefix ("--threads="), parses the remainder into
/// *out and returns true; returns false when the prefix does not
/// match. Parse failures throw (see parse_long_value).
bool consume_long_flag(const std::string& arg, const std::string& prefix,
                       long* out);
bool consume_int_flag(const std::string& arg, const std::string& prefix,
                      int* out);
bool consume_double_flag(const std::string& arg,
                         const std::string& prefix, double* out);

}  // namespace setlib::core

#endif  // SETLIB_CORE_SWEEP_CLI_H
