#include "src/core/sweep_cli.h"

#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdlib>

#include "src/util/assert.h"

namespace setlib::core {

long parse_long_value(const std::string& text, const std::string& flag) {
  if (text.empty()) {
    throw ContractViolation(flag + ": empty value");
  }
  errno = 0;
  char* end = nullptr;
  const long parsed = std::strtol(text.c_str(), &end, 10);
  // Reject trailing garbage ("--threads=8x") instead of truncating,
  // and a no-digit parse ("--threads=x") instead of defaulting to 0.
  if (end == text.c_str() || end == nullptr || *end != '\0') {
    throw ContractViolation(flag + ": expected a base-10 integer, got '" +
                            text + "'");
  }
  // strtol saturates to LONG_MIN/LONG_MAX on overflow and only tells
  // us via errno — "--grain=99999999999999999999" must be an error,
  // not LONG_MAX.
  if (errno == ERANGE) {
    throw ContractViolation(flag + ": value '" + text +
                            "' is out of range");
  }
  return parsed;
}

int parse_int_value(const std::string& text, const std::string& flag) {
  const long parsed = parse_long_value(text, flag);
  if (parsed < INT_MIN || parsed > INT_MAX) {
    throw ContractViolation(flag + ": value '" + text +
                            "' does not fit in an int");
  }
  return static_cast<int>(parsed);
}

bool consume_long_flag(const std::string& arg, const std::string& prefix,
                       long* out) {
  if (arg.rfind(prefix, 0) != 0) return false;
  *out = parse_long_value(arg.substr(prefix.size()), prefix);
  return true;
}

bool consume_int_flag(const std::string& arg, const std::string& prefix,
                      int* out) {
  if (arg.rfind(prefix, 0) != 0) return false;
  *out = parse_int_value(arg.substr(prefix.size()), prefix);
  return true;
}

double parse_double_value(const std::string& text,
                          const std::string& flag) {
  if (text.empty()) {
    throw ContractViolation(flag + ": empty value");
  }
  errno = 0;
  char* end = nullptr;
  const double parsed = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || end == nullptr || *end != '\0') {
    throw ContractViolation(flag + ": expected a number, got '" + text +
                            "'");
  }
  if (errno == ERANGE || !std::isfinite(parsed)) {
    throw ContractViolation(flag + ": value '" + text +
                            "' is out of range");
  }
  return parsed;
}

bool consume_double_flag(const std::string& arg,
                         const std::string& prefix, double* out) {
  if (arg.rfind(prefix, 0) != 0) return false;
  *out = parse_double_value(arg.substr(prefix.size()), prefix);
  return true;
}

namespace {

/// One K/N/LO/HI/SPAN field: a non-negative base-10 integer (the
/// span bound is ShardSpec::valid's).
std::size_t parse_shard_field(const std::string& text,
                              const std::string& flag) {
  const long value = parse_long_value(text, flag);
  if (value < 0) {
    throw ContractViolation(flag + ": '" + text + "' is negative");
  }
  return static_cast<std::size_t>(value);
}

/// --shard=K/N: sugar for the range {K, K+1, N}.
bool consume_shard_flag(const std::string& arg, ShardSpec* out) {
  const std::string prefix = "--shard=";
  if (arg.rfind(prefix, 0) != 0) return false;
  const std::string value = arg.substr(prefix.size());
  const std::size_t slash = value.find('/');
  if (slash == std::string::npos) {
    throw ContractViolation(prefix + ": expected K/N, got '" + value +
                            "'");
  }
  const std::size_t k = parse_shard_field(value.substr(0, slash), prefix);
  const std::size_t n = parse_shard_field(value.substr(slash + 1), prefix);
  *out = ShardSpec{k, k + 1, n};
  if (!out->valid()) {
    throw ContractViolation(prefix + ": shard '" + value +
                            "' violates 0 <= K < N <= " +
                            std::to_string(ShardSpec::kMaxSpan));
  }
  return true;
}

bool consume_cells_flag(const std::string& arg, ShardSpec* out) {
  const std::string prefix = "--cells=";
  if (arg.rfind(prefix, 0) != 0) return false;
  const std::string value = arg.substr(prefix.size());
  const std::size_t dots = value.find("..");
  if (dots == std::string::npos) {
    throw ContractViolation(prefix + ": expected LO..HI[/SPAN], got '" +
                            value + "'");
  }
  const std::size_t slash = value.find('/', dots + 2);
  out->lo = parse_shard_field(value.substr(0, dots), prefix);
  out->hi = parse_shard_field(
      slash == std::string::npos
          ? value.substr(dots + 2)
          : value.substr(dots + 2, slash - dots - 2),
      prefix);
  out->span = slash == std::string::npos
                  ? ShardSpec::kLeaseSpan
                  : parse_shard_field(value.substr(slash + 1), prefix);
  if (!out->valid()) {
    throw ContractViolation(prefix + ": lease '" + value +
                            "' violates 0 <= LO <= HI <= SPAN <= " +
                            std::to_string(ShardSpec::kMaxSpan));
  }
  return true;
}

}  // namespace

RunnerOptions parse_runner_options(int* argc, char** argv,
                                   const std::string& name) {
  RunnerOptions options;
  options.name = name;
  // json_path left empty unless --json=path overrides it; the
  // ExperimentRunner constructor fills in the BENCH_<name>.json
  // default (single source of truth for the naming scheme).

  int kept = 1;  // argv[0] always stays
  bool shard_given = false;
  bool cells_given = false;
  for (int i = 1; i < *argc; ++i) {
    const std::string arg = argv[i];
    if (consume_int_flag(arg, "--threads=", &options.threads)) {
      SETLIB_EXPECTS(options.threads >= 0);
      continue;
    }
    if (consume_int_flag(arg, "--repeat=", &options.repeat)) {
      SETLIB_EXPECTS(options.repeat >= 1);
      continue;
    }
    long grain = 0;
    if (consume_long_flag(arg, "--grain=", &grain)) {
      SETLIB_EXPECTS(grain >= 0);
      options.grain = static_cast<std::size_t>(grain);
      continue;
    }
    if (consume_shard_flag(arg, &options.shard)) {
      shard_given = true;
      continue;
    }
    if (consume_cells_flag(arg, &options.shard)) {
      cells_given = true;
      continue;
    }
    if (arg == "--json") {
      options.json = true;
      continue;
    }
    if (arg.rfind("--json=", 0) == 0) {
      options.json = true;
      options.json_path = arg.substr(7);
      SETLIB_EXPECTS(!options.json_path.empty());
      continue;
    }
    argv[kept++] = argv[i];
  }
  if (shard_given && cells_given) {
    throw ContractViolation(
        "--shard= and --cells= are mutually exclusive: both set the "
        "worker's one cell range");
  }
  *argc = kept;
  return options;
}

}  // namespace setlib::core
