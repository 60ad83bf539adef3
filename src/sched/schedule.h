// Schedules (Section 2 of the paper).
//
// A schedule is a finite or infinite sequence of process ids; a step is
// one element. We materialize finite prefixes of the paper's infinite
// schedules: generators (generators.h) extend a prefix on demand, and
// eventual properties are checked over suffixes (analyzer.h).
#ifndef SETLIB_SCHED_SCHEDULE_H
#define SETLIB_SCHED_SCHEDULE_H

#include <cstdint>
#include <string>
#include <vector>

#include "src/util/assert.h"
#include "src/util/procset.h"
#include "src/util/rng.h"

namespace setlib::sched {

/// A finite schedule prefix over processes {0..n-1}.
class Schedule {
 public:
  explicit Schedule(int n);
  Schedule(int n, std::vector<Pid> steps);

  int n() const noexcept { return n_; }
  std::int64_t size() const noexcept {
    return static_cast<std::int64_t>(steps_.size());
  }
  bool empty() const noexcept { return steps_.empty(); }

  Pid operator[](std::int64_t i) const;

  void append(Pid p) {
    SETLIB_EXPECTS(p >= 0 && p < n_);
    steps_.push_back(p);
  }

  /// Make room for `steps` steps in total, so appends up to that size
  /// never regrow the storage.
  void reserve(std::int64_t steps);

  const std::vector<Pid>& steps() const noexcept { return steps_; }

  /// Number of occurrences of p in [from, to).
  std::int64_t count(Pid p, std::int64_t from, std::int64_t to) const;
  std::int64_t count(Pid p) const { return count(p, 0, size()); }

  /// Number of steps by members of s in [from, to).
  std::int64_t count_set(ProcSet s, std::int64_t from, std::int64_t to) const;
  std::int64_t count_set(ProcSet s) const { return count_set(s, 0, size()); }

  /// Set of processes taking at least one step in [from, size()).
  /// With from = 0 this is the complement of the processes that never
  /// step; a process "correct in S" (infinitely many steps) corresponds,
  /// on a finite prefix, to appearing in the chosen suffix.
  ProcSet appearing_from(std::int64_t from) const;
  ProcSet appearing() const { return appearing_from(0); }

  /// Concatenation (paper's S . S').
  Schedule concat(const Schedule& other) const;

  /// The sub-schedule [from, to) as a new Schedule.
  Schedule slice(std::int64_t from, std::int64_t to) const;

 private:
  int n_;
  std::vector<Pid> steps_;
};

/// Replay hash: a splitmix64 chain over (n, length, step stream). Two
/// schedules collide only if the hash does; equal hashes over the same
/// generator version mean bit-identical executions, which is what the
/// fuzzer corpus and the merged bench rows pin across reruns and shards.
///
/// ScheduleHasher is the chain's one definition. The length is folded
/// in before the steps, so a schedule can be hashed step by step as it
/// is produced only when its final length is known up front (see
/// shm::Simulator::plan_length); value() after folding exactly
/// `length` steps equals schedule_hash of those steps.
class ScheduleHasher {
 public:
  ScheduleHasher(int n, std::int64_t length) noexcept {
    // Chain the stream through splitmix64's mixer, feeding each mixed
    // output back into the state: the next fold is added to a value
    // that already depends nonlinearly on everything before it, so
    // step ORDER (not just the multiset of pids) shapes the hash.
    // Folding in n and the length first keeps e.g. (n=2, "010")
    // distinct from (n=3, "010").
    state_ += static_cast<std::uint64_t>(n);
    state_ = splitmix64(state_);
    state_ += static_cast<std::uint64_t>(length);
    state_ = splitmix64(state_);
  }

  void fold(Pid p) noexcept {
    state_ += static_cast<std::uint64_t>(p) + 1;
    state_ = splitmix64(state_);
  }

  std::uint64_t value() const noexcept { return state_; }

 private:
  std::uint64_t state_ = 0x5e741a11u;  // arbitrary fixed chain seed
};

/// One ScheduleHasher pass over a whole schedule.
std::uint64_t schedule_hash(const Schedule& s) noexcept;

/// Canonical 16-hex-digit rendering of a schedule hash. JSON numbers are
/// doubles, which lose 64-bit integers past 2^53, so hashes always travel
/// as strings.
std::string hash_hex(std::uint64_t hash);

}  // namespace setlib::sched

#endif  // SETLIB_SCHED_SCHEDULE_H
