// Shared memory: the register set Xi.
//
// IMemory is the single algorithm-facing interface; SimMemory is the
// deterministic single-threaded implementation used by the Simulator,
// and runtime/rt_memory.h provides the mutex-protected implementation
// used by the threaded executor. Registers are allocated by name during
// a setup phase (before any step executes); reads of never-written
// registers return the bottom Value.
//
// Names are diagnostics only: IMemory keeps one name per allocation
// (a single register or a whole array) and renders a register's name,
// "arr[3]" for an array element, only when name() asks for it.
//
// Threading model: SimMemory is single-threaded by construction — it
// only ever runs inside the Simulator's step loop, which serializes
// every process step on one thread. It therefore owns no locks and no
// thread-safety annotations; concurrent access goes through
// runtime::RtMemory instead.
#ifndef SETLIB_SHM_MEMORY_H
#define SETLIB_SHM_MEMORY_H

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/shm/value.h"
#include "src/util/assert.h"

namespace setlib::shm {

using RegisterId = std::int64_t;

class IMemory {
 public:
  virtual ~IMemory() = default;

  /// Allocate one register named `name`. Setup-phase only for threaded
  /// memories.
  RegisterId alloc(std::string name);

  /// Allocate `count` registers with contiguous ids, named
  /// "name[0]".."name[count-1]"; returns the base id.
  RegisterId alloc_array(std::string name, std::int64_t count);

  /// The register's name, rendered on demand.
  std::string name(RegisterId reg) const;

  /// One read step, delivered into `out`: one copy from the register
  /// instead of a returned temporary moved into place.
  virtual void read_into(RegisterId reg, Value& out) = 0;
  /// The same read step, returned by value.
  Value read(RegisterId reg) {
    Value v;
    read_into(reg, v);
    return v;
  }
  virtual void write(RegisterId reg, Value v) = 0;

  virtual std::int64_t register_count() const = 0;

  /// Total reads/writes performed (for benchmarks and step accounting).
  virtual std::int64_t read_count() const = 0;
  virtual std::int64_t write_count() const = 0;

 protected:
  /// Append `count` bottom registers; returns the first new id.
  virtual RegisterId add_registers(std::int64_t count) = 0;

 private:
  struct NameRun {
    RegisterId base;
    bool indexed;  // an alloc_array run: element names carry "[i]"
    std::string name;
  };

  RegisterId add_named(std::string name, std::int64_t count, bool indexed);

  std::vector<NameRun> names_;  // ascending base ids
};

/// Deterministic single-threaded memory. Its register access is
/// defined inline, so the Simulator's step loop (which holds a
/// SimMemory&, not an IMemory&) reads and writes without a virtual call.
class SimMemory final : public IMemory {
 public:
  SimMemory() = default;

  void read_into(RegisterId reg, Value& out) override {
    SETLIB_EXPECTS(reg >= 0 && reg < register_count());
    ++reads_;
    out = cells_[static_cast<std::size_t>(reg)];
  }
  void write(RegisterId reg, Value v) override {
    SETLIB_EXPECTS(reg >= 0 && reg < register_count());
    ++writes_;
    cells_[static_cast<std::size_t>(reg)] = std::move(v);
  }
  std::int64_t register_count() const override {
    return static_cast<std::int64_t>(cells_.size());
  }
  std::int64_t read_count() const override { return reads_; }
  std::int64_t write_count() const override { return writes_; }

  /// Direct (non-step) inspection for tests/validators.
  const Value& peek(RegisterId reg) const;

 protected:
  RegisterId add_registers(std::int64_t count) override;

 private:
  std::vector<Value> cells_;
  std::int64_t reads_ = 0;
  std::int64_t writes_ = 0;
};

}  // namespace setlib::shm

#endif  // SETLIB_SHM_MEMORY_H
