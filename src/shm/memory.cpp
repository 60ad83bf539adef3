#include "src/shm/memory.h"

#include <algorithm>
#include <iterator>

#include "src/util/assert.h"

namespace setlib::shm {

RegisterId IMemory::alloc(std::string name) {
  return add_named(std::move(name), 1, false);
}

RegisterId IMemory::alloc_array(std::string name, std::int64_t count) {
  SETLIB_EXPECTS(count >= 1);
  return add_named(std::move(name), count, true);
}

RegisterId IMemory::add_named(std::string name, std::int64_t count,
                              bool indexed) {
  const RegisterId base = add_registers(count);
  SETLIB_ENSURES(register_count() == base + count);
  names_.push_back(NameRun{base, indexed, std::move(name)});
  return base;
}

std::string IMemory::name(RegisterId reg) const {
  SETLIB_EXPECTS(reg >= 0 && reg < register_count());
  // The run holding reg is the last one whose base is <= reg.
  const auto run = std::prev(std::upper_bound(
      names_.begin(), names_.end(), reg,
      [](RegisterId r, const NameRun& n) { return r < n.base; }));
  if (!run->indexed) return run->name;
  return run->name + "[" + std::to_string(reg - run->base) + "]";
}

RegisterId SimMemory::add_registers(std::int64_t count) {
  const RegisterId base = register_count();
  cells_.resize(cells_.size() + static_cast<std::size_t>(count));
  return base;
}

Value SimMemory::read(RegisterId reg) {
  SETLIB_EXPECTS(reg >= 0 && reg < register_count());
  ++reads_;
  return cells_[static_cast<std::size_t>(reg)];
}

void SimMemory::write(RegisterId reg, Value v) {
  SETLIB_EXPECTS(reg >= 0 && reg < register_count());
  ++writes_;
  cells_[static_cast<std::size_t>(reg)] = std::move(v);
}

std::int64_t SimMemory::register_count() const {
  return static_cast<std::int64_t>(cells_.size());
}

const Value& SimMemory::peek(RegisterId reg) const {
  SETLIB_EXPECTS(reg >= 0 && reg < register_count());
  return cells_[static_cast<std::size_t>(reg)];
}

}  // namespace setlib::shm
