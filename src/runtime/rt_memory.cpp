#include "src/runtime/rt_memory.h"

#include "src/util/assert.h"

namespace setlib::runtime {

shm::RegisterId RtMemory::add_registers(std::int64_t count) {
  SETLIB_EXPECTS(!frozen());
  const shm::RegisterId base = register_count();
  for (std::int64_t i = 0; i < count; ++i) {
    cells_.push_back(std::make_unique<Cell>());
  }
  return base;
}

void RtMemory::read_into(shm::RegisterId reg, shm::Value& out) {
  SETLIB_EXPECTS(reg >= 0 && reg < register_count());
  Cell& cell = *cells_[static_cast<std::size_t>(reg)];
  reads_.fetch_add(1, std::memory_order_relaxed);
  const util::MutexLock lock(cell.mu);
  out = cell.value;
}

void RtMemory::write(shm::RegisterId reg, shm::Value v) {
  SETLIB_EXPECTS(reg >= 0 && reg < register_count());
  Cell& cell = *cells_[static_cast<std::size_t>(reg)];
  writes_.fetch_add(1, std::memory_order_relaxed);
  const util::MutexLock lock(cell.mu);
  cell.value = std::move(v);
}

std::int64_t RtMemory::register_count() const {
  return static_cast<std::int64_t>(cells_.size());
}

}  // namespace setlib::runtime
