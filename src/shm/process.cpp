#include "src/shm/process.h"

#include "src/util/assert.h"

namespace setlib::shm {

ProcessRuntime::ProcessRuntime(Pid pid) : pid_(pid) {
  SETLIB_EXPECTS(pid >= 0 && pid < kMaxProcs);
}

void ProcessRuntime::add_task(Prog prog, std::string name) {
  SETLIB_EXPECTS(prog.valid());
  tasks_.push_back(TaskCb{std::move(prog), std::move(name)});
}

bool ProcessRuntime::halted() const {
  for (const auto& t : tasks_) {
    if (!t.done) return false;
  }
  return true;
}

}  // namespace setlib::shm
