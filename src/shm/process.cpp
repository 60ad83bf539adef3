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

void ProcessRuntime::resume(TaskCb& t) {
  struct RecordDone {
    TaskCb& t;
    ~RecordDone() { t.done = t.prog.done(); }
  } record{t};
  t.prog.resume();
}

ProcessRuntime::TaskCb* ProcessRuntime::next_live_task() {
  // The cursor wraps by comparison: rr_cursor_ < count always holds
  // (tasks are only ever added), so no division is needed.
  const std::size_t count = tasks_.size();
  std::size_t at = rr_cursor_;
  for (std::size_t i = 0; i < count; ++i) {
    TaskCb& t = tasks_[at];
    if (++at == count) at = 0;
    if (!t.done) {
      rr_cursor_ = at;
      return &t;
    }
  }
  return nullptr;
}

bool ProcessRuntime::step(IMemory& mem) {
  TaskCb* t = tasks_.empty() ? nullptr : next_live_task();
  if (t == nullptr) return false;  // halted process: a scheduled no-op step

  if (!t->started) {
    t->started = true;
    resume(*t);  // run to the first operation request (or completion)
    if (t->done) return false;  // purely local task
  }

  OpRequest& req = t->prog.pending();
  SETLIB_ASSERT(req.kind != OpRequest::Kind::kNone);
  switch (req.kind) {
    case OpRequest::Kind::kRead:
      SETLIB_ASSERT(req.read_sink != nullptr);
      mem.read_into(req.reg, *req.read_sink);
      break;
    case OpRequest::Kind::kWrite:
      mem.write(req.reg, std::move(req.to_write));
      break;
    case OpRequest::Kind::kNone:
      break;
  }
  req.clear();
  ++ops_;
  resume(*t);  // run to the next request or completion
  return true;
}

}  // namespace setlib::shm
