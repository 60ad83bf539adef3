// Process runtimes: one model process running one or more program tasks.
//
// A deployed process runs several protocol layers at once (the Figure 2
// detector loop plus k agreement instances plus a decision watcher).
// The model has a single automaton per process, so ProcessRuntime
// multiplexes its tasks round-robin: each scheduled step of the process
// executes exactly one pending register operation of the next live task.
// Round-robin multiplexing preserves set timeliness up to the constant
// factor #tasks — the same "bounded steps per loop iteration" argument
// the paper uses in Lemma 9.
//
// step() is a template over the memory type: the Simulator instantiates
// it for SimMemory, whose register access is inline, and the threaded
// executor for runtime::RtMemory. Algorithms still see only IMemory.
#ifndef SETLIB_SHM_PROCESS_H
#define SETLIB_SHM_PROCESS_H

#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "src/shm/memory.h"
#include "src/shm/program.h"
#include "src/util/assert.h"
#include "src/util/procset.h"

namespace setlib::shm {

class ProcessRuntime {
 public:
  explicit ProcessRuntime(Pid pid);

  // Movable (lives in the Simulator's vector), not copyable.
  ProcessRuntime(ProcessRuntime&&) noexcept = default;
  ProcessRuntime& operator=(ProcessRuntime&&) noexcept = default;
  ProcessRuntime(const ProcessRuntime&) = delete;
  ProcessRuntime& operator=(const ProcessRuntime&) = delete;

  Pid pid() const noexcept { return pid_; }

  void add_task(Prog prog, std::string name);
  std::size_t task_count() const noexcept { return tasks_.size(); }

  /// All tasks ran to completion (a halted process; crashes are a
  /// scheduling notion and are handled by the Simulator instead).
  bool halted() const;

  /// Execute one step: one register operation of the next live task (or
  /// nothing if halted). Returns true iff an operation was performed. A
  /// multi-step read request takes one register per step; its task
  /// resumes after the last.
  template <typename Mem>
  bool step(Mem& mem);

  /// Total operations executed by this process.
  std::int64_t ops_executed() const noexcept { return ops_; }

 private:
  struct TaskCb {
    Prog prog;
    std::string name;
    bool started = false;
    /// prog.done() as of the last resume, so picking the next task
    /// reads this flag instead of the coroutine frame.
    bool done = false;
  };

  TaskCb* next_live_task();
  /// Resume t's program and record whether it finished (also when the
  /// body throws: the coroutine is then at its final suspend).
  static void resume(TaskCb& t);

  Pid pid_;
  std::vector<TaskCb> tasks_;
  std::size_t rr_cursor_ = 0;
  std::int64_t ops_ = 0;
};

inline void ProcessRuntime::resume(TaskCb& t) {
  struct RecordDone {
    TaskCb& t;
    ~RecordDone() { t.done = t.prog.done(); }
  } record{t};
  t.prog.resume();
}

inline ProcessRuntime::TaskCb* ProcessRuntime::next_live_task() {
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

template <typename Mem>
bool ProcessRuntime::step(Mem& mem) {
  static_assert(std::is_base_of_v<IMemory, Mem>);
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
    case OpRequest::Kind::kReadWords: {
      Value v;
      mem.read_into(req.reg, v);
      if (!req.deliver_word(v)) {
        ++ops_;
        return true;  // registers left: the task stays suspended
      }
      break;
    }
    case OpRequest::Kind::kNone:
      break;
  }
  req.clear();
  ++ops_;
  resume(*t);  // run to the next request or completion
  return true;
}

}  // namespace setlib::shm

#endif  // SETLIB_SHM_PROCESS_H
