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
#ifndef SETLIB_SHM_PROCESS_H
#define SETLIB_SHM_PROCESS_H

#include <cstdint>
#include <string>
#include <vector>

#include "src/shm/memory.h"
#include "src/shm/program.h"
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
  /// nothing if halted). Returns true iff an operation was performed.
  bool step(IMemory& mem);

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

}  // namespace setlib::shm

#endif  // SETLIB_SHM_PROCESS_H
