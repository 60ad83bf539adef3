// Process programs as C++20 coroutines.
//
// An algorithm's per-process code is written as a coroutine returning
// Prog. Each `co_await shm::read(reg)` / `co_await shm::write(reg, v)`
// suspends the coroutine with a pending operation request; an executor
// (the deterministic Simulator or the threaded runtime) performs the
// request against an IMemory and resumes. One scheduled step = exactly
// one register operation plus the local computation up to the next
// request — matching the model, where a step is a read or write plus a
// state transition, and local computation is free.
//
// Algorithms therefore read like the paper's pseudocode:
//
//   shm::Prog heartbeat_loop(shm::RegisterId hb) {
//     for (std::int64_t v = 1;; ++v) {
//       co_await shm::write(hb, shm::Value::of(v));
//     }
//   }
#ifndef SETLIB_SHM_PROGRAM_H
#define SETLIB_SHM_PROGRAM_H

#include <coroutine>
#include <exception>
#include <utility>

#include "src/shm/memory.h"
#include "src/shm/value.h"
#include "src/util/assert.h"

namespace setlib::shm {

/// A pending register operation posted by a suspended program.
struct OpRequest {
  enum class Kind { kNone, kRead, kWrite };

  Kind kind = Kind::kNone;
  RegisterId reg = -1;
  Value to_write;        // kWrite payload
  Value* read_sink = nullptr;  // kRead destination (inside the awaiter)

  /// Mark the request served. Only kind and read_sink are reset: reg
  /// and to_write are rewritten by the next request before use (a
  /// served write's payload has been moved out already).
  void clear() noexcept {
    kind = Kind::kNone;
    read_sink = nullptr;
  }
};

/// Owning handle to a per-process program coroutine.
class Prog {
 public:
  struct promise_type {
    Prog get_return_object() {
      return Prog(Handle::from_promise(*this));
    }
    std::suspend_always initial_suspend() noexcept { return {}; }
    std::suspend_always final_suspend() noexcept { return {}; }
    void return_void() noexcept {}
    void unhandled_exception() noexcept {
      exception = std::current_exception();
    }

    OpRequest pending;
    std::exception_ptr exception;
  };

  using Handle = std::coroutine_handle<promise_type>;

  Prog() noexcept = default;
  explicit Prog(Handle h) noexcept : h_(h) {}
  Prog(Prog&& other) noexcept : h_(std::exchange(other.h_, {})) {}
  Prog& operator=(Prog&& other) noexcept {
    if (this != &other) {
      destroy();
      h_ = std::exchange(other.h_, {});
    }
    return *this;
  }
  Prog(const Prog&) = delete;
  Prog& operator=(const Prog&) = delete;
  ~Prog() { destroy(); }

  bool valid() const noexcept { return static_cast<bool>(h_); }
  bool done() const {
    SETLIB_EXPECTS(valid());
    return h_.done();
  }

  /// Resume until the next suspension point; rethrows any exception the
  /// program body raised.
  void resume() {
    SETLIB_EXPECTS(valid() && !h_.done());
    h_.resume();
    if (h_.promise().exception) {
      std::rethrow_exception(std::exchange(h_.promise().exception, nullptr));
    }
  }

  OpRequest& pending() {
    SETLIB_EXPECTS(valid());
    return h_.promise().pending;
  }

 private:
  void destroy() noexcept {
    if (h_) {
      h_.destroy();
      h_ = {};
    }
  }

  Handle h_;
};

/// Awaitable returned by shm::read().
struct ReadOp {
  RegisterId reg;
  Value result;

  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<Prog::promise_type> h) noexcept {
    OpRequest& req = h.promise().pending;
    req.kind = OpRequest::Kind::kRead;
    req.reg = reg;
    req.read_sink = &result;
  }
  Value await_resume() noexcept { return std::move(result); }
};

/// Awaitable returned by shm::write().
struct WriteOp {
  RegisterId reg;
  Value value;

  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<Prog::promise_type> h) noexcept {
    OpRequest& req = h.promise().pending;
    req.kind = OpRequest::Kind::kWrite;
    req.reg = reg;
    req.to_write = std::move(value);
    req.read_sink = nullptr;
  }
  void await_resume() const noexcept {}
};

/// One read step: `Value v = co_await shm::read(reg);`
inline ReadOp read(RegisterId reg) { return ReadOp{reg, Value()}; }

/// One write step: `co_await shm::write(reg, v);`
inline WriteOp write(RegisterId reg, Value v) {
  return WriteOp{reg, std::move(v)};
}

}  // namespace setlib::shm

/// Run a child Prog to completion inside an enclosing Prog coroutine,
/// forwarding each of the child's register operations as one of the
/// parent's own steps (so step accounting is 1:1 with the model). Usage,
/// inside a coroutine body only:
///
///   SETLIB_CO_RUN(safe_agreement.propose(me, value));
///
/// This is a macro because the forwarding loop must `co_await` in the
/// parent's context, which a function cannot do on the parent's behalf.
#define SETLIB_CO_RUN(prog_expr)                                             \
  do {                                                                       \
    ::setlib::shm::Prog setlib_co_child = (prog_expr);                       \
    setlib_co_child.resume();                                                \
    while (!setlib_co_child.done()) {                                        \
      ::setlib::shm::OpRequest& setlib_co_req = setlib_co_child.pending();   \
      if (setlib_co_req.kind == ::setlib::shm::OpRequest::Kind::kRead) {     \
        *setlib_co_req.read_sink =                                           \
            co_await ::setlib::shm::read(setlib_co_req.reg);                 \
      } else {                                                               \
        co_await ::setlib::shm::write(setlib_co_req.reg,                     \
                                      std::move(setlib_co_req.to_write));    \
      }                                                                      \
      setlib_co_req.clear();                                                 \
      setlib_co_child.resume();                                              \
    }                                                                        \
  } while (false)

#endif  // SETLIB_SHM_PROGRAM_H
