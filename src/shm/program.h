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
// A scan of consecutive registers, `co_await shm::read_words(base,
// count, out)`, is one request but `count` model steps: the executor
// serves one register per scheduled step (each its own step, at its own
// step index and round-robin turn among the process's tasks) and
// resumes the program only after the last. The program's local
// computation on the scanned words therefore runs after the last read,
// which is where a per-read loop that only stores each value locally
// would run it too: the step stream is the same either way.
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
#include <cstdint>
#include <exception>
#include <utility>

#include "src/shm/memory.h"
#include "src/shm/value.h"
#include "src/util/assert.h"

namespace setlib::shm {

/// A pending register operation posted by a suspended program.
struct OpRequest {
  enum class Kind { kNone, kRead, kWrite, kReadWords };

  Kind kind = Kind::kNone;
  RegisterId reg = -1;   // kReadWords: the next register to read
  Value to_write;        // kWrite payload
  Value* read_sink = nullptr;  // kRead destination (inside the awaiter)
  std::int64_t* word_sink = nullptr;  // kReadWords: the next slot
  std::int64_t words_left = 0;        // kReadWords: registers still unread

  /// kReadWords: store one read of `reg` (bottom reads as 0) and move on
  /// to the next register. True when that read was the request's last.
  bool deliver_word(const Value& v) noexcept {
    *word_sink++ = v.as_int_or(0);
    ++reg;
    return --words_left == 0;
  }

  /// Mark the request served. Only kind and read_sink are reset: the
  /// other fields are rewritten by the next request before use (a
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

/// Awaitable returned by shm::read_words().
struct ReadWordsOp {
  RegisterId base;
  std::int64_t count;
  std::int64_t* out;

  bool await_ready() const noexcept { return count == 0; }
  void await_suspend(std::coroutine_handle<Prog::promise_type> h) noexcept {
    OpRequest& req = h.promise().pending;
    req.kind = OpRequest::Kind::kReadWords;
    req.reg = base;
    req.word_sink = out;
    req.words_left = count;
    req.read_sink = nullptr;
  }
  void await_resume() const noexcept {}
};

/// Awaitable returned by shm::forward(): posts one step of the child's
/// request as the parent's own read or write.
struct ForwardOp {
  OpRequest& child;
  Value word;  // the register read for a child's multi-step read

  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<Prog::promise_type> h) noexcept {
    OpRequest& req = h.promise().pending;
    req.reg = child.reg;
    if (child.kind == OpRequest::Kind::kWrite) {
      req.kind = OpRequest::Kind::kWrite;
      req.to_write = std::move(child.to_write);
      req.read_sink = nullptr;
    } else {
      req.kind = OpRequest::Kind::kRead;
      req.read_sink =
          child.kind == OpRequest::Kind::kRead ? child.read_sink : &word;
    }
  }
  /// True once the child's whole request is served.
  bool await_resume() noexcept {
    if (child.kind == OpRequest::Kind::kReadWords &&
        !child.deliver_word(word)) {
      return false;
    }
    child.clear();
    return true;
  }
};

/// One read step: `Value v = co_await shm::read(reg);`
inline ReadOp read(RegisterId reg) { return ReadOp{reg, Value()}; }

/// One write step: `co_await shm::write(reg, v);`
inline WriteOp write(RegisterId reg, Value v) {
  return WriteOp{reg, std::move(v)};
}

/// `count` read steps of registers base..base+count-1, in order:
/// out[i] receives register base+i read as one word, bottom as 0.
/// `co_await shm::read_words(base, count, out);` resumes after the last
/// read; count == 0 does not suspend. `out` must stay valid until then.
inline ReadWordsOp read_words(RegisterId base, std::int64_t count,
                              std::int64_t* out) {
  SETLIB_EXPECTS(count >= 0);
  return ReadWordsOp{base, count, out};
}

/// One step of a child program's pending request, taken as the
/// enclosing program's own step: a read or write is forwarded whole, a
/// multi-step read one register per step. `co_await` yields true once
/// the child's request is fully served, i.e. the child may resume.
inline ForwardOp forward(OpRequest& child) {
  SETLIB_EXPECTS(child.kind != OpRequest::Kind::kNone);
  return ForwardOp{child, Value()};
}

}  // namespace setlib::shm

/// Run a child Prog to completion inside an enclosing Prog coroutine,
/// forwarding each step of the child's register operations as one of
/// the parent's own steps (so step accounting is 1:1 with the model).
/// Usage, inside a coroutine body only:
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
      if (co_await ::setlib::shm::forward(setlib_co_child.pending())) {      \
        setlib_co_child.resume();                                            \
      }                                                                      \
    }                                                                        \
  } while (false)

#endif  // SETLIB_SHM_PROGRAM_H
