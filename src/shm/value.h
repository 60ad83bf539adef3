// Register values.
//
// The paper's register set Xi carries arbitrary values; we model a value
// as a short tuple of 64-bit integers so that multi-field records (e.g.
// a Paxos block {mbal, bal, val}) occupy a single atomic register, as
// the model permits. A default-constructed Value is the unwritten
// "bottom"; readers use at_or() to treat bottom fields as defaults (the
// paper initializes its registers to 0).
//
// Storage: tuples of up to kInlineWords words live inside the Value
// itself, so the step loop's reads and writes of heartbeats, counters
// and Paxos blocks copy a few words and never touch the heap. Longer
// tuples (snapshot segments, BG-simulation cells) spill to one heap
// array of exactly size() words. The two representations are
// indistinguishable through the interface: equality, copies and
// printing depend only on the words.
//
// Threading model: Value is a plain value type with no shared state;
// concurrent use is governed entirely by the memory that stores it
// (SimMemory: single-threaded; runtime::RtMemory: per-cell mutex).
#ifndef SETLIB_SHM_VALUE_H
#define SETLIB_SHM_VALUE_H

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <iosfwd>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/util/assert.h"

namespace setlib::shm {

class Value {
 public:
  /// Tuples up to this many words are stored inline.
  static constexpr std::size_t kInlineWords = 4;

  Value() noexcept = default;
  Value(std::initializer_list<std::int64_t> words) {
    assign(words.begin(), words.size());
  }
  explicit Value(const std::vector<std::int64_t>& words) {
    assign(words.data(), words.size());
  }

  Value(const Value& other) { copy_from(other); }
  Value(Value&& other) noexcept { steal(other); }
  Value& operator=(const Value& other) {
    if (this != &other) {
      release();
      copy_from(other);
    }
    return *this;
  }
  Value& operator=(Value&& other) noexcept {
    if (this != &other) {
      release();
      steal(other);
    }
    return *this;
  }
  ~Value() { release(); }

  // Explicit tuple factories. Prefer these inside coroutine bodies:
  // braced initializer_list temporaries in coroutines trip GCC 12
  // (PR102217, "array used as initializer").
  static Value of(std::int64_t a) noexcept { return Value(1, a, 0, 0, 0); }
  static Value of(std::int64_t a, std::int64_t b) noexcept {
    return Value(2, a, b, 0, 0);
  }
  static Value of(std::int64_t a, std::int64_t b, std::int64_t c) noexcept {
    return Value(3, a, b, c, 0);
  }
  static Value of(std::int64_t a, std::int64_t b, std::int64_t c,
                  std::int64_t d) noexcept {
    return Value(4, a, b, c, d);
  }

  bool is_nil() const noexcept { return size_ == 0; }
  std::size_t size() const noexcept { return size_; }

  std::int64_t at(std::size_t i) const {
    SETLIB_EXPECTS(i < size_);
    return data()[i];
  }

  /// Field i, or `def` when the value is bottom / too short.
  std::int64_t at_or(std::size_t i, std::int64_t def) const noexcept {
    return i < size_ ? data()[i] : def;
  }

  /// Whole-value convenience for single-word registers.
  std::int64_t as_int_or(std::int64_t def) const noexcept {
    return at_or(0, def);
  }

  std::span<const std::int64_t> words() const noexcept {
    return {data(), size_};
  }

  friend bool operator==(const Value& a, const Value& b) noexcept {
    return a.size_ == b.size_ &&
           std::equal(a.data(), a.data() + a.size_, b.data());
  }
  friend bool operator!=(const Value& a, const Value& b) noexcept {
    return !(a == b);
  }

  std::string to_string() const;

 private:
  Value(std::size_t size, std::int64_t a, std::int64_t b, std::int64_t c,
        std::int64_t d) noexcept
      : size_(size), inline_{a, b, c, d} {}

  bool spilled() const noexcept { return size_ > kInlineWords; }
  const std::int64_t* data() const noexcept {
    return spilled() ? heap_ : inline_;
  }

  void assign(const std::int64_t* words, std::size_t size) {
    std::int64_t* dst = inline_;
    if (size > kInlineWords) {
      heap_ = new std::int64_t[size];
      dst = heap_;
    }
    size_ = size;
    std::copy(words, words + size, dst);
  }
  // Inline words are always initialized (unused ones are zero), so an
  // inline copy moves the whole fixed-size block without a size branch.
  // The block is copied and cleared word by word: std::copy of the
  // union member compiled to an out-of-line memmove call on every
  // register read.
  void copy_from(const Value& other) {
    if (other.spilled()) {
      assign(other.heap_, other.size_);
    } else {
      size_ = other.size_;
      copy_inline(other);
    }
  }
  void steal(Value& other) noexcept {
    size_ = other.size_;
    if (other.spilled()) {
      heap_ = other.heap_;
      other.size_ = 0;
      other.clear_inline();
    } else {
      copy_inline(other);
    }
  }
  void release() noexcept {
    if (spilled()) {
      delete[] heap_;
      size_ = 0;
      clear_inline();
    }
  }
  void copy_inline(const Value& other) noexcept {
    static_assert(kInlineWords == 4);
    inline_[0] = other.inline_[0];
    inline_[1] = other.inline_[1];
    inline_[2] = other.inline_[2];
    inline_[3] = other.inline_[3];
  }
  void clear_inline() noexcept {
    inline_[0] = 0;
    inline_[1] = 0;
    inline_[2] = 0;
    inline_[3] = 0;
  }

  std::size_t size_ = 0;
  union {
    std::int64_t inline_[kInlineWords] = {0, 0, 0, 0};
    std::int64_t* heap_;
  };
};

std::ostream& operator<<(std::ostream& os, const Value& v);

}  // namespace setlib::shm

#endif  // SETLIB_SHM_VALUE_H
