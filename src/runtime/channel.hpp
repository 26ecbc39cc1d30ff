// Bounded MPMC channel — the backpressure primitive of the execution
// runtime.
//
// A fixed-capacity FIFO shared by any number of producers and consumers.
// `push` blocks while the channel is full (backpressure: a fast producer —
// e.g. monitors flushing summaries — cannot run arbitrarily far ahead of a
// slow consumer), `pop` blocks while it is empty.  `close()` ends the
// conversation: subsequent pushes fail, blocked pushers wake up and fail,
// and consumers drain whatever is buffered before pop starts returning
// nullopt.  Every item pushed before close is popped exactly once — no
// losses, no duplicates — which the channel stress test asserts.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <utility>

namespace jaal::runtime {

template <typename T>
class Channel {
 public:
  /// Throws std::invalid_argument for capacity == 0 (a rendezvous channel
  /// is not supported; the runtime always wants at least one slot of slack).
  explicit Channel(std::size_t capacity) : capacity_(capacity) {
    if (capacity_ == 0) {
      throw std::invalid_argument("Channel: capacity must be positive");
    }
  }

  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  // All notifications below are issued while still holding the mutex.
  // That is deliberate, not an oversight: a woken peer may be the last user
  // of this channel and destroy it as soon as it can re-acquire the lock
  // (the epoch pipeline does exactly this — the consumer pops the final
  // completion and tears the channel down while the producing task is still
  // returning from push).  Notifying under the lock guarantees the notifier
  // has no further channel access once the waiter proceeds.

  /// Blocks until a slot is free, then enqueues.  Returns false (and drops
  /// the value) if the channel is closed before a slot frees up.
  bool push(T value) {
    std::unique_lock lock(mu_);
    not_full_.wait(lock, [&] { return closed_ || items_.size() < capacity_; });
    if (closed_) return false;
    items_.push_back(std::move(value));
    not_empty_.notify_one();
    return true;
  }

  /// Non-blocking push; false when full or closed.
  bool try_push(T value) {
    std::lock_guard lock(mu_);
    if (closed_ || items_.size() >= capacity_) return false;
    items_.push_back(std::move(value));
    not_empty_.notify_one();
    return true;
  }

  /// Blocks until an item is available or the channel is closed *and*
  /// drained; nullopt signals end-of-stream.
  std::optional<T> pop() {
    std::unique_lock lock(mu_);
    not_empty_.wait(lock, [&] { return closed_ || !items_.empty(); });
    if (items_.empty()) return std::nullopt;  // closed and drained
    // Moved straight into the optional: a `T` local returned by conversion
    // trips a gcc 12 -Wmaybe-uninitialized false positive on variant items.
    std::optional<T> value(std::move(items_.front()));
    items_.pop_front();
    not_full_.notify_one();
    return value;
  }

  /// Non-blocking pop; nullopt when nothing is buffered (closed or not).
  std::optional<T> try_pop() {
    std::lock_guard lock(mu_);
    if (items_.empty()) return std::nullopt;
    std::optional<T> value = std::move(items_.front());
    items_.pop_front();
    not_full_.notify_one();
    return value;
  }

  /// Idempotent.  Wakes every blocked producer (they fail) and consumer
  /// (they drain, then see end-of-stream).
  void close() {
    std::lock_guard lock(mu_);
    closed_ = true;
    not_full_.notify_all();
    not_empty_.notify_all();
  }

  [[nodiscard]] bool closed() const {
    std::lock_guard lock(mu_);
    return closed_;
  }

  /// Items currently buffered (racy by nature; for tests and stats).
  [[nodiscard]] std::size_t size() const {
    std::lock_guard lock(mu_);
    return items_.size();
  }

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

 private:
  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::deque<T> items_;
  bool closed_ = false;
};

}  // namespace jaal::runtime
