// FIFO ring over one vector, for per-flow queues that are usually empty.
//
// A session endpoint holds one send queue, one send-stamp window and one
// delay-sample buffer per flow, for 100k+ flows. libstdc++'s std::deque
// allocates a map and a ~512 B node the moment the first element arrives
// and keeps both. Ring allocates nothing until its first push, then
// doubles its storage as the queue grows, up to a cap the owner takes
// from an existing limit (never preallocated: a 4,096-packet queue that
// only ever holds three packets holds four slots). Storage is kept once
// grown, so a warm flow pushes and pops without touching the heap.
//
// Pushing onto a full ring is a precondition failure: owners that keep
// the newest entries pop the oldest first.
#pragma once

#include <algorithm>
#include <cstddef>
#include <limits>
#include <utility>
#include <vector>

#include "util/ensure.hpp"

namespace mcss::util {

template <typename T>
class Ring {
 public:
  /// `cap` bounds size(); the default leaves the ring unbounded, for
  /// owners that prune it by another rule.
  explicit Ring(std::size_t cap = std::numeric_limits<std::size_t>::max())
      : cap_(cap) {}

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] bool full() const noexcept { return size_ == cap_; }
  /// Heap bytes the storage holds: 0 until the first push.
  [[nodiscard]] std::size_t heap_bytes() const noexcept {
    return buf_.capacity() * sizeof(T);
  }

  /// The i-th oldest entry, i < size().
  [[nodiscard]] T& operator[](std::size_t i) noexcept { return buf_[slot(i)]; }
  [[nodiscard]] const T& operator[](std::size_t i) const noexcept {
    return buf_[slot(i)];
  }
  [[nodiscard]] T& front() noexcept { return buf_[head_]; }

  void push_back(T value) {
    MCSS_ENSURE(size_ < cap_, "push onto a full ring");
    if (size_ == buf_.size()) grow();
    buf_[slot(size_)] = std::move(value);
    ++size_;
  }

  /// Drop the oldest entry (size() > 0). Whatever it owns is released
  /// now, not when its slot is reused.
  void pop_front() {
    buf_[head_] = T{};
    head_ = head_ + 1 == buf_.size() ? 0 : head_ + 1;
    --size_;
  }

  /// Drop every entry; the storage stays.
  void clear() {
    while (size_ > 0) pop_front();
    head_ = 0;
  }

 private:
  [[nodiscard]] std::size_t slot(std::size_t i) const noexcept {
    const std::size_t s = head_ + i;
    return s < buf_.size() ? s : s - buf_.size();
  }

  void grow() {
    std::vector<T> next(std::min(buf_.empty() ? 1 : 2 * buf_.size(), cap_));
    for (std::size_t i = 0; i < size_; ++i) next[i] = std::move((*this)[i]);
    buf_ = std::move(next);
    head_ = 0;
  }

  std::vector<T> buf_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
  std::size_t cap_;
};

}  // namespace mcss::util
