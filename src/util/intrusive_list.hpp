// Intrusive doubly linked FIFO list.
//
// Each element carries its own links (a ListHook member named by the
// list's template argument), so linking and unlinking never allocate and
// an element unlinks in O(1) from a reference. An element may sit on
// several lists at once through several hooks. Elements must stay at one
// address while linked: node-based containers (std::unordered_map) keep
// them in place.
#pragma once

#include <cstddef>

namespace mcss::util {

template <typename T>
struct ListHook {
  T* prev = nullptr;
  T* next = nullptr;
};

template <typename T, ListHook<T> T::*Hook>
class IntrusiveList {
 public:
  IntrusiveList() = default;
  IntrusiveList(const IntrusiveList&) = delete;
  IntrusiveList& operator=(const IntrusiveList&) = delete;

  [[nodiscard]] bool empty() const noexcept { return head_ == nullptr; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  /// The element linked first (the oldest); null when empty.
  [[nodiscard]] T* front() const noexcept { return head_; }
  /// The element linked after `t`; null when `t` is the last.
  [[nodiscard]] static T* next(const T& t) noexcept { return (t.*Hook).next; }

  [[nodiscard]] bool contains(const T& t) const noexcept {
    return (t.*Hook).prev != nullptr || head_ == &t;
  }

  /// Link `t` at the back; a no-op when it is already linked.
  void push_back(T& t) noexcept {
    if (contains(t)) return;
    ListHook<T>& hook = t.*Hook;
    hook.prev = tail_;
    hook.next = nullptr;
    if (tail_ != nullptr) {
      (tail_->*Hook).next = &t;
    } else {
      head_ = &t;
    }
    tail_ = &t;
    ++size_;
  }

  /// Unlink `t`; a no-op when it is not linked.
  void erase(T& t) noexcept {
    if (!contains(t)) return;
    ListHook<T>& hook = t.*Hook;
    if (hook.prev != nullptr) {
      (hook.prev->*Hook).next = hook.next;
    } else {
      head_ = hook.next;
    }
    if (hook.next != nullptr) {
      (hook.next->*Hook).prev = hook.prev;
    } else {
      tail_ = hook.prev;
    }
    hook = {};
    --size_;
  }

 private:
  T* head_ = nullptr;
  T* tail_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace mcss::util
