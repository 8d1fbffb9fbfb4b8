// Extractable, cancellable event store for the discrete-event simulator.
//
// A binary min-heap keyed by (time, sequence number). Unlike
// std::priority_queue — whose const top() forced the old
// `std::move(const_cast<Event&>(queue_.top()))` pattern, undefined
// behavior that _GLIBCXX_DEBUG rejects — pop() extracts the minimum
// element BY VALUE, so no const object is ever mutated. Shared by the
// sequential net::Simulator and every logical process of
// net::psim::PartitionedSimulator.
//
// The heap itself orders small (time, seq, slot) keys; each callback
// sits in a slot table that never moves while the event is pending, and
// every slot records its key's current heap position. push() returns an
// EventHandle naming that slot, so erase() finds and removes a pending
// event in O(log n) without a search or a hash map. Pop order depends
// only on (time, seq), which is a total order, so position tracking
// cannot change which event fires next.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <utility>
#include <vector>

#include "net/sim_time.hpp"

namespace mcss::net {

/// One scheduled callback. Events at equal times fire in scheduling
/// (sequence-number) order, which keeps runs bit-reproducible.
struct Event {
  SimTime time = 0;
  std::uint64_t seq = 0;
  std::function<void()> fn;
};

/// Names one pushed event for erase()/Simulator::cancel(). A
/// default-constructed handle names nothing. Once its event fires or is
/// cancelled the handle is stale: its slot may be reused, but a stale
/// handle never matches the new occupant's sequence number.
struct EventHandle {
  static constexpr std::uint32_t kNoSlot =
      std::numeric_limits<std::uint32_t>::max();
  std::uint32_t slot = kNoSlot;
  std::uint64_t seq = 0;

  [[nodiscard]] explicit operator bool() const noexcept {
    return slot != kNoSlot;
  }
};

class EventHeap {
 public:
  [[nodiscard]] bool empty() const noexcept { return keys_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return keys_.size(); }

  /// Timestamp of the earliest event. Precondition: !empty().
  [[nodiscard]] SimTime min_time() const noexcept {
    return keys_.front().time;
  }

  /// Insert `e`. Sequence numbers must be unique over the heap's life
  /// (the simulator's counter guarantees it); they make handles exact.
  EventHandle push(Event e) {
    std::uint32_t slot;
    if (!free_.empty()) {
      slot = free_.back();
      free_.pop_back();
      slots_[slot].fn = std::move(e.fn);
    } else {
      slot = static_cast<std::uint32_t>(slots_.size());
      slots_.push_back(Slot{std::move(e.fn), 0});
    }
    keys_.push_back(Key{e.time, e.seq, slot});
    sift_up(keys_.size() - 1, keys_.back());
    return EventHandle{slot, e.seq};
  }

  /// Extract the (time, seq)-minimum event. Precondition: !empty().
  [[nodiscard]] Event pop() {
    const Key top = keys_.front();
    Event out{top.time, top.seq, std::move(slots_[top.slot].fn)};
    remove_at(0);
    return out;
  }

  /// Remove the pending event `h` names, destroying its callback
  /// unrun. False — and no effect — when `h` is empty or its event
  /// already fired or was erased.
  bool erase(EventHandle h) {
    if (h.slot >= slots_.size()) return false;
    const std::uint32_t pos = slots_[h.slot].pos;
    if (pos >= keys_.size() || keys_[pos].slot != h.slot ||
        keys_[pos].seq != h.seq) {
      return false;
    }
    // Unlink before the callback's captures die, so a destructor that
    // touches the heap sees it consistent.
    const std::function<void()> doomed = std::move(slots_[h.slot].fn);
    remove_at(pos);
    return true;
  }

 private:
  struct Key {
    SimTime time;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  struct Slot {
    std::function<void()> fn;
    std::uint32_t pos;  ///< index of this slot's key in keys_ while pending
  };

  [[nodiscard]] static bool before(const Key& a, const Key& b) noexcept {
    return a.time != b.time ? a.time < b.time : a.seq < b.seq;
  }

  void place(std::size_t i, const Key& k) noexcept {
    keys_[i] = k;
    slots_[k.slot].pos = static_cast<std::uint32_t>(i);
  }

  /// Vacate heap position `i` (its slot returns to the free list) and
  /// refill the hole with the last key.
  void remove_at(std::size_t i) {
    free_.push_back(keys_[i].slot);
    const Key last = keys_.back();
    keys_.pop_back();
    if (i == keys_.size()) return;
    if (i > 0 && before(last, keys_[(i - 1) / 2])) {
      sift_up(i, last);
    } else {
      sift_down(i, last);
    }
  }

  void sift_up(std::size_t i, Key k) noexcept {
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (!before(k, keys_[parent])) break;
      place(i, keys_[parent]);
      i = parent;
    }
    place(i, k);
  }

  void sift_down(std::size_t i, Key k) noexcept {
    const std::size_t n = keys_.size();
    for (;;) {
      const std::size_t left = 2 * i + 1;
      if (left >= n) break;
      const std::size_t right = left + 1;
      std::size_t smallest = left;
      if (right < n && before(keys_[right], keys_[left])) smallest = right;
      if (!before(keys_[smallest], k)) break;
      place(i, keys_[smallest]);
      i = smallest;
    }
    place(i, k);
  }

  std::vector<Key> keys_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;
};

}  // namespace mcss::net
