// Fixed-slab frame arena for the batched datagram fast path.
//
// The live transport's hot-path byte buffers — encoded share frames
// waiting behind the impairment serializer, datagrams parked on a full
// kernel buffer, and the protocol receiver's reassembly partials — live
// in one of these pools instead of an ad-hoc std::vector (each channel
// receives into its own block of recvmmsg entries). (The pool started
// life in mcss::transport; it moved down to util when proto::Receiver
// grew arena-backed partial storage, since protocol sits below transport
// in the layering.) The design is the classic fixed-size allocator
// (netsim's Alloc/mem.h idiom): one contiguous arena carved into equal
// slots, a singly-linked freelist threaded through the slot headers,
// O(1) acquire/release, and no malloc after construction. Exhaustion is
// a *policy*, not an error: acquire() returns a null FrameRef, the
// caller drops the frame and bumps a stat, and the transport degrades
// exactly like a full qdisc — never by falling back to heap allocation
// on the hot path.
//
// FrameRef is a ref-counted handle (copying bumps a plain counter; the
// pool is single-event-loop property, so counts are not atomic). The
// impairment's duplicate knob and a parked TX batch can thus alias one
// slot without copying bytes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace mcss::util {

class FramePool;

/// Handle to one pool slot. Null (default-constructed, or from an
/// exhausted pool) refs are falsy and safe to destroy. Copies share the
/// slot; the slot returns to the freelist when the last ref drops.
class FrameRef {
 public:
  FrameRef() = default;
  ~FrameRef() { reset(); }
  FrameRef(const FrameRef& other) noexcept;
  FrameRef& operator=(const FrameRef& other) noexcept;
  FrameRef(FrameRef&& other) noexcept
      : pool_(other.pool_), slot_(other.slot_) {
    other.pool_ = nullptr;
  }
  FrameRef& operator=(FrameRef&& other) noexcept;

  [[nodiscard]] explicit operator bool() const noexcept {
    return pool_ != nullptr;
  }

  /// Slot payload. data() is stable for the life of the ref (slots never
  /// move); size() is the logical frame length set via resize().
  [[nodiscard]] std::uint8_t* data() noexcept;
  [[nodiscard]] const std::uint8_t* data() const noexcept;
  [[nodiscard]] std::size_t size() const noexcept;
  /// Set the logical length; must not exceed the pool's slot_bytes().
  void resize(std::size_t n) noexcept;
  [[nodiscard]] std::span<std::uint8_t> span() noexcept {
    return {data(), size()};
  }
  [[nodiscard]] std::span<const std::uint8_t> cspan() const noexcept {
    return {data(), size()};
  }

  /// Index of the slot inside the pool arena (for registered-buffer I/O).
  [[nodiscard]] std::uint32_t slot() const noexcept { return slot_; }

  /// Drop this reference (slot freed when it was the last one).
  void reset() noexcept;

 private:
  friend class FramePool;
  FrameRef(FramePool* pool, std::uint32_t slot) noexcept
      : pool_(pool), slot_(slot) {}

  FramePool* pool_ = nullptr;
  std::uint32_t slot_ = 0;
};

class FramePool {
 public:
  struct Stats {
    std::uint64_t acquired = 0;    ///< successful acquire()s
    std::uint64_t exhausted = 0;   ///< acquire()s that found no free slot
    std::size_t high_water = 0;    ///< peak slots simultaneously in use
  };

  /// One arena of `slots` slots of `slot_bytes` each. All memory is
  /// allocated here; the hot path never touches the heap again.
  FramePool(std::size_t slot_bytes, std::size_t slots);

  FramePool(const FramePool&) = delete;
  FramePool& operator=(const FramePool&) = delete;

  /// O(1). Null ref when every slot is in use (counted in stats).
  [[nodiscard]] FrameRef acquire() noexcept;

  /// acquire() + copy `bytes` into the slot. Null ref when exhausted or
  /// when `bytes` exceeds slot_bytes() (both counted as exhaustion —
  /// oversize frames cannot ever be pooled, and callers treat both as
  /// the same drop).
  [[nodiscard]] FrameRef acquire_copy(
      std::span<const std::uint8_t> bytes) noexcept;

  [[nodiscard]] std::size_t slot_bytes() const noexcept { return slot_bytes_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return refs_.size(); }
  [[nodiscard]] std::size_t in_use() const noexcept { return in_use_; }
  [[nodiscard]] std::size_t available() const noexcept {
    return capacity() - in_use_;
  }
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

  /// The contiguous arena every slot lives in.
  [[nodiscard]] std::uint8_t* arena_data() noexcept { return arena_.data(); }
  [[nodiscard]] std::size_t arena_bytes() const noexcept {
    return arena_.size();
  }

 private:
  friend class FrameRef;
  static constexpr std::uint32_t kNone = 0xFFFFFFFFu;

  [[nodiscard]] std::uint8_t* slot_data(std::uint32_t slot) noexcept {
    return arena_.data() + static_cast<std::size_t>(slot) * slot_bytes_;
  }
  void retain(std::uint32_t slot) noexcept { ++refs_[slot]; }
  void release(std::uint32_t slot) noexcept;

  std::size_t slot_bytes_;
  std::vector<std::uint8_t> arena_;
  std::vector<std::uint32_t> refs_;       ///< 0 = free
  std::vector<std::uint32_t> sizes_;      ///< logical frame length per slot
  std::vector<std::uint32_t> next_free_;  ///< freelist links
  std::uint32_t free_head_ = kNone;
  std::size_t in_use_ = 0;
  Stats stats_;
};

// -- FrameRef inline bodies that need FramePool's definition ------------

inline FrameRef::FrameRef(const FrameRef& other) noexcept
    : pool_(other.pool_), slot_(other.slot_) {
  if (pool_ != nullptr) pool_->retain(slot_);
}

inline FrameRef& FrameRef::operator=(const FrameRef& other) noexcept {
  if (this != &other) {
    if (other.pool_ != nullptr) other.pool_->retain(other.slot_);
    reset();
    pool_ = other.pool_;
    slot_ = other.slot_;
  }
  return *this;
}

inline FrameRef& FrameRef::operator=(FrameRef&& other) noexcept {
  if (this != &other) {
    reset();
    pool_ = other.pool_;
    slot_ = other.slot_;
    other.pool_ = nullptr;
  }
  return *this;
}

inline std::uint8_t* FrameRef::data() noexcept {
  return pool_->slot_data(slot_);
}

inline const std::uint8_t* FrameRef::data() const noexcept {
  return pool_->slot_data(slot_);
}

inline std::size_t FrameRef::size() const noexcept {
  return pool_->sizes_[slot_];
}

inline void FrameRef::resize(std::size_t n) noexcept {
  pool_->sizes_[slot_] = static_cast<std::uint32_t>(n);
}

inline void FrameRef::reset() noexcept {
  if (pool_ != nullptr) {
    pool_->release(slot_);
    pool_ = nullptr;
  }
}

}  // namespace mcss::util
