// One flow's delivered packet ids: a floor plus one bit per id above it
// (RFC 4303 section 3.4.3's anti-replay window). Ids start at 1; word w
// covers ids 64w + 1 .. 64w + 64. The window is the `width` words ending
// at the highest marked id's word, or the first `width` words, so only
// mark() slides it, and an id below the floor never reads New again.
// Words grow with the marked span, never preallocated, and are indexed
// modulo the width, so a slide clears only the words it reuses.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "util/ensure.hpp"

namespace mcss::util {

class IdWindow {
 public:
  enum class State : std::uint8_t { New, Delivered, BelowFloor };

  /// At least `ids` ids wide, rounded up to whole words.
  explicit IdWindow(std::size_t ids) : width_((ids + 63) / 64) {
    MCSS_ENSURE(ids > 0, "an id window needs a width");
  }

  [[nodiscard]] State state(std::uint64_t id) const noexcept {
    if (id < floor()) return State::BelowFloor;
    const bool set =
        id <= highest_ && (word((id - 1) / 64) >> ((id - 1) % 64)) & 1u;
    return set ? State::Delivered : State::New;
  }

  /// Mark `id` (>= floor()) delivered, sliding the window up to it.
  void mark(std::uint64_t id) {
    MCSS_ENSURE(id >= floor(), "marking an id below the window's floor");
    const std::uint64_t w = (id - 1) / 64;
    const std::uint64_t fresh = highest_ == 0 ? 0 : top() + 1;
    if (w >= fresh) {  // new words: zero them, and grow while below width
      const std::uint64_t held = words_.size();
      if (w >= held && held < width_) {
        words_.resize(std::min(width_, std::max(w + 1, 2 * held)));
      }
      for (std::uint64_t i = fresh; i <= w && i - fresh < width_; ++i) {
        words_[i % width_] = 0;
      }
    }
    highest_ = std::max(highest_, id);
    words_[w % width_] |= std::uint64_t{1} << ((id - 1) % 64);
  }

  /// The lowest id the window tracks; every id below it is BelowFloor.
  [[nodiscard]] std::uint64_t floor() const noexcept {
    return highest_ != 0 && top() >= width_ ? 1 + 64 * (top() - width_ + 1)
                                            : 1;
  }
  /// The highest id marked; 0 before the first mark.
  [[nodiscard]] std::uint64_t highest() const noexcept { return highest_; }
  [[nodiscard]] std::size_t width_words() const noexcept { return width_; }
  [[nodiscard]] std::size_t heap_bytes() const noexcept {
    return words_.capacity() * sizeof(std::uint64_t);
  }

  /// Copy the out.size() words ending at the highest id's word (the
  /// first out.size() words until that passes them); returns the first
  /// id out[0] covers. A word the window does not hold reads 0, so a
  /// copy no wider than the window loses nothing.
  std::uint64_t top_words(std::span<std::uint64_t> out) const noexcept {
    const std::uint64_t last = highest_ == 0 ? 0 : top();
    const std::uint64_t first =
        last >= out.size() ? last + 1 - out.size() : 0;
    const std::uint64_t lowest = floor();
    for (std::size_t i = 0; i < out.size(); ++i) {
      const std::uint64_t id = 1 + 64 * (first + i);
      out[i] = id >= lowest && id <= highest_ ? word(first + i) : 0;
    }
    return 1 + 64 * first;
  }

 private:
  /// The highest id's word (highest_ > 0).
  [[nodiscard]] std::uint64_t top() const noexcept {
    return (highest_ - 1) / 64;
  }
  [[nodiscard]] std::uint64_t word(std::uint64_t w) const noexcept {
    return words_[static_cast<std::size_t>(w % width_)];
  }

  std::vector<std::uint64_t> words_;
  std::uint64_t highest_ = 0;
  std::uint64_t width_;
};

}  // namespace mcss::util
