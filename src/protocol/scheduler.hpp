// Share schedulers: who decides (k, M) for each outgoing packet.
//
// The paper evaluates ReMICSS's *dynamic share schedule* — "instead of
// deciding M ahead of time, the sender chooses the first m channels which
// are ready for writing" (Section V) — against the explicit schedules the
// model's linear programs produce. Both are implementations of the same
// interface, so the sender is policy-agnostic and the ablation benches
// can swap them freely:
//
//   DynamicScheduler       epoll-style: dithered (k, m), first m ready
//                          channels by least backlog (ReMICSS default)
//   StaticScheduler        samples an explicit ShareSchedule (e.g. the
//                          IV-D LP solution); waits until its chosen M is
//                          writable
//   FixedScheduler         constant (k, M): MICSS semantics (k = n over
//                          every channel), courier-mode threshold schemes
//                          (k < n), or a proactive redundancy plan
//                          (feedback/redundancy.hpp); waits until every
//                          channel in M is writable
#pragma once

#include <array>
#include <cstddef>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/schedule.hpp"
#include "net/sim_time.hpp"
#include "protocol/dither.hpp"
#include "util/rng.hpp"

namespace mcss::obs {
class Registry;
}

namespace mcss::proto {

/// Sender-visible state of one channel at decision time.
struct ChannelView {
  bool ready = false;          ///< epoll-style writability
  net::SimTime backlog = 0;    ///< time to drain what is already queued
};

/// Channel indices held inline. A sender has at most kCapacity channels
/// (the width of the uint32_t channel masks), so a decision never
/// touches the heap.
class ChannelList {
 public:
  static constexpr std::size_t kCapacity = 32;

  ChannelList() = default;
  explicit ChannelList(std::span<const int> channels);

  void push_back(int channel);
  /// Keep the first n entries (n <= size()).
  void truncate(std::size_t n);

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] int operator[](std::size_t i) const noexcept {
    return channels_[i];
  }
  [[nodiscard]] int* begin() noexcept { return channels_.data(); }
  [[nodiscard]] int* end() noexcept { return channels_.data() + size_; }
  [[nodiscard]] const int* begin() const noexcept { return channels_.data(); }
  [[nodiscard]] const int* end() const noexcept {
    return channels_.data() + size_;
  }
  // NOLINTNEXTLINE(google-explicit-constructor): a list is a span.
  operator std::span<const int>() const noexcept {
    return {channels_.data(), size_};
  }

  friend bool operator==(const ChannelList& a, std::span<const int> b);

 private:
  std::array<int, kCapacity> channels_{};
  std::size_t size_ = 0;
};

/// The decision for one packet: threshold and the channel indices that
/// will each carry exactly one share (|channels| = m).
struct ShareDecision {
  int k = 1;
  ChannelList channels;
};

/// Strategy interface. next() may return nullopt, meaning "no acceptable
/// channel subset is writable — call again after a writability event".
/// Implementations must re-offer the SAME logical decision until it is
/// accepted, so that deferrals do not skew the (kappa, mu) averages.
class ShareScheduler {
 public:
  virtual ~ShareScheduler() = default;
  [[nodiscard]] virtual std::optional<ShareDecision> next(
      std::span<const ChannelView> channels) = 0;

  /// Publish any scheduler-internal stats into the registry (end-of-run
  /// hook; the default scheduler kinds have none).
  virtual void publish_metrics(obs::Registry& registry) const {
    (void)registry;
  }
};

/// ReMICSS dynamic schedule: (k, m) from error-diffusion dithering of
/// (kappa, mu); M = the m ready channels with the least backlog.
class DynamicScheduler final : public ShareScheduler {
 public:
  DynamicScheduler(double kappa, double mu, int num_channels);
  [[nodiscard]] std::optional<ShareDecision> next(
      std::span<const ChannelView> channels) override;

  /// Ready channels the deferred decision waits for: its m after next()
  /// returned nullopt, 0 when no decision is pending.
  [[nodiscard]] int pending_m() const noexcept {
    return pending_ ? pending_->m : 0;
  }

 private:
  KappaMuDither dither_;
  std::optional<KmPair> pending_;
};

struct StaticSchedulerStats {
  /// Parked decisions dropped to keep sampling when the pool was full of
  /// undispatchable entries. Each eviction slightly skews the realized
  /// schedule away from the target distribution, so it is surfaced.
  std::uint64_t parked_evicted = 0;
  /// Parked decisions that later became writable and were dispatched.
  std::uint64_t parked_dispatched = 0;
};

/// Add these totals into the registry under mcss_scheduler_* names.
void publish(obs::Registry& registry, const StaticSchedulerStats& stats);

/// Explicit schedule: samples (k, M) from a ShareSchedule. A sampled
/// decision whose M is not fully writable is parked in a small reorder
/// pool while later samples proceed (packets are independent symbols, so
/// reordering is harmless) — without this, one busy slow channel
/// head-of-line-blocks every other channel. When the pool fills with
/// decisions that never become dispatchable, the oldest is evicted
/// (counted in stats()) so sampling keeps going — a full pool must not
/// wedge the sender while other subsets are writable.
class StaticScheduler final : public ShareScheduler {
 public:
  /// `pool_limit` bounds how many sampled-but-blocked decisions may be
  /// parked, and how many fresh samples one next() call may draw.
  StaticScheduler(ShareSchedule schedule, Rng rng, std::size_t pool_limit = 32);
  [[nodiscard]] std::optional<ShareDecision> next(
      std::span<const ChannelView> channels) override;

  [[nodiscard]] const StaticSchedulerStats& stats() const noexcept {
    return stats_;
  }

  void publish_metrics(obs::Registry& registry) const override;

 private:
  ShareSchedule schedule_;
  Rng rng_;
  std::vector<ScheduleEntry> parked_;
  std::size_t pool_limit_;
  StaticSchedulerStats stats_;
};

/// Constant (k, M): every packet is split k-of-|M| over exactly the
/// listed channels, once all of them are writable. k = n over every
/// channel gives MICSS semantics.
class FixedScheduler final : public ShareScheduler {
 public:
  FixedScheduler(int k, std::span<const int> channels);
  [[nodiscard]] std::optional<ShareDecision> next(
      std::span<const ChannelView> channels) override;

 private:
  int k_;
  ChannelList channels_;
};

}  // namespace mcss::proto
