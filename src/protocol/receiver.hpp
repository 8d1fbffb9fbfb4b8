// ReMICSS receiving side.
//
// Shares of many packets arrive interleaved, reordered, duplicated, and
// partially lost. The receiver keeps a reassembly table keyed by packet
// id — the design borrowed from IP fragment reassembly (Section V):
// partial packets are evicted after a timeout, total buffered memory is
// bounded (oldest partials evicted first), and completed ids go into a
// util::IdWindow (RFC 4303's anti-replay window), which the flow's
// reports also copy their SACK words from: a share of a completed id, or
// of any id below the window's floor, is late and never delivered again.
// The floor moves only when a packet completes, so a keyed receiver's
// moves only for authenticated packets; an unkeyed receiver, which
// delivers forgeries anyway, lets a forged id far ahead move it.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "crypto/siphash.hpp"
#include "net/channel_port.hpp"
#include "net/cpu_model.hpp"
#include "net/simulator.hpp"
#include "protocol/wire.hpp"
#include "util/frame_pool.hpp"
#include "util/id_window.hpp"
#include "util/intrusive_list.hpp"

namespace mcss::obs {
class Registry;
}

namespace mcss::proto {

struct ReceiverConfig {
  /// Partial packets older than this are evicted (IP-reassembly timeout).
  net::SimTime reassembly_timeout = net::from_millis(500);
  /// Bound on total buffered share bytes across all partial packets.
  std::size_t memory_limit_bytes = 8u << 20;
  /// Completed-id window width in ids (> 0; whole 64-bit words).
  std::size_t completed_history = 8192;
  /// When set, only frames carrying a valid SipHash-2-4 tag under this key
  /// are accepted; tampered and unauthenticated frames are dropped and
  /// counted in stats().auth_failures.
  std::optional<crypto::SipHashKey> auth_key;
  /// When set, a reassembly partial keeps its shares in one slot of this
  /// pool, so its appends never touch the heap. The slot holds the
  /// partial's one layout: k index bytes, then k regions of share_size
  /// bytes. A partial too big for a slot, or arriving while the pool is
  /// exhausted, keeps the same layout in a heap buffer instead — a
  /// policy degradation, never a drop. Without an arena every partial
  /// does. The pool must outlive the receiver. Not owned.
  util::FramePool* arena = nullptr;
};

struct ReceiverStats {
  std::uint64_t frames_received = 0;
  std::uint64_t malformed_frames = 0;
  std::uint64_t auth_failures = 0;          ///< bad/missing tag (keyed mode)
  std::uint64_t duplicate_shares = 0;       ///< same (id, index) twice
  std::uint64_t late_shares = 0;            ///< id completed or below floor
  std::uint64_t conflicting_metadata = 0;   ///< k or length disagrees
  std::uint64_t packets_delivered = 0;
  std::uint64_t bytes_delivered = 0;
  std::uint64_t packets_evicted_timeout = 0;
  std::uint64_t packets_evicted_memory = 0;
  /// Shares dropped because the memory cap could not be met even after
  /// evicting every other partial (the incoming share alone, or the
  /// partial it extends, would exceed the limit).
  std::uint64_t shares_dropped_memory = 0;
  /// Shares of an older generation than the stored partial, dropped —
  /// shares of different re-splits never combine (see wire.hpp).
  std::uint64_t stale_generation_shares = 0;
  /// Partials whose buffered shares were discarded because a newer
  /// generation (a retransmission) arrived and restarted reassembly.
  std::uint64_t partials_superseded = 0;
  /// Partials whose share storage landed in an arena slot vs. a heap
  /// buffer (pool exhausted, partial too big for a slot, or no arena
  /// configured). Arena appends are allocation-free.
  std::uint64_t partials_in_arena = 0;
  std::uint64_t partials_on_heap = 0;
};

/// Add these totals into the registry under mcss_receiver_* names.
void publish(obs::Registry& registry, const ReceiverStats& stats);

class Receiver {
 public:
  /// Delivery callback: (packet id, reconstructed payload).
  using DeliverFn = std::function<void(std::uint64_t, std::vector<std::uint8_t>)>;

  explicit Receiver(net::Simulator& sim, ReceiverConfig config = {},
                    net::CpuModel* cpu = nullptr);
  ~Receiver();

  Receiver(const Receiver&) = delete;
  Receiver& operator=(const Receiver&) = delete;

  /// Install this receiver as the delivery target of a channel.
  void attach(net::ChannelPort& channel);

  void set_deliver(DeliverFn fn) { deliver_ = std::move(fn); }

  /// Feed one raw frame viewed in place: decode_view() under the
  /// receiver's key (the batch-of-one decode), then the decoded overload
  /// below. The simulator's path; the span need not outlive the call.
  void on_frame(std::span<const std::uint8_t> frame);

  /// Feed one frame decode_views() already framed and, under this
  /// receiver's key, authenticated — the live endpoints' path, where one
  /// lane pass verifies a whole receive batch and each frame is parsed
  /// once. `status` is that decode's verdict: failures are counted here
  /// (malformed / auth) and touch nothing else. A keyed receiver counts
  /// an Ok view that carries no verified tag as an auth failure, so a
  /// keyless decode can never hand it a frame. Only the share payload
  /// the receiver retains is copied (into the reassembly partial); the
  /// view need not outlive the call.
  void on_frame(DecodeStatus status, const FrameView& frame);

  [[nodiscard]] const ReceiverStats& stats() const noexcept { return stats_; }
  /// The key frames must be authenticated under before they reach this
  /// receiver (the key batch decoders pass to decode_views); null when
  /// unkeyed.
  [[nodiscard]] const crypto::SipHashKey* auth_key() const noexcept {
    return config_.auth_key ? &*config_.auth_key : nullptr;
  }

  /// Publish this receiver's stats into the registry (end-of-run hook).
  void publish_metrics(obs::Registry& registry) const;
  [[nodiscard]] std::size_t pending_packets() const noexcept { return partials_.size(); }
  [[nodiscard]] std::size_t buffered_bytes() const noexcept { return buffered_bytes_; }
  /// Size of the oldest-first eviction bookkeeping; always equals
  /// pending_packets() (ids are unlinked the moment a packet completes
  /// or is evicted — exposed so tests can pin the invariant).
  [[nodiscard]] std::size_t tracked_partials() const noexcept {
    return creation_order_.size();
  }
  /// Completed ids, marked before the delivery callback runs.
  [[nodiscard]] const util::IdWindow& delivered() const noexcept {
    return delivered_;
  }

 private:
  struct Partial {
    std::uint64_t id = 0;
    std::uint8_t k = 1;
    std::uint8_t generation = 0;  ///< re-split count of the stored shares
    std::uint8_t count = 0;       ///< shares stored so far
    std::size_t share_size = 0;
    /// The shares: k index bytes, then k share regions of share_size
    /// each, in `slot` when it is set and in `heap` otherwise. `heap`
    /// grows as shares append, so it holds only what has arrived.
    util::FrameRef slot;
    std::vector<std::uint8_t> heap;
    net::SimTime first_seen = 0;
    /// This partial's reassembly-timeout timer; cancelled when the
    /// partial completes, is evicted or is superseded, so the timeline
    /// holds one timer per PENDING partial and none for finished ones.
    net::EventHandle eviction;
    /// Link in creation_order_.
    util::ListHook<Partial> order;

    [[nodiscard]] std::uint8_t* storage() noexcept {
      return slot ? slot.data() : heap.data();
    }
  };

  /// Place a (re)started partial: an arena slot when one is configured,
  /// fits and is free; the heap buffer otherwise.
  void init_storage(Partial& partial);
  [[nodiscard]] static bool has_share(Partial& partial, std::uint8_t index);
  static void append_share(Partial& partial, std::uint8_t index,
                           std::span<const std::uint8_t> payload);

  /// (Re)arm the partial's reassembly timeout, cancelling any earlier
  /// one.
  void arm_eviction_timer(std::uint64_t id, Partial& partial);
  void complete(std::uint64_t id, Partial& partial);
  void evict(std::uint64_t id, std::uint64_t* counter);
  /// Evict oldest partials (never `exclude`) until `incoming_bytes` more
  /// fit under the cap; false when they cannot be made to fit.
  bool make_room(std::size_t incoming_bytes,
                 std::optional<std::uint64_t> exclude);

  net::Simulator& sim_;
  ReceiverConfig config_;
  net::CpuModel* cpu_;
  DeliverFn deliver_;

  std::unordered_map<std::uint64_t, Partial> partials_;
  /// Pending partials, oldest first, for oldest-first eviction.
  util::IntrusiveList<Partial, &Partial::order> creation_order_;
  std::size_t buffered_bytes_ = 0;
  util::IdWindow delivered_;
  ReceiverStats stats_;
  /// Liveness token captured by CpuModel deferred-delivery timers, which
  /// are not tracked by handle: a receiver destroyed with a delivery
  /// pending must make it a no-op, not a use-after-free. Only a receiver
  /// with a CpuModel defers deliveries, so only it has a token. Eviction
  /// timers need none: the destructor cancels them.
  std::shared_ptr<bool> alive_;
};

}  // namespace mcss::proto
