// ReMICSS receiving side.
//
// Shares of many packets arrive interleaved, reordered, duplicated, and
// partially lost. The receiver keeps a reassembly table keyed by packet
// id — the design borrowed from IP fragment reassembly (Section V):
// partial packets are evicted after a timeout, total buffered memory is
// bounded (oldest partials evicted first), and recently completed ids are
// remembered so late duplicate shares do not resurrect finished packets.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <list>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "crypto/siphash.hpp"
#include "net/channel_port.hpp"
#include "net/cpu_model.hpp"
#include "net/simulator.hpp"
#include "sss/share.hpp"
#include "util/frame_pool.hpp"

namespace mcss::obs {
class Registry;
}

namespace mcss::proto {

struct ReceiverConfig {
  /// Partial packets older than this are evicted (IP-reassembly timeout).
  net::SimTime reassembly_timeout = net::from_millis(500);
  /// Bound on total buffered share bytes across all partial packets.
  std::size_t memory_limit_bytes = 8u << 20;
  /// How many completed packet ids to remember for duplicate suppression.
  std::size_t completed_history = 8192;
  /// When set, only frames carrying a valid SipHash-2-4 tag under this key
  /// are accepted; tampered and unauthenticated frames are dropped and
  /// counted in stats().auth_failures.
  std::optional<crypto::SipHashKey> auth_key;
  /// When set, reassembly partials store their share bytes in slots of
  /// this pool (one slot per partial: k index bytes, then k regions of
  /// share_size bytes) instead of heap-allocating per appended share.
  /// Partials too big for a slot, or arriving while the pool is
  /// exhausted, fall back to the heap — a policy degradation, never a
  /// drop. The pool must outlive the receiver. Not owned.
  util::FramePool* arena = nullptr;
};

struct ReceiverStats {
  std::uint64_t frames_received = 0;
  std::uint64_t malformed_frames = 0;
  std::uint64_t auth_failures = 0;          ///< bad/missing tag (keyed mode)
  std::uint64_t duplicate_shares = 0;       ///< same (id, index) twice
  std::uint64_t late_shares = 0;            ///< for an already-completed id
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
  /// Partials whose share storage landed in an arena slot vs. the heap
  /// fallback (pool exhausted, partial too big for a slot, or no arena
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

  /// Late-bind the partial-storage arena (see ReceiverConfig::arena) —
  /// for owners whose pool is constructed after the receiver. Only legal
  /// while no partials are pending.
  void set_arena(util::FramePool* arena);

  /// Install this receiver as the delivery target of a channel.
  void attach(net::ChannelPort& channel);

  void set_deliver(DeliverFn fn) { deliver_ = std::move(fn); }

  /// Feed one raw frame viewed in place — the live transport's batched
  /// RX path hands spans into pool-backed receive slots, and only the
  /// share payload the receiver actually retains is copied (into the
  /// reassembly partial, by decode). The span need not outlive the call.
  void on_frame(std::span<const std::uint8_t> frame);

  /// Owning-buffer convenience (the attach() path; public for tests).
  void on_frame(std::vector<std::uint8_t> frame) {
    on_frame(std::span<const std::uint8_t>(frame));
  }

  [[nodiscard]] const ReceiverStats& stats() const noexcept { return stats_; }

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

 private:
  struct Partial {
    std::uint8_t k = 1;
    std::uint8_t generation = 0;  ///< re-split count of the stored shares
    std::uint8_t count = 0;       ///< shares stored so far
    std::size_t share_size = 0;
    /// Arena storage: k index bytes, then k share regions of share_size
    /// each. Null = heap fallback via `shares`.
    util::FrameRef slot;
    std::vector<sss::Share> shares;  ///< heap fallback storage
    net::SimTime first_seen = 0;
    /// This partial's reassembly-timeout timer; cancelled when the
    /// partial completes, is evicted or is superseded, so the timeline
    /// holds one timer per PENDING partial and none for finished ones.
    net::EventHandle eviction;
    /// This partial's node in creation_order_, for O(1) unlink.
    std::list<std::uint64_t>::iterator order_it;

    [[nodiscard]] bool in_arena() const noexcept {
      return static_cast<bool>(slot);
    }
  };

  /// Acquire storage for a (re)started partial: an arena slot when it
  /// fits and the pool has room, the heap vector otherwise.
  void init_storage(Partial& partial);
  [[nodiscard]] bool has_share(const Partial& partial,
                               std::uint8_t index) const;
  void append_share(Partial& partial, std::uint8_t index,
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
  void remember_completed(std::uint64_t id);

  net::Simulator& sim_;
  ReceiverConfig config_;
  net::CpuModel* cpu_;
  DeliverFn deliver_;

  std::unordered_map<std::uint64_t, Partial> partials_;
  std::list<std::uint64_t> creation_order_;  // for oldest-first eviction
  std::size_t buffered_bytes_ = 0;
  std::unordered_set<std::uint64_t> completed_;
  std::deque<std::uint64_t> completed_order_;
  ReceiverStats stats_;
  /// Liveness token captured by CpuModel deferred-delivery timers, which
  /// are not tracked by handle: with the session layer many receivers
  /// share one long-lived timeline, and a receiver destroyed with a
  /// delivery pending (flow teardown) must make it a no-op, not a
  /// use-after-free. Eviction timers need no token: the destructor
  /// cancels them.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

}  // namespace mcss::proto
