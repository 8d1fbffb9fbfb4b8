// The htb + netem link model, written once.
//
// The paper's testbed (Section VI) shapes each channel with Linux htb
// (rate, bounded queue) and netem (loss, corruption, duplication, delay
// and jitter). LinkModel is that arithmetic without a clock and without
// frames: callers pass `now` in and get stamps and verdicts back, so one
// object serves simulated time (net::SimChannel, topo::SimLink) and the
// live endpoint's monotonic clock (transport::Impairment). Each of
// those keeps its frames in its own FIFO, in step with the model's, and
// arms its own events.
//
//   admission   tail drop at queue_capacity_bytes. An accepted frame is
//               charged to the serializer at once, departure =
//               max(free_at, now) + 8B/rate, so frames leave in offer
//               order and departure stamps rise monotonically.
//   FIFO        (departure stamp, bytes offered through this frame) per
//               queued frame. The running byte count answers "when does
//               the backlog fall below N bytes" with one binary search.
//   departure   the head frame leaves, and only now is anything drawn, in
//               this order: loss, corrupt (and which bit), duplicate, then
//               delay + jitter for each copy. A frame that leaves while
//               the channel is down is dropped before any draw.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>

#include "net/sim_time.hpp"
#include "util/ring.hpp"
#include "util/rng.hpp"

namespace mcss::obs {
class Registry;
}

namespace mcss::net {

/// Static configuration of one link direction.
struct ChannelConfig {
  double rate_bps = 100e6;     ///< link rate, bits per second
  double loss = 0.0;           ///< frame loss probability in [0, 1)
  SimTime delay = 0;           ///< one-way propagation delay
  std::size_t queue_capacity_bytes = 64 * 1024;  ///< transmit queue bound
  /// Writability watermark: ready() while backlog < watermark. Defaults to
  /// half the queue capacity when 0.
  std::size_t ready_watermark_bytes = 0;

  // netem's remaining knobs, for the robustness experiments:
  SimTime jitter = 0;        ///< uniform extra delay in [0, jitter]; allows reordering
  double corrupt = 0.0;      ///< P(one random bit of the frame is flipped)
  double duplicate = 0.0;    ///< P(frame is delivered twice)
};

/// Counters exposed for measurement and tests.
struct ChannelStats {
  std::uint64_t frames_offered = 0;    ///< offers, accepted or not
  std::uint64_t frames_queued = 0;     ///< accepted into the queue
  std::uint64_t frames_dropped_queue = 0;  ///< tail drops (queue full)
  std::uint64_t frames_dropped_loss = 0;   ///< netem-style random loss
  std::uint64_t frames_dropped_outage = 0; ///< sent while the channel was down
  std::uint64_t frames_delivered = 0;  ///< copies that left intact or corrupted
  std::uint64_t frames_corrupted = 0;
  std::uint64_t frames_duplicated = 0;
  std::uint64_t bytes_delivered = 0;
  std::uint64_t bytes_queued_total = 0;
};

/// Add one channel's counter totals into the registry under
/// mcss_channel_* names. Counters are additive, so publishing several
/// channels (or calling once per run per channel) aggregates them.
void publish(obs::Registry& registry, const ChannelStats& stats);

class LinkModel {
 public:
  /// What became of a frame leaving the serializer.
  struct Departure {
    int copies = 0;                   ///< 0 (dropped), 1, or 2 (duplicated)
    std::array<SimTime, 2> delay{};   ///< delay + jitter of each copy
  };

  /// Validates `config` (throws PreconditionError) and resolves the
  /// default watermark. `rng` seeds the private netem stream.
  LinkModel(ChannelConfig config, Rng rng);

  /// Offer a frame of `bytes` at `now`: its departure stamp, or nullopt
  /// when the queue cannot take it (a tail drop).
  std::optional<SimTime> offer(std::size_t bytes, SimTime now);

  /// The head frame leaves the serializer; `frame` is its bytes, one bit
  /// of which the corrupt draw may flip. While `down` the frame is an
  /// outage drop and nothing is drawn.
  Departure depart(std::span<std::uint8_t> frame, bool down = false);

  /// 8B/rate, rounded to the nanosecond.
  [[nodiscard]] SimTime serialization_time(std::size_t bytes) const noexcept;

  /// epoll-style writability: backlog below the watermark.
  [[nodiscard]] bool ready() const noexcept {
    return queued_bytes_ < watermark_;
  }

  /// When the backlog first falls below `limit` bytes: the departure
  /// stamp of the frame whose leaving takes it there, or nullopt when it
  /// is below already. O(log queued frames).
  [[nodiscard]] std::optional<SimTime> below_at(
      std::size_t limit) const noexcept;

  /// Time to drain everything queued — the dynamic scheduler's "least
  /// backlog" key: the head frame's remaining serialization plus
  /// 8·(bytes behind it)/rate. SimChannel and SimLink arm the next head
  /// only after the departed frame's callbacks have run; until then they
  /// pass `head_started` false and the whole queue counts at line rate.
  [[nodiscard]] SimTime backlog(SimTime now,
                                bool head_started = true) const noexcept;

  /// Departure stamp of the oldest queued frame (queued_bytes() > 0).
  [[nodiscard]] SimTime head_departure() const noexcept {
    return fifo_[0].departure;
  }
  /// When the serializer runs idle: the last queued frame's departure.
  [[nodiscard]] SimTime free_at() const noexcept { return free_at_; }
  [[nodiscard]] std::size_t queued_bytes() const noexcept {
    return queued_bytes_;
  }
  [[nodiscard]] std::size_t watermark() const noexcept { return watermark_; }
  [[nodiscard]] const ChannelConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] const ChannelStats& stats() const noexcept { return stats_; }

 private:
  struct Stamp {
    SimTime departure = 0;
    std::uint64_t through = 0;  ///< bytes ever queued, up to this frame
  };

  ChannelConfig config_;
  Rng rng_;
  std::size_t watermark_ = 0;
  std::size_t queued_bytes_ = 0;  ///< offered, not yet departed
  std::uint64_t through_ = 0;     ///< bytes ever queued
  SimTime free_at_ = 0;
  util::Ring<Stamp> fifo_;
  ChannelStats stats_;
};

}  // namespace mcss::net
