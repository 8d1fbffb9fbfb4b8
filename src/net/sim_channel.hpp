// A simulated unidirectional network channel.
//
// Equivalent to the paper's testbed configuration: a dedicated wire whose
// rate is capped by Linux htb and whose loss/delay are injected by netem.
// The model here is:
//   - serialization: a frame of B bytes occupies the link for 8B/rate_bps
//     seconds; frames queue FIFO behind the one being serialized,
//   - a bounded transmit queue with tail drop (htb's queue),
//   - independent Bernoulli loss per frame (netem loss),
//   - constant propagation delay (netem delay), applied after
//     serialization; frames are delivered in order.
//
// "Ready for writing" mirrors epoll semantics on a socket buffer: the
// channel is writable while its queued backlog is below a watermark.
// Writability callbacks let a sender block until channels free up, which
// is exactly how the ReMICSS dynamic share schedule picks its M.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "net/channel_port.hpp"
#include "net/sim_time.hpp"
#include "net/simulator.hpp"
#include "util/rng.hpp"

namespace mcss::obs {
class Registry;
}

namespace mcss::net {

/// Static configuration of a simulated channel (one direction).
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
  std::uint64_t frames_offered = 0;    ///< try_send calls
  std::uint64_t frames_queued = 0;     ///< accepted into the queue
  std::uint64_t frames_dropped_queue = 0;  ///< tail drops (queue full)
  std::uint64_t frames_dropped_loss = 0;   ///< netem-style random loss
  std::uint64_t frames_dropped_outage = 0; ///< sent while the channel was down
  std::uint64_t frames_delivered = 0;
  std::uint64_t frames_corrupted = 0;
  std::uint64_t frames_duplicated = 0;
  std::uint64_t bytes_delivered = 0;
  std::uint64_t bytes_queued_total = 0;
};

/// Add this channel's counter totals into the registry under
/// mcss_channel_* names. Counters are additive, so publishing several
/// channels (or calling once per run per channel) aggregates them.
void publish(obs::Registry& registry, const ChannelStats& stats);

class SimChannel final : public ChannelPort {
 public:
  using DeliverFn = ChannelPort::DeliverFn;
  using WritableFn = ChannelPort::WritableFn;

  /// `rng` seeds this channel's private loss stream.
  SimChannel(Simulator& sim, ChannelConfig config, Rng rng,
             std::string name = {});

  SimChannel(const SimChannel&) = delete;
  SimChannel& operator=(const SimChannel&) = delete;

  /// Install the delivery callback (the far end).
  void set_receiver(DeliverFn fn) override { deliver_ = std::move(fn); }

  /// Install the epoll-like writability callback, fired when the channel
  /// transitions from not-ready to ready.
  void set_writable_callback(WritableFn fn) override {
    writable_ = std::move(fn);
  }

  /// Offer a frame. Returns false (and counts a tail drop) when the
  /// transmit queue cannot take it; otherwise the frame will serialize,
  /// possibly be lost, and otherwise arrive delay + serialization later.
  bool try_send(std::vector<std::uint8_t> frame) override;

  /// epoll-style writability: backlog below the watermark.
  [[nodiscard]] bool ready() const noexcept override {
    return queued_bytes_ < watermark_;
  }

  /// Silent outage control (Blakley's "abnegated courier"): while down,
  /// frames that leave the serializer vanish. The sender keeps seeing a
  /// writable channel — exactly the failure the m - k redundancy margin
  /// exists to absorb. Driven externally (see net::OutageProcess).
  void set_down(bool down) noexcept { down_ = down; }
  [[nodiscard]] bool is_down() const noexcept { return down_; }

  /// Time needed to drain everything currently queued or in flight on the
  /// serializer — the dynamic scheduler's "least backlog" key.
  [[nodiscard]] SimTime backlog_time() const noexcept override;

  [[nodiscard]] std::size_t queued_bytes() const noexcept { return queued_bytes_; }
  [[nodiscard]] const ChannelConfig& config() const noexcept { return config_; }
  [[nodiscard]] const ChannelStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }

 private:
  void start_transmission();
  [[nodiscard]] SimTime serialization_time(std::size_t bytes) const noexcept;

  Simulator& sim_;
  ChannelConfig config_;
  Rng rng_;
  std::string name_;
  DeliverFn deliver_;
  WritableFn writable_;

  struct QueuedFrame {
    std::vector<std::uint8_t> bytes;
    SimTime enqueued_at = 0;  ///< for the queue-wait histogram / trace span
  };

  std::deque<QueuedFrame> queue_;
  std::size_t queued_bytes_ = 0;
  std::size_t serializing_bytes_ = 0;
  std::size_t watermark_ = 0;
  bool transmitting_ = false;
  bool down_ = false;
  bool was_ready_ = true;
  SimTime serializer_free_at_ = 0;
  ChannelStats stats_;
};

}  // namespace mcss::net
