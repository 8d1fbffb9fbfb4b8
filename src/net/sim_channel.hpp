// A simulated unidirectional network channel: net::LinkModel driven on
// simulated time.
//
// The paper's testbed wire, rate capped by htb and impaired by netem;
// the arithmetic (admission, serialization, netem draws, backlog) is
// LinkModel's. This class owns the frames and the events: one event per
// head frame, armed when the frame reaches the head, at the departure
// stamp the model charged at offer time, and one delivery event per
// surviving copy. It adds silent outages (set_down) and tracing.
//
// "Ready for writing" mirrors epoll semantics on a socket buffer: the
// channel is writable while its queued backlog is below a watermark.
// Writability callbacks let a sender block until channels free up, which
// is exactly how the ReMICSS dynamic share schedule picks its M.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "net/channel_port.hpp"
#include "net/link_model.hpp"
#include "net/sim_time.hpp"
#include "net/simulator.hpp"
#include "util/rng.hpp"

namespace mcss::net {

class SimChannel final : public ChannelPort {
 public:
  using DeliverFn = ChannelPort::DeliverFn;
  using WritableFn = ChannelPort::WritableFn;

  /// `rng` seeds this channel's private netem stream.
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
  [[nodiscard]] bool ready() const noexcept override { return link_.ready(); }

  /// Silent outage control (Blakley's "abnegated courier"): while down,
  /// frames that leave the serializer vanish. The sender keeps seeing a
  /// writable channel — exactly the failure the m - k redundancy margin
  /// exists to absorb. Driven externally (see net::OutageProcess).
  void set_down(bool down) noexcept { down_ = down; }
  [[nodiscard]] bool is_down() const noexcept { return down_; }

  /// Time needed to drain everything currently queued or in flight on the
  /// serializer — the dynamic scheduler's "least backlog" key.
  [[nodiscard]] SimTime backlog_time() const noexcept override {
    return link_.backlog(sim_.now(), head_started_);
  }

  [[nodiscard]] const ChannelStats& stats() const noexcept {
    return link_.stats();
  }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }

 private:
  void start_transmission();

  Simulator& sim_;
  LinkModel link_;
  std::string name_;
  DeliverFn deliver_;
  WritableFn writable_;

  struct QueuedFrame {
    std::vector<std::uint8_t> bytes;
    SimTime enqueued_at = 0;  ///< for the queue-wait histogram / trace span
  };

  std::deque<QueuedFrame> queue_;
  /// A departure event is armed, or the departed frame's callbacks are
  /// still running (the next head's is armed after them).
  bool transmitting_ = false;
  bool head_started_ = false;  ///< the head frame's departure event is armed
  bool down_ = false;
  bool was_ready_ = true;
};

}  // namespace mcss::net
