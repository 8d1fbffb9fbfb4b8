// The sender-facing channel abstraction.
//
// The simulated protocol endpoints (proto::Sender and proto::Receiver)
// only ever need five operations from a channel: offer a frame, ask
// whether it is writable, ask how long its backlog would take to drain,
// install the far-end delivery callback, and install the
// writability-edge callback. ChannelPort names exactly that surface, so
// the same endpoints drive
//
//   - net::SimChannel        a point-to-point simulated link (the
//                            paper's model: one dedicated wire per
//                            channel), and
//   - topo::RoutedChannel    a multi-hop path through a routed
//                            topology, where several logical channels
//                            may share physical links (src/topo).
//
// without knowing which world they are in. The port is deliberately
// narrow: per-implementation surface (stats, outage control, link
// drill-down) stays on the concrete types, which callers that
// configure or measure a channel keep holding by name.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "net/sim_time.hpp"

namespace mcss::net {

class ChannelPort {
 public:
  using DeliverFn = std::function<void(std::vector<std::uint8_t>)>;
  using WritableFn = std::function<void()>;

  virtual ~ChannelPort() = default;

  /// Offer a frame. False means the ingress queue refused it (tail
  /// drop); true means the frame entered the channel and will arrive,
  /// or be lost, per the channel's model.
  virtual bool try_send(std::vector<std::uint8_t> frame) = 0;

  /// epoll-style writability: ingress backlog below the watermark.
  [[nodiscard]] virtual bool ready() const noexcept = 0;

  /// Time to drain everything queued or serializing at the ingress —
  /// the dynamic scheduler's "least backlog" key.
  [[nodiscard]] virtual SimTime backlog_time() const noexcept = 0;

  /// Install the delivery callback (the far end).
  virtual void set_receiver(DeliverFn fn) = 0;

  /// Install the writability callback, fired on the not-ready -> ready
  /// transition.
  virtual void set_writable_callback(WritableFn fn) = 0;
};

}  // namespace mcss::net
