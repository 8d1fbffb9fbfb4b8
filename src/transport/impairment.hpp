// Userspace netem: per-channel impairment for live loopback sockets.
//
// The paper's testbed shapes each physical channel with Linux htb (rate)
// and netem (loss/delay/jitter). Reproducing that needs root and a real
// qdisc; this shim applies the same model in userspace, *before* the
// datagram reaches the socket, so the Section VI channel mix runs on any
// unprivileged loopback:
//
//   - serialization: a frame of B bytes holds the link 8B/rate_bps
//     seconds; frames queue FIFO behind the serializer (htb),
//   - a bounded transmit queue with tail drop (htb's queue),
//   - independent Bernoulli loss per frame, decided when the frame leaves
//     the serializer (netem loss),
//   - constant delay plus uniform jitter in [0, jitter], applied after
//     serialization (netem delay/jitter; jitter may reorder),
//   - optional corrupt (one random bit flip) and duplicate knobs.
//
// This is the same model net::SimChannel implements on simulated time —
// it reuses net::ChannelConfig and net::ChannelStats verbatim — and its
// departures and releases are events on the same net::Simulator type,
// here the live endpoint's wall-clock timeline. That symmetry is the
// point: a live run and a sim run of the same workload::Setup are
// impaired by the same arithmetic, so bench/live_eval can compare
// measured against LP-predicted exactly as Section VI does against the
// testbed.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "net/sim_channel.hpp"
#include "net/simulator.hpp"
#include "transport/shared_link_loss.hpp"
#include "util/frame_pool.hpp"
#include "util/rng.hpp"

namespace mcss::transport {

class Impairment {
 public:
  /// Receives each surviving frame at its impaired release time, along
  /// with that release time (monotonic ns) — the channel batches many
  /// released frames into one sendmmsg, and each frame keeps its OWN
  /// release stamp so per-frame queue-wait accounting survives batching.
  using ReleaseFn = std::function<void(util::FrameRef, std::int64_t)>;

  /// `rng` seeds this channel's private loss/jitter stream. `timeline`
  /// is the endpoint's timer queue (now() = monotonic ns since its
  /// epoch), shared across channels; it must outlive the Impairment.
  Impairment(net::ChannelConfig config, Rng rng, net::Simulator& timeline,
             ReleaseFn release);

  Impairment(const Impairment&) = delete;
  Impairment& operator=(const Impairment&) = delete;

  /// Offer a frame at monotonic time `now_ns`, which may trail the
  /// timeline's now(). Returns false (tail drop) when the transmit queue
  /// cannot take it; otherwise the frame will serialize, possibly be
  /// lost, and otherwise be released to `release` serialization + delay
  /// + jitter later.
  ///
  /// Fast path: when the serializer is idle and the frame's whole
  /// serialization + delay + jitter charge rounds to zero (a transparent
  /// channel, i.e. the bench's unimpaired configuration), the frame is
  /// released inline — no timer, no deferred closure, no allocation —
  /// with draw order identical to the scheduled path.
  bool offer(util::FrameRef frame, std::int64_t now_ns);

  /// Shared-link loss mode: route this channel over `shared` (a link
  /// its path shares with other channels). Consulted at serializer
  /// departure, BEFORE the private Bernoulli loss, so drops correlate
  /// across every Impairment subscribed to the same instance — the
  /// live mirror of a topo shared link. Pass nullptr to detach; the
  /// instance must outlive the channel. Not owned.
  void set_shared_loss(SharedLinkLoss* shared) noexcept { shared_ = shared; }
  [[nodiscard]] SharedLinkLoss* shared_loss() const noexcept {
    return shared_;
  }

  /// epoll-style writability: backlog below the watermark (mirrors
  /// SimChannel::ready()).
  [[nodiscard]] bool ready() const noexcept {
    return queued_bytes_ < watermark_;
  }

  /// Time to drain everything at or behind the serializer — the dynamic
  /// scheduler's "least backlog" key (mirrors SimChannel::backlog_time()).
  [[nodiscard]] std::int64_t backlog_ns(std::int64_t now_ns) const noexcept {
    return serializer_free_at_ > now_ns ? serializer_free_at_ - now_ns : 0;
  }

  [[nodiscard]] std::size_t queued_bytes() const noexcept {
    return queued_bytes_;
  }
  [[nodiscard]] const net::ChannelConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] const net::ChannelStats& stats() const noexcept {
    return stats_;
  }

 private:
  void depart(util::FrameRef frame, std::int64_t departure_ns);
  [[nodiscard]] std::int64_t serialization_ns(std::size_t bytes) const noexcept;

  net::ChannelConfig config_;
  Rng rng_;
  net::Simulator& timeline_;
  ReleaseFn release_;
  SharedLinkLoss* shared_ = nullptr;  ///< optional, not owned
  std::size_t watermark_ = 0;
  std::size_t queued_bytes_ = 0;          ///< offered, not yet departed
  std::int64_t serializer_free_at_ = 0;   ///< monotonic ns
  net::ChannelStats stats_;
};

}  // namespace mcss::transport
