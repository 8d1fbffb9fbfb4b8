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
//
// The shim holds its in-flight frames itself, in two stages, and keeps
// at most one timeline event armed per stage (a closure over `this`
// only, so arming one allocates nothing):
//
//   serializer  FIFO of (departure stamp, bytes offered through this
//               frame, frame). Departure stamps are charged at offer
//               time and rise monotonically, so the event sits on the
//               head. The running byte count answers "when does the
//               backlog fall below N bytes" with one binary search.
//   delay line  min-heap on (release stamp, departure order) of departed
//               frames waiting out delay + jitter; with no jitter the
//               stamps arrive in order and the heap stays a FIFO.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "net/sim_channel.hpp"
#include "net/simulator.hpp"
#include "util/frame_pool.hpp"
#include "util/ring.hpp"
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
  /// released inline — no queueing, no timer — with draw order
  /// identical to the queued path.
  bool offer(util::FrameRef frame, std::int64_t now_ns);

  /// epoll-style writability: backlog below the watermark (mirrors
  /// SimChannel::ready()).
  [[nodiscard]] bool ready() const noexcept {
    return queued_bytes_ < watermark_;
  }

  /// When the serializer backlog first falls below `limit` bytes: the
  /// departure stamp of the frame whose leaving takes it there, or
  /// nullopt when it is below already. O(log queued frames).
  [[nodiscard]] std::optional<std::int64_t> below_at(
      std::size_t limit) const noexcept;

  /// When the serializer runs idle: the last queued frame's departure.
  [[nodiscard]] std::int64_t free_at() const noexcept {
    return serializer_free_at_;
  }
  [[nodiscard]] std::size_t watermark() const noexcept { return watermark_; }

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
  struct Queued {
    std::int64_t departure_ns = 0;
    std::uint64_t through = 0;  ///< serializer bytes offered up to this frame
    util::FrameRef frame;
  };
  struct Delayed {
    std::int64_t release_ns = 0;
    std::uint64_t seq = 0;
    util::FrameRef frame;
  };

  /// Heap order of the delay line: the earliest release on top, and
  /// equal stamps in departure order, as the timeline's (time, seq)
  /// order fired them when each frame had an event of its own.
  static bool later(const Delayed& a, const Delayed& b) noexcept;
  /// Timeline events: depart / release every frame due by now().
  void on_departures();
  void on_releases();
  void depart(util::FrameRef frame, std::int64_t departure_ns);
  void arm_release(std::int64_t release_ns);
  [[nodiscard]] std::int64_t serialization_ns(std::size_t bytes) const noexcept;

  net::ChannelConfig config_;
  Rng rng_;
  net::Simulator& timeline_;
  ReleaseFn release_;
  std::size_t watermark_ = 0;
  std::size_t queued_bytes_ = 0;          ///< offered, not yet departed
  std::int64_t serializer_free_at_ = 0;   ///< monotonic ns
  util::Ring<Queued> serializer_;
  std::uint64_t serializer_through_ = 0;  ///< bytes ever queued at it
  bool departure_armed_ = false;
  std::vector<Delayed> delay_line_;       ///< heap, earliest release on top
  std::uint64_t delay_seq_ = 0;
  net::EventHandle release_event_;
  std::int64_t release_armed_at_ = 0;     ///< valid while release_event_ is
  bool release_armed_ = false;
  net::ChannelStats stats_;
};

}  // namespace mcss::transport
