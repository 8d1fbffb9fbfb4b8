// Userspace netem: net::LinkModel driven on the live endpoint's clock.
//
// The paper's testbed shapes each physical channel with Linux htb (rate)
// and netem (loss/delay/jitter). Reproducing that needs root and a real
// qdisc; this shim applies the same model in userspace, *before* the
// datagram reaches the socket, so the Section VI channel mix runs on any
// unprivileged loopback. The arithmetic is LinkModel's, the one
// net::SimChannel runs on simulated time, so a live run and a sim run of
// the same workload::Setup are impaired alike and bench/live_eval can
// compare measured against LP-predicted as Section VI does against the
// testbed.
//
// The shim holds its in-flight frames itself, in two stages, and keeps
// at most one timeline event armed per stage (a closure over `this`
// only, so arming one allocates nothing):
//
//   serializer  FIFO of frames, in step with the model's FIFO of
//               departure stamps. The stamps rise monotonically, so the
//               event sits on the head.
//   delay line  min-heap on (release stamp, departure order) of departed
//               frames waiting out delay + jitter; with no jitter the
//               stamps arrive in order and the heap stays a FIFO.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "net/link_model.hpp"
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

  /// The link model: ready(), below_at(), free_at(), the backlog and
  /// the counters.
  [[nodiscard]] const net::LinkModel& model() const noexcept { return link_; }
  [[nodiscard]] const net::ChannelStats& stats() const noexcept {
    return link_.stats();
  }

 private:
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
  /// The head frame leaves the serializer at its departure stamp.
  void depart(util::FrameRef frame);
  void arm_release(std::int64_t release_ns);

  net::LinkModel link_;
  net::Simulator& timeline_;
  ReleaseFn release_;
  util::Ring<util::FrameRef> serializer_;  ///< in step with link_'s FIFO
  bool departure_armed_ = false;
  std::vector<Delayed> delay_line_;       ///< heap, earliest release on top
  std::uint64_t delay_seq_ = 0;
  net::EventHandle release_event_;
  std::int64_t release_armed_at_ = 0;     ///< valid while release_event_ is
  bool release_armed_ = false;
};

}  // namespace mcss::transport
