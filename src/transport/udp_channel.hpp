// One live channel: impairment shim in front of a loopback UDP pair.
//
// A UdpChannel is the live-transport analogue of net::SimChannel — same
// config, same stats, same epoll-style ready()/backlog contract the
// DynamicScheduler consumes — but frames actually cross the kernel, and
// they cross it in batches:
//
//   try_send(FrameRef)                       sender side
//     -> Impairment (rate pacing, loss, delay+jitter on the endpoint's
//        timeline)
//     -> pending ring (pool-backed frames the shim has released, each
//        carrying its own release stamp)
//     -> flush(): greedy-coalesce frames into datagrams of
//        <= max_datagram_bytes as iovec GATHERS (no assembly copy), then
//        one sendmmsg(2) moves up to send_batch datagrams; a short
//        return retires only the completed datagrams and requeues the
//        tail; EAGAIN parks everything until the poller reports
//        writability; ECONNREFUSED counts as loss
//   on_readable()                            receiver side
//     -> one recvmmsg(2) fills up to recv_batch persistent pool slots;
//        repeat until the socket drains
//     -> wire::frame_extent() splits each datagram back into frames IN
//        PLACE (framing only, no copy), forwarding spans upward so a
//        keyed proto::Receiver keeps sole authority over auth/malformed
//        accounting and copies only the payloads it retains
//
// After pool warmup the whole path — release, coalesce, sendmmsg,
// recvmmsg, split, forward — performs zero heap allocations; the
// transport suite asserts that with an operator-new counting hook.
//
// send_batch == 1 selects the LEGACY path deliberately: one send()/
// recv() per datagram with assembly and per-frame materialization,
// byte-compatible with the pre-batching transport. bench/live_eval uses
// it as the honest before/after baseline, and it is the fallback story
// if batching ever misbehaves (MCSS_LIVE_BATCH=1).
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "net/sim_channel.hpp"
#include "net/simulator.hpp"
#include "transport/impairment.hpp"
#include "transport/udp_socket.hpp"
#include "util/backoff.hpp"
#include "util/frame_pool.hpp"
#include "util/rng.hpp"

namespace mcss::transport {

/// Socket-layer counters (the impairment layer keeps net::ChannelStats).
struct UdpChannelStats {
  std::uint64_t datagrams_sent = 0;
  std::uint64_t datagrams_received = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
  std::uint64_t frames_coalesced = 0;   ///< frames packed after the first
  std::uint64_t send_wouldblock = 0;    ///< EAGAIN events (datagram kept)
  std::uint64_t send_retries = 0;       ///< backoff-paced re-flush attempts
  std::uint64_t send_refused = 0;       ///< ECONNREFUSED (counted as loss)
  std::uint64_t send_errors = 0;        ///< other errno (datagram dropped)
  std::uint64_t sendmmsg_short = 0;     ///< batch cut short mid-way (tail requeued)
  std::uint64_t recv_refused = 0;       ///< pending ICMP error drained
  std::uint64_t recv_errors = 0;
  std::uint64_t recv_truncated = 0;     ///< datagram overflowed its pool slot
  std::uint64_t frames_forwarded = 0;   ///< parsed frames handed upward
  std::uint64_t unparsed_forwarded = 0; ///< undecodable tails handed upward
  std::uint64_t frames_dropped_pool = 0;///< pool/ring exhausted (tail drop)
};

class UdpChannel {
 public:
  /// Receives the raw bytes of one frame (or one undecodable datagram
  /// tail) from the RX socket. The span views a pool receive slot and is
  /// only valid for the duration of the call — consumers that retain
  /// bytes must copy them (proto::Receiver copies exactly the payload it
  /// stores, nothing else).
  using FrameFn = std::function<void(std::span<const std::uint8_t>)>;

  /// Binds the RX socket to 127.0.0.1:`rx_port` (0 = ephemeral) and
  /// connects an ephemeral TX socket to it. `rng` seeds the impairment's
  /// private loss/jitter stream; the timeline (the endpoint's timer
  /// queue) and pool are shared across channels and must outlive the
  /// channel. `send_batch` caps datagrams
  /// per sendmmsg, `recv_batch` caps datagrams per recvmmsg (and is the
  /// number of receive slots pinned from the pool for this channel's
  /// lifetime); send_batch == 1 selects the legacy unbatched path.
  UdpChannel(net::ChannelConfig config, Rng rng, net::Simulator& timeline,
             util::FramePool& pool, std::uint16_t rx_port, std::string name = {},
             std::size_t max_datagram_bytes = 1400,
             std::size_t send_batch = 32, std::size_t recv_batch = 32);

  UdpChannel(const UdpChannel&) = delete;
  UdpChannel& operator=(const UdpChannel&) = delete;
  ~UdpChannel();

  void set_on_frame(FrameFn fn) { on_frame_ = std::move(fn); }

  /// Offer a pool-backed frame at monotonic time `now_ns`. False = tail
  /// drop at the impairment queue (mirrors SimChannel::try_send).
  bool try_send(util::FrameRef frame, std::int64_t now_ns);

  /// Copying convenience: stage `frame` into a pool slot first. False
  /// additionally covers pool exhaustion (counted in
  /// stats().frames_dropped_pool) — degrade is drop-with-stat, never a
  /// hot-path malloc.
  bool try_send(std::span<const std::uint8_t> frame, std::int64_t now_ns);

  /// epoll-style writability for the scheduler: impairment backlog plus
  /// socket-parked bytes below the watermark.
  [[nodiscard]] bool ready(std::int64_t now_ns) const noexcept;

  /// The dynamic scheduler's "least backlog" key: serializer backlog plus
  /// an estimate for bytes parked behind a full kernel buffer.
  [[nodiscard]] std::int64_t backlog_ns(std::int64_t now_ns) const noexcept;

  /// Drain the RX socket, splitting datagrams into frames. Called by the
  /// endpoint when the poller reports the RX fd readable.
  void on_readable();

  /// Retry parked datagrams. Called when the poller reports the TX fd
  /// writable (and harmlessly any other time). `now_ns` stamps the
  /// per-frame queue-wait observations.
  void on_writable(std::int64_t now_ns);

  /// Send whatever the impairment has released. The endpoint calls this
  /// once per pump iteration so frames released close together (one
  /// timeline advance) leave in one sendmmsg; release() also self-flushes
  /// whenever a full batch is pending, so backlogs never wait for the
  /// next pump.
  void flush(std::int64_t now_ns);

  /// True while frames are parked waiting for kernel buffer space — the
  /// endpoint mirrors this into the poller's EPOLLOUT interest
  /// (level-triggered EPOLLOUT on an idle UDP socket would spin).
  [[nodiscard]] bool wants_write() const noexcept { return ring_count_ > 0; }

  [[nodiscard]] int tx_fd() const noexcept { return tx_.fd(); }
  [[nodiscard]] int rx_fd() const noexcept { return rx_.fd(); }
  [[nodiscard]] std::uint16_t rx_port() const { return rx_.local_port(); }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] const net::ChannelConfig& config() const noexcept {
    return impair_.config();
  }
  [[nodiscard]] const net::ChannelStats& impair_stats() const noexcept {
    return impair_.stats();
  }
  [[nodiscard]] const UdpChannelStats& stats() const noexcept {
    return stats_;
  }
  /// Kernel-crossing syscall counts (send+sendmmsg / recv+recvmmsg), the
  /// numerator of the bench's syscalls_per_packet column.
  [[nodiscard]] std::uint64_t syscalls_send() const noexcept {
    return tx_.syscalls_send();
  }
  [[nodiscard]] std::uint64_t syscalls_recv() const noexcept {
    return rx_.syscalls_recv();
  }

  /// Test hooks: the underlying sockets (e.g. inject_wouldblock, tiny
  /// SO_SNDBUF).
  [[nodiscard]] UdpSocket& tx_socket() noexcept { return tx_; }
  [[nodiscard]] UdpSocket& rx_socket() noexcept { return rx_; }
  /// Release stamps of the frames retired by the most recent flush(), in
  /// send order — lets tests pin that a batch leaving in ONE sendmmsg
  /// still carries per-frame (distinct) departure times.
  [[nodiscard]] std::span<const std::int64_t> last_flush_release_ns()
      const noexcept {
    return {last_flush_release_ns_.data(), last_flush_release_ns_.size()};
  }

 private:
  struct Pending {
    util::FrameRef ref;
    std::int64_t release_ns = 0;
  };

  void release(util::FrameRef frame, std::int64_t release_ns);
  void flush_batched(std::int64_t now_ns);
  void flush_legacy(std::int64_t now_ns);
  void on_readable_batched();
  void on_readable_legacy();
  void split_and_forward(std::span<const std::uint8_t> datagram);
  void arm_retry();
  void retire_front_frames(std::size_t frames, std::int64_t now_ns, bool sent);
  [[nodiscard]] Pending& ring_at(std::size_t i) noexcept {
    return ring_[(ring_head_ + i) % ring_.size()];
  }

  std::string name_;
  std::size_t max_datagram_bytes_;
  std::size_t send_batch_;
  std::size_t recv_batch_;
  UdpSocket rx_;
  UdpSocket tx_;
  net::Simulator& timeline_;
  util::FramePool& pool_;
  Impairment impair_;
  FrameFn on_frame_;

  /// Frames released by the impairment, not yet accepted by the kernel.
  /// Fixed-capacity ring (bounded by pool capacity plus duplicates), so
  /// parking under backpressure never allocates.
  std::vector<Pending> ring_;
  std::size_t ring_head_ = 0;
  std::size_t ring_count_ = 0;
  std::size_t pending_out_bytes_ = 0;

  /// Persistent sendmmsg/recvmmsg scaffolding, sized once in the
  /// constructor: flush() and on_readable() re-fill these in place.
  std::vector<mmsghdr> tx_msgs_;
  std::vector<iovec> tx_iovs_;
  std::vector<std::size_t> tx_takes_;   ///< frames per built datagram
  std::vector<mmsghdr> rx_msgs_;
  std::vector<iovec> rx_iovs_;
  std::vector<util::FrameRef> rx_slots_;      ///< pool slots pinned for RX reuse
  std::vector<std::int64_t> last_flush_release_ns_;

  /// EAGAIN recovery: EPOLLOUT is the primary wake-up, but a timer
  /// re-flush paced by decorrelated-jitter backoff backstops pollers
  /// whose write interest only updates between waits. Reset on progress.
  Backoff retry_backoff_;
  bool retry_armed_ = false;
  std::int64_t last_now_ns_ = 0;  ///< latest time seen by try_send()
  UdpChannelStats stats_;
};

}  // namespace mcss::transport
