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
//        <= max_datagram_bytes as iovec GATHERS (no assembly copy), up
//        to send_batch datagrams; merge each run of consecutive
//        equal-size datagrams into ONE message with a UDP_SEGMENT cmsg
//        (only the run's last datagram may be shorter, and a shorter one
//        ends the run; <= 64 segments and <= 65507 bytes), and move
//        every message with one sendmmsg(2). The kernel cuts a message
//        where the coalescer cut, so the wire carries the same
//        datagrams with one stack traversal per run. A short return
//        retires only the completed messages and requeues the tail;
//        EAGAIN parks everything until the poller reports writability;
//        ECONNREFUSED loses the head message. Without kernel
//        UDP_SEGMENT support every run is one datagram
//   on_readable()                            receiver side
//     -> one recvmmsg(2) fills the channel's own receive entries (one
//        buffer allocated at construction; no pool slots); repeat until
//        the socket drains. Where the kernel takes UDP_GRO, a segmented
//        burst arrives whole as ONE entry with a UDP_GRO cmsg carrying
//        the segment size, and there are min(recv_batch, kGroEntries)
//        entries of kGroEntryBytes: recv_batch caps entries, not
//        datagrams. Without UDP_GRO there are recv_batch entries of one
//        pool slot's size, each one datagram: recv_batch caps datagrams
//     -> each entry is cut at its segment size back into the sender's
//        datagrams (an entry with no UDP_GRO cmsg is one), and
//        wire::frame_extent() splits each datagram into frames IN PLACE
//        (framing only, no copy). The frames of the whole recvmmsg go
//        upward as ONE batch of spans, before the entries are reused:
//        the endpoint authenticates the batch in one multi-lane SipHash
//        pass (proto::decode_views) and its receivers copy only the
//        payloads they retain. GRO on or off, the same frames go up in
//        the same order, and the wire counters count datagrams
//
// After pool warmup the whole path — release, coalesce, sendmmsg,
// recvmmsg, split, forward — performs zero heap allocations; the
// transport suite asserts that with an operator-new counting hook.
//
// send_batch and recv_batch are depths, not modes: at depth 1 every
// release is flushed at once as a one-datagram sendmmsg, and each
// recvmmsg takes one entry. bench/live_eval runs depth 1 against depth
// 32 as its before/after.
//
// Virtual time cuts the channel below the coalescer: it opens no
// socket, flush() stages each datagram it would have handed sendmmsg,
// and deliver_staged() hands the staged datagrams upward as recvmmsg
// calls of recv_batch entries would. Everything above, the impairment,
// the pending ring, the coalescing and the frame split, is the live
// code (SessionConfig::virtual_time).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "net/link_model.hpp"
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
  std::uint64_t gso_messages = 0;       ///< UDP_SEGMENT messages sent (runs >= 2)
  std::uint64_t gso_segments = 0;       ///< wire datagrams those messages carried
  std::uint64_t recv_refused = 0;       ///< pending ICMP error drained
  std::uint64_t recv_errors = 0;
  std::uint64_t recv_truncated = 0;     ///< datagram overflowed its entry
  std::uint64_t gro_messages = 0;       ///< UDP_GRO entries received (bursts >= 2)
  std::uint64_t gro_segments = 0;       ///< wire datagrams those entries held
  std::uint64_t recv_kernel_drops = 0;  ///< latest SO_RXQ_OVFL count (socket total)
  std::uint64_t frames_forwarded = 0;   ///< parsed frames handed upward
  std::uint64_t unparsed_forwarded = 0; ///< undecodable tails handed upward
  std::uint64_t frames_dropped_pool = 0;///< pool/ring exhausted (tail drop)
};

/// Add one channel's socket counters to the mcss_live_* series (call it
/// per channel; the registry sums them).
void publish(obs::Registry& registry, const UdpChannelStats& stats);

class UdpChannel {
 public:
  /// Receives one receive batch: the raw bytes of every frame (and every
  /// undecodable datagram tail) split from the datagrams of one
  /// recvmmsg. A recvmmsg
  /// that splits into more than recv_batch * kFramesPerSlot frames
  /// arrives as several calls. The spans view receive entries and are
  /// only valid for the duration of the call (it fires before the
  /// entries are reused) — consumers that retain bytes must copy them.
  using BatchFn =
      std::function<void(std::span<const std::span<const std::uint8_t>>)>;

  /// Frames per batch callback, per unit of recv_batch (a 1400-byte
  /// datagram of 128-byte shares carries about ten).
  static constexpr std::size_t kFramesPerSlot = 16;

  /// With UDP_GRO: receive entries per recvmmsg (when recv_batch is at
  /// least this), and the bytes of each. An entry holds a whole burst of
  /// up to UdpSocket::kMaxSegments datagrams and kMaxMessageBytes bytes.
  /// The entries are allocated uninitialised, so only the pages the
  /// kernel writes become resident. Four, not recv_batch: where more
  /// than four entries queue up they hold bursts, not single datagrams,
  /// so each extra entry would keep up to 16 pages resident for
  /// recvmmsg calls that cost no measurable CPU (EXPERIMENTS.md,
  /// "Receive offload").
  static constexpr std::size_t kGroEntries = 4;
  static constexpr std::size_t kGroEntryBytes = 64 << 10;

  /// Binds the RX socket to 127.0.0.1:`rx_port` (0 = ephemeral) and
  /// connects an ephemeral TX socket to it. `rng` seeds the impairment's
  /// private loss/jitter stream; the timeline (the endpoint's timer
  /// queue) and pool are shared across channels and must outlive the
  /// channel. `send_batch` caps wire datagrams per sendmmsg (however
  /// many messages segmentation packs them into), `recv_batch` caps
  /// receive entries per recvmmsg: with UDP_GRO, min(recv_batch,
  /// kGroEntries) entries of kGroEntryBytes; without, recv_batch
  /// entries of pool.slot_bytes(), one datagram each. The entries are
  /// the channel's own; it takes no pool slots to receive. Depth 1
  /// runs the same code with one datagram per sendmmsg and one entry
  /// per recvmmsg.
  /// With `virtual_time` the channel opens no socket (rx_port is
  /// unused) and moves datagrams through staged() instead.
  UdpChannel(net::ChannelConfig config, Rng rng, net::Simulator& timeline,
             util::FramePool& pool, std::uint16_t rx_port, std::string name = {},
             std::size_t max_datagram_bytes = 1400,
             std::size_t send_batch = 32, std::size_t recv_batch = 32,
             bool virtual_time = false);

  UdpChannel(const UdpChannel&) = delete;
  UdpChannel& operator=(const UdpChannel&) = delete;
  ~UdpChannel();

  void set_on_batch(BatchFn fn) { on_batch_ = std::move(fn); }

  /// Offer a pool-backed frame at monotonic time `now_ns`. False = tail
  /// drop at the impairment queue (the LinkModel admission
  /// SimChannel::try_send uses).
  bool try_send(util::FrameRef frame, std::int64_t now_ns);

  /// Copying convenience: stage `frame` into a pool slot first. False
  /// additionally covers pool exhaustion (counted in
  /// stats().frames_dropped_pool) — degrade is drop-with-stat, never a
  /// hot-path malloc.
  bool try_send(std::span<const std::uint8_t> frame, std::int64_t now_ns);

  /// epoll-style writability for the scheduler: impairment backlog plus
  /// socket-parked bytes below the watermark.
  [[nodiscard]] bool ready(std::int64_t now_ns) const noexcept;

  /// When a channel that is not ready() can take shares again: the
  /// serializer departure that takes its backlog below the watermark,
  /// but no earlier than `margin_ns` before the serializer runs idle, so
  /// a wake finds room for more than one share. nullopt when the channel
  /// is ready, or when bytes parked behind a full kernel buffer keep it
  /// not ready on their own (EPOLLOUT then wakes the loop).
  [[nodiscard]] std::optional<std::int64_t> unblocks_at(
      std::int64_t margin_ns) const noexcept;

  /// When the impairment serializer runs idle (in the past when it is).
  [[nodiscard]] std::int64_t idle_at() const noexcept {
    return impair_.model().free_at();
  }

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

  /// Virtual time: true while flush() has staged datagrams that
  /// deliver_staged() has not handed upward (a readable socket).
  [[nodiscard]] bool has_staged() const noexcept {
    return !staged_ends_.empty();
  }

  /// Virtual time: hand every staged datagram upward, recv_batch
  /// datagrams per batch callback as one recvmmsg would. Datagrams
  /// staged by the callbacks wait for the next call.
  void deliver_staged();

  /// True while frames are parked waiting for kernel buffer space — the
  /// endpoint mirrors this into the poller's EPOLLOUT interest
  /// (level-triggered EPOLLOUT on an idle UDP socket would spin).
  [[nodiscard]] bool wants_write() const noexcept { return ring_count_ > 0; }

  [[nodiscard]] int tx_fd() const noexcept { return tx_.fd(); }
  [[nodiscard]] int rx_fd() const noexcept { return rx_.fd(); }
  [[nodiscard]] std::uint16_t rx_port() const { return rx_.local_port(); }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] const net::ChannelConfig& config() const noexcept {
    return impair_.model().config();
  }
  [[nodiscard]] const net::ChannelStats& impair_stats() const noexcept {
    return impair_.stats();
  }
  [[nodiscard]] const UdpChannelStats& stats() const noexcept {
    return stats_;
  }
  /// Kernel-crossing syscall counts (sendmmsg / recvmmsg calls), the
  /// numerator of the bench's syscalls_per_packet column.
  [[nodiscard]] std::uint64_t syscalls_send() const noexcept {
    return tx_.syscalls_send();
  }
  [[nodiscard]] std::uint64_t syscalls_recv() const noexcept {
    return rx_.syscalls_recv();
  }

  /// Test hooks: the underlying sockets (e.g. inject_wouldblock,
  /// inject_no_segmentation, inject_no_gro, tiny SO_SNDBUF).
  [[nodiscard]] UdpSocket& tx_socket() noexcept { return tx_; }
  [[nodiscard]] UdpSocket& rx_socket() noexcept { return rx_; }
  [[nodiscard]] const UdpSocket& rx_socket() const noexcept { return rx_; }
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

  /// One sendmmsg message as built: `segments` datagrams of
  /// `segment_bytes` (the last may be shorter) gathering `frames`
  /// consecutive iovecs, one per frame.
  struct TxMessage {
    std::size_t first_iov = 0;
    std::size_t frames = 0;
    std::size_t segments = 0;
    std::size_t bytes = 0;
    std::size_t segment_bytes = 0;
  };

  void release(util::FrameRef frame, std::int64_t release_ns);
  /// Virtual time's sendmmsg: copy each message's datagram into the
  /// staging buffer; every message completes.
  UdpSocket::BatchResult stage(std::span<mmsghdr> msgs);
  /// Split one datagram into frames, appending them to the pending batch.
  void split_into_batch(std::span<const std::uint8_t> datagram);
  /// Hand the pending batch upward and clear it.
  void forward_batch();
  void arm_retry();
  void retire_front_frames(std::size_t frames, std::int64_t now_ns, bool sent);
  [[nodiscard]] Pending& ring_at(std::size_t i) noexcept {
    return ring_[(ring_head_ + i) % ring_.size()];
  }

  std::string name_;
  bool virtual_time_;
  std::size_t max_datagram_bytes_;
  std::size_t send_batch_;
  UdpSocket rx_;
  UdpSocket tx_;
  net::Simulator& timeline_;
  util::FramePool& pool_;
  Impairment impair_;
  BatchFn on_batch_;

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
  std::vector<TxMessage> tx_runs_;      ///< per built message
  std::vector<UdpSocket::SegmentCmsg> tx_cmsgs_;  ///< per built message
  std::vector<mmsghdr> rx_msgs_;
  std::vector<iovec> rx_iovs_;
  std::vector<UdpSocket::RecvCmsg> rx_cmsgs_;  ///< per receive entry
  std::size_t rx_entries_ = 0;                 ///< entries per recvmmsg
  std::unique_ptr<std::uint8_t[]> rx_buf_;     ///< the entries, back to back
  /// Frames split from the current receive batch; capacity fixed at
  /// construction (full = forward early), so splitting never allocates.
  std::vector<std::span<const std::uint8_t>> rx_frames_;
  std::vector<std::int64_t> last_flush_release_ns_;
  /// Virtual time: staged datagrams back to back, each one's end offset,
  /// and the pair being delivered (swapped in, so callbacks that stage
  /// more never touch the bytes the current batch views).
  std::vector<std::uint8_t> staged_bytes_;
  std::vector<std::size_t> staged_ends_;
  std::vector<std::uint8_t> delivering_bytes_;
  std::vector<std::size_t> delivering_ends_;

  /// EAGAIN recovery: EPOLLOUT is the primary wake-up, but a timer
  /// re-flush paced by decorrelated-jitter backoff backstops pollers
  /// whose write interest only updates between waits. Reset on progress.
  Backoff retry_backoff_;
  bool retry_armed_ = false;
  std::int64_t last_now_ns_ = 0;  ///< latest time seen by try_send()
  UdpChannelStats stats_;
};

}  // namespace mcss::transport
