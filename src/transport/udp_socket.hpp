// Nonblocking loopback UDP socket, RAII-wrapped.
//
// The live transport's unit of I/O: one socket per channel direction,
// always 127.0.0.1, always O_NONBLOCK. The wrapper normalizes the errno
// zoo of nonblocking UDP into a small result enum the channel state
// machine can switch on:
//
//   WouldBlock     EAGAIN/EWOULDBLOCK — kernel send buffer full; keep
//                  the datagram and wait for writability
//   Refused        ECONNREFUSED — a previous datagram drew an ICMP port
//                  unreachable (peer not bound yet, or gone). For a
//                  best-effort share channel this is loss, not an error
//   Error          anything else (EMSGSIZE, ENOBUFS, ...) — drop and count
//
// Tests can inject WouldBlock deterministically (inject_wouldblock):
// loopback drains so fast that a real EAGAIN is timing-dependent, but
// the backpressure path must be exercised on every CI run.
//
// UDP segmentation offload (UDP_SEGMENT, Linux 4.18+) is probed once per
// socket: max_segments() is kMaxSegments where the kernel takes the
// option and 1 where it does not, and inject_no_segmentation() models
// the latter on any kernel. Its receive twin, UDP_GRO (Linux 5.0+), is
// asked for by enable_receive_offload(): a burst sent as one segmented
// message then arrives as one recvmmsg entry whose RecvCmsg carries the
// segment size. gro() reports whether the kernel took it, and
// inject_no_gro() turns it back off.
#pragma once

#include <sys/socket.h>

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>

namespace mcss::transport {

class UdpSocket {
 public:
  enum class IoResult {
    Ok,
    WouldBlock,
    Refused,
    Error,
  };

  /// Outcome of one sendmmsg/recvmmsg call. `completed` datagrams were
  /// moved; when completed < the batch size, `result` explains why the
  /// batch stopped short *if the kernel told us* — a short sendmmsg
  /// return reports Ok and leaves the failing datagram's errno for the
  /// next call, per sendmmsg(2), so callers requeue the tail and retry.
  struct BatchResult {
    IoResult result = IoResult::Ok;
    unsigned completed = 0;
  };

  /// An invalid (closed) socket; use the factories.
  UdpSocket() = default;

  /// Nonblocking UDP socket bound to 127.0.0.1:`port` (0 = kernel picks;
  /// read it back with local_port()). Throws std::system_error on failure.
  [[nodiscard]] static UdpSocket bound_loopback(std::uint16_t port);

  UdpSocket(UdpSocket&& other) noexcept { *this = std::move(other); }
  UdpSocket& operator=(UdpSocket&& other) noexcept;
  UdpSocket(const UdpSocket&) = delete;
  UdpSocket& operator=(const UdpSocket&) = delete;
  ~UdpSocket();

  [[nodiscard]] bool valid() const noexcept { return fd_ >= 0; }
  [[nodiscard]] int fd() const noexcept { return fd_; }
  [[nodiscard]] std::uint16_t local_port() const;

  /// Fix the peer to 127.0.0.1:`port` so send_many() needs no address
  /// and the socket receives ICMP errors (ECONNREFUSED) for dead peers.
  void connect_loopback(std::uint16_t port);

  /// Segments one UDP_SEGMENT message may carry (the kernel's
  /// UDP_MAX_SEGMENTS floor across versions), and the payload bytes one
  /// IPv4 UDP datagram — and so one segmented message — may hold.
  static constexpr std::size_t kMaxSegments = 64;
  static constexpr std::size_t kMaxMessageBytes = 65507;

  /// Control buffer for one message's UDP_SEGMENT cmsg.
  union SegmentCmsg {
    char buf[CMSG_SPACE(sizeof(std::uint16_t))];
    cmsghdr align;
  };

  /// Point `hdr`'s control data at `control`, filled with a UDP_SEGMENT
  /// cmsg: send_many() then has the kernel cut the message into
  /// datagrams of `segment_bytes` (the last may be shorter).
  static void set_segment_size(msghdr& hdr, SegmentCmsg& control,
                               std::uint16_t segment_bytes) noexcept;

  /// Control buffer for one received message: room for a UDP_GRO cmsg
  /// (the burst's segment size) and an SO_RXQ_OVFL cmsg (the socket's
  /// drop count).
  union RecvCmsg {
    char buf[CMSG_SPACE(sizeof(int)) + CMSG_SPACE(sizeof(std::uint32_t))];
    cmsghdr align;
  };

  /// What one received message's control data carried.
  struct RecvMeta {
    /// UDP_GRO segment size: the message is a burst of datagrams of this
    /// size (the last may be shorter). 0 when no UDP_GRO cmsg came.
    std::size_t segment_bytes = 0;
    /// SO_RXQ_OVFL: datagrams the kernel had dropped on this socket when
    /// the message was queued. The kernel sends it only once nonzero.
    bool has_kernel_drops = false;
    std::uint32_t kernel_drops = 0;
  };

  /// Parse a received message's control data (msg_controllen as
  /// recvmmsg left it).
  [[nodiscard]] static RecvMeta read_recv_cmsgs(const msghdr& hdr) noexcept;

  /// Send up to msgs.size() messages in one sendmmsg(2). The caller owns
  /// the mmsghdr/iovec/cmsg arrays (persistent, reused across calls —
  /// this layer allocates nothing). A message is one datagram, or, with a
  /// UDP_SEGMENT cmsg, a run of datagrams the kernel cuts at the segment
  /// size. A failure on the FIRST message surfaces as {WouldBlock, 0}
  /// (EAGAIN: the kernel send buffer is full), {Refused, 0}
  /// (ECONNREFUSED) or {Error, 0} (anything else); a failure on a later
  /// slot makes the kernel stop and return the count sent so far —
  /// reported here as {Ok, n<size}, with the slot's errno surfacing at
  /// the head of the next call. msg_len is filled per sent message (UDP
  /// never short-writes, so it is the message's whole payload).
  [[nodiscard]] BatchResult send_many(std::span<mmsghdr> msgs);

  /// Receive up to msgs.size() messages in one recvmmsg(2). Each
  /// mmsghdr's iovec must point at a receive slot; on return, slot i of
  /// the first `completed` has msg_len bytes (check msg_flags & MSG_TRUNC
  /// for oversized datagrams). A message is one datagram, or, with
  /// UDP_GRO on, a whole segmented burst: point msg_control at a
  /// RecvCmsg (msg_controllen reset before every call) and read the
  /// segment size with read_recv_cmsgs(). {WouldBlock, 0} when nothing
  /// is queued; {Ok, n<size} means the queue drained mid-batch (no need
  /// to call again until the poller reports readable).
  [[nodiscard]] BatchResult recv_many(std::span<mmsghdr> msgs);

  /// Syscalls actually issued (sendmmsg and recvmmsg calls that
  /// reached the kernel, including ones that returned EAGAIN; EINTR
  /// retries count each attempt). The batched fast path's whole point is
  /// driving syscalls_send()/packet toward 1/batch — the bench reads
  /// these.
  [[nodiscard]] std::uint64_t syscalls_send() const noexcept {
    return syscalls_send_;
  }
  [[nodiscard]] std::uint64_t syscalls_recv() const noexcept {
    return syscalls_recv_;
  }

  /// Kernel buffer knobs (SO_SNDBUF / SO_RCVBUF), for the backpressure
  /// tests; the kernel doubles and clamps the value it actually applies.
  void set_send_buffer(int bytes);
  void set_recv_buffer(int bytes);

  /// Make the next `count` send_many() calls report WouldBlock
  /// without touching the kernel (deterministic EAGAIN for tests). A
  /// batched call consumes ONE injection and completes zero datagrams —
  /// modelling EAGAIN on slot 0.
  void inject_wouldblock(int count) noexcept { inject_wouldblock_ = count; }

  /// Make the next send_many() really send only the first `k` messages
  /// and return short ({Ok, k}), as the kernel does when a mid-batch slot
  /// fails — a real short return needs a timing-dependent mid-batch
  /// EAGAIN, but the requeue-the-tail path must run on every CI run.
  /// One-shot; 0 disarms.
  void inject_accept_limit(int k) noexcept {
    inject_accept_limit_ = k;
    inject_accept_armed_ = true;
  }

  /// Segments per UDP_SEGMENT message this socket may send: kMaxSegments
  /// when the kernel accepted the option at construction, else 1 (no
  /// segmentation — every message is one datagram).
  [[nodiscard]] std::size_t max_segments() const noexcept {
    return max_segments_;
  }

  /// Model a kernel without UDP_SEGMENT: max_segments() reads 1 from now
  /// on, so callers send one datagram per message.
  void inject_no_segmentation() noexcept { max_segments_ = 1; }

  /// Set UDP_GRO (bursts arrive whole) and SO_RXQ_OVFL (drop counts ride
  /// on received messages) on this socket, best effort: a kernel that
  /// refuses either option just leaves it off. For receivers that read
  /// control data with recv_many().
  void enable_receive_offload() noexcept;

  /// True when the kernel accepted UDP_GRO in enable_receive_offload().
  [[nodiscard]] bool gro() const noexcept { return gro_; }

  /// Model a kernel without UDP_GRO: set the option back to 0, so the
  /// kernel cuts every burst into datagrams again, and gro() reads false.
  void inject_no_gro() noexcept;

 private:
  int fd_ = -1;
  std::size_t max_segments_ = 1;
  bool gro_ = false;
  int inject_wouldblock_ = 0;
  int inject_accept_limit_ = 0;
  bool inject_accept_armed_ = false;
  std::uint64_t syscalls_send_ = 0;
  std::uint64_t syscalls_recv_ = 0;
};

}  // namespace mcss::transport
