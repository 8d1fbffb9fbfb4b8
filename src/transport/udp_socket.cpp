#include "transport/udp_socket.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/udp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <system_error>

#include "util/ensure.hpp"

namespace mcss::transport {

namespace {

[[noreturn]] void throw_errno(const char* what) {
  throw std::system_error(errno, std::generic_category(), what);
}

sockaddr_in loopback_addr(std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  return addr;
}

}  // namespace

UdpSocket UdpSocket::bound_loopback(std::uint16_t port) {
  UdpSocket s;
#ifdef SOCK_NONBLOCK
  s.fd_ = ::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (s.fd_ < 0) throw_errno("socket(AF_INET, SOCK_DGRAM)");
#else
  s.fd_ = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (s.fd_ < 0) throw_errno("socket(AF_INET, SOCK_DGRAM)");
  const int flags = ::fcntl(s.fd_, F_GETFL, 0);
  if (flags < 0 || ::fcntl(s.fd_, F_SETFL, flags | O_NONBLOCK) < 0) {
    throw_errno("fcntl(O_NONBLOCK)");
  }
#endif
  const sockaddr_in addr = loopback_addr(port);
  if (::bind(s.fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    throw_errno("bind(127.0.0.1)");
  }
  // A kernel that knows UDP_SEGMENT answers the getsockopt (0 = no
  // segment size set yet); one that does not fails with ENOPROTOOPT.
  int gso_size = 0;
  socklen_t gso_len = sizeof(gso_size);
  if (::getsockopt(s.fd_, SOL_UDP, UDP_SEGMENT, &gso_size, &gso_len) == 0) {
    s.max_segments_ = kMaxSegments;
  }
  return s;
}

UdpSocket& UdpSocket::operator=(UdpSocket&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = other.fd_;
    max_segments_ = other.max_segments_;
    gro_ = other.gro_;
    inject_wouldblock_ = other.inject_wouldblock_;
    inject_accept_limit_ = other.inject_accept_limit_;
    inject_accept_armed_ = other.inject_accept_armed_;
    syscalls_send_ = other.syscalls_send_;
    syscalls_recv_ = other.syscalls_recv_;
    other.fd_ = -1;
    other.max_segments_ = 1;
    other.gro_ = false;
    other.inject_wouldblock_ = 0;
    other.inject_accept_limit_ = 0;
    other.inject_accept_armed_ = false;
    other.syscalls_send_ = 0;
    other.syscalls_recv_ = 0;
  }
  return *this;
}

UdpSocket::~UdpSocket() {
  if (fd_ >= 0) ::close(fd_);
}

std::uint16_t UdpSocket::local_port() const {
  MCSS_ENSURE(valid(), "local_port() on a closed socket");
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    throw_errno("getsockname");
  }
  return ntohs(addr.sin_port);
}

void UdpSocket::connect_loopback(std::uint16_t port) {
  MCSS_ENSURE(valid(), "connect_loopback() on a closed socket");
  const sockaddr_in addr = loopback_addr(port);
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    throw_errno("connect(127.0.0.1)");
  }
}

void UdpSocket::set_segment_size(msghdr& hdr, SegmentCmsg& control,
                                 std::uint16_t segment_bytes) noexcept {
  hdr.msg_control = control.buf;
  hdr.msg_controllen = sizeof(control.buf);
  cmsghdr* c = CMSG_FIRSTHDR(&hdr);
  c->cmsg_level = SOL_UDP;
  c->cmsg_type = UDP_SEGMENT;
  c->cmsg_len = CMSG_LEN(sizeof(segment_bytes));
  std::memcpy(CMSG_DATA(c), &segment_bytes, sizeof(segment_bytes));
}

UdpSocket::BatchResult UdpSocket::send_many(std::span<mmsghdr> msgs) {
  MCSS_ENSURE(valid(), "send_many() on a closed socket");
  if (msgs.empty()) return {IoResult::Ok, 0};
  // The accept-limit hook consumes BEFORE the wouldblock hook: arming
  // both models a mid-batch EAGAIN exactly as the kernel sequences it —
  // this call returns short after really sending the head, the NEXT call
  // reports the error.
  std::span<mmsghdr> window = msgs;
  if (inject_accept_armed_) {
    inject_accept_armed_ = false;
    const auto k = static_cast<std::size_t>(
        inject_accept_limit_ < 0 ? 0 : inject_accept_limit_);
    if (k < msgs.size()) {
      // Really send the first k, then report short — the same observable
      // the kernel produces when slot k fails mid-batch.
      if (k == 0) return {IoResult::Ok, 0};
      window = msgs.first(k);
    }
  } else if (inject_wouldblock_ > 0) {
    --inject_wouldblock_;
    return {IoResult::WouldBlock, 0};
  }
  for (;;) {
    ++syscalls_send_;
    const int n = ::sendmmsg(fd_, window.data(),
                             static_cast<unsigned>(window.size()), 0);
    if (n >= 0) return {IoResult::Ok, static_cast<unsigned>(n)};
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return {IoResult::WouldBlock, 0};
    }
    if (errno == ECONNREFUSED) return {IoResult::Refused, 0};
    return {IoResult::Error, 0};
  }
}

void UdpSocket::enable_receive_offload() noexcept {
  const int on = 1;
  gro_ = ::setsockopt(fd_, SOL_UDP, UDP_GRO, &on, sizeof(on)) == 0;
  (void)::setsockopt(fd_, SOL_SOCKET, SO_RXQ_OVFL, &on, sizeof(on));
}

void UdpSocket::inject_no_gro() noexcept {
  const int off = 0;
  (void)::setsockopt(fd_, SOL_UDP, UDP_GRO, &off, sizeof(off));
  gro_ = false;
}

UdpSocket::RecvMeta UdpSocket::read_recv_cmsgs(const msghdr& hdr) noexcept {
  RecvMeta meta;
  for (const cmsghdr* c = CMSG_FIRSTHDR(&hdr); c != nullptr;
       c = CMSG_NXTHDR(const_cast<msghdr*>(&hdr), const_cast<cmsghdr*>(c))) {
    if (c->cmsg_level == SOL_UDP && c->cmsg_type == UDP_GRO) {
      int segment_bytes = 0;
      std::memcpy(&segment_bytes, CMSG_DATA(c), sizeof(segment_bytes));
      meta.segment_bytes =
          segment_bytes > 0 ? static_cast<std::size_t>(segment_bytes) : 0;
    } else if (c->cmsg_level == SOL_SOCKET && c->cmsg_type == SO_RXQ_OVFL) {
      std::memcpy(&meta.kernel_drops, CMSG_DATA(c), sizeof(meta.kernel_drops));
      meta.has_kernel_drops = true;
    }
  }
  return meta;
}

UdpSocket::BatchResult UdpSocket::recv_many(std::span<mmsghdr> msgs) {
  MCSS_ENSURE(valid(), "recv_many() on a closed socket");
  if (msgs.empty()) return {IoResult::Ok, 0};
  for (;;) {
    ++syscalls_recv_;
    const int n = ::recvmmsg(fd_, msgs.data(),
                             static_cast<unsigned>(msgs.size()), 0, nullptr);
    if (n >= 0) return {IoResult::Ok, static_cast<unsigned>(n)};
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return {IoResult::WouldBlock, 0};
    }
    if (errno == ECONNREFUSED) return {IoResult::Refused, 0};
    return {IoResult::Error, 0};
  }
}

void UdpSocket::set_send_buffer(int bytes) {
  MCSS_ENSURE(valid(), "setsockopt on a closed socket");
  if (::setsockopt(fd_, SOL_SOCKET, SO_SNDBUF, &bytes, sizeof(bytes)) < 0) {
    throw_errno("setsockopt(SO_SNDBUF)");
  }
}

void UdpSocket::set_recv_buffer(int bytes) {
  MCSS_ENSURE(valid(), "setsockopt on a closed socket");
  if (::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &bytes, sizeof(bytes)) < 0) {
    throw_errno("setsockopt(SO_RCVBUF)");
  }
}

}  // namespace mcss::transport
