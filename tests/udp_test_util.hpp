// One datagram at a time through transport::UdpSocket's batched calls,
// for the tests' peers, attackers and injectors, which send or read
// single datagrams.
#pragma once

#include <sys/socket.h>
#include <sys/uio.h>

#include <cstddef>
#include <cstdint>
#include <span>

#include "transport/udp_socket.hpp"

namespace mcss::test {

/// Send `datagram` as a one-message send_many(): Ok once it was sent,
/// else the reason the kernel (or an injected WouldBlock) gave.
inline transport::UdpSocket::IoResult send_one(
    transport::UdpSocket& socket, std::span<const std::uint8_t> datagram) {
  iovec iov{const_cast<std::uint8_t*>(datagram.data()), datagram.size()};
  mmsghdr msg{};
  msg.msg_hdr.msg_iov = &iov;
  msg.msg_hdr.msg_iovlen = 1;
  return socket.send_many({&msg, 1}).result;
}

/// Receive one datagram into `buf` with a one-message recv_many();
/// `*received` gets its length (0 unless Ok). WouldBlock when nothing
/// is queued.
inline transport::UdpSocket::IoResult recv_one(transport::UdpSocket& socket,
                                               std::span<std::uint8_t> buf,
                                               std::size_t* received) {
  iovec iov{buf.data(), buf.size()};
  mmsghdr msg{};
  msg.msg_hdr.msg_iov = &iov;
  msg.msg_hdr.msg_iovlen = 1;
  const auto [result, completed] = socket.recv_many({&msg, 1});
  *received = completed == 1 ? msg.msg_len : 0;
  return completed == 1 ? transport::UdpSocket::IoResult::Ok : result;
}

}  // namespace mcss::test
