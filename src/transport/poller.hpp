// Readiness multiplexer: level-triggered epoll.
//
// The paper's ReMICSS "chooses the first m channels which are ready for
// writing" straight from epoll (Section V); this is that readiness
// source. One Poller watches every channel socket of a SessionEndpoint
// (plus the telemetry plane's scrape sockets); wait() parks the pump
// loop until a socket turns readable/writable or the endpoint's next
// timer is due. Write interest is toggled per-fd only while a channel
// actually has unflushed bytes — a level-triggered EPOLLOUT on an idle
// UDP socket is always ready and would spin the loop.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

struct epoll_event;

namespace mcss::transport {

class Poller {
 public:
  struct Event {
    int fd = -1;
    bool readable = false;
    bool writable = false;
    bool error = false;  ///< EPOLLERR/EPOLLHUP (e.g. pending ICMP error)
  };

  Poller();
  ~Poller();
  Poller(const Poller&) = delete;
  Poller& operator=(const Poller&) = delete;

  /// Register `fd` with the given interest set. An fd is added once;
  /// change interest with modify().
  void add(int fd, bool want_read, bool want_write);
  void modify(int fd, bool want_read, bool want_write);
  void remove(int fd);

  /// Block up to `timeout_ms` (-1 = indefinitely, 0 = poll-and-return)
  /// for readiness. Appends one Event per ready fd to `out` (which is
  /// cleared first) and returns the event count. EINTR retries.
  std::size_t wait(int timeout_ms, std::vector<Event>& out);

  /// Number of wait() calls that reached the kernel — the poller's
  /// contribution to syscalls_per_packet in the live bench.
  [[nodiscard]] std::uint64_t wait_calls() const noexcept {
    return wait_calls_;
  }

 private:
  int epfd_ = -1;
  std::uint64_t wait_calls_ = 0;
  std::vector<epoll_event> ready_;
};

}  // namespace mcss::transport
