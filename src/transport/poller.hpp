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
//
// Timeouts are nanoseconds. wait() passes them to epoll_pwait2 (Linux
// 5.11+) as a timespec, so a loop that has to wake in 300 us wakes in
// 300 us; a one-time probe at construction falls back to epoll_wait,
// which takes milliseconds, on kernels without it (the timeout then
// rounds UP to whole ms, so the wait never ends early).
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

  /// Block up to `timeout_ns` (negative = indefinitely, 0 =
  /// poll-and-return) for readiness. Appends one Event per ready fd to
  /// `out` (which is cleared first) and returns the event count. EINTR
  /// retries.
  std::size_t wait(std::int64_t timeout_ns, std::vector<Event>& out);

  /// True when wait() takes its timeout at nanosecond precision
  /// (epoll_pwait2); false on the ms-rounded epoll_wait fallback.
  [[nodiscard]] bool ns_timeouts() const noexcept { return ns_timeouts_; }

  /// Model a kernel without epoll_pwait2: every later wait() takes the
  /// epoll_wait fallback, and ns_timeouts() reads false.
  void inject_no_ns_timeouts() noexcept { ns_timeouts_ = false; }

  /// Number of wait() calls that reached the kernel — the poller's
  /// contribution to syscalls_per_packet in the live bench.
  [[nodiscard]] std::uint64_t wait_calls() const noexcept {
    return wait_calls_;
  }

 private:
  int epfd_ = -1;
  bool ns_timeouts_ = false;
  std::uint64_t wait_calls_ = 0;
  std::vector<epoll_event> ready_;
};

}  // namespace mcss::transport
