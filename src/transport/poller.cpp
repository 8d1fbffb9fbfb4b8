#include "transport/poller.hpp"

#include <sys/epoll.h>
#include <unistd.h>

#include <cerrno>
#include <system_error>

#include "util/ensure.hpp"

namespace mcss::transport {

namespace {

[[noreturn]] void throw_errno(const char* what) {
  throw std::system_error(errno, std::generic_category(), what);
}

/// Ready events taken per epoll_wait; more stay queued for the next one.
constexpr std::size_t kMaxEvents = 64;

void control(int epfd, int op, int fd, bool want_read, bool want_write,
             const char* what) {
  epoll_event ev{};
  ev.events = (want_read ? EPOLLIN : 0u) | (want_write ? EPOLLOUT : 0u);
  ev.data.fd = fd;
  if (::epoll_ctl(epfd, op, fd, &ev) < 0) throw_errno(what);
}

}  // namespace

Poller::Poller() : ready_(kMaxEvents) {
  epfd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epfd_ < 0) throw_errno("epoll_create1");
}

Poller::~Poller() { ::close(epfd_); }

void Poller::add(int fd, bool want_read, bool want_write) {
  MCSS_ENSURE(fd >= 0, "adding an invalid fd");
  control(epfd_, EPOLL_CTL_ADD, fd, want_read, want_write, "epoll_ctl(ADD)");
}

void Poller::modify(int fd, bool want_read, bool want_write) {
  control(epfd_, EPOLL_CTL_MOD, fd, want_read, want_write, "epoll_ctl(MOD)");
}

void Poller::remove(int fd) {
  // The event argument is ignored for DEL but must be non-null on
  // pre-2.6.9 kernels, per epoll_ctl(2).
  control(epfd_, EPOLL_CTL_DEL, fd, false, false, "epoll_ctl(DEL)");
}

std::size_t Poller::wait(int timeout_ms, std::vector<Event>& out) {
  out.clear();
  ++wait_calls_;
  int n;
  do {
    n = ::epoll_wait(epfd_, ready_.data(), static_cast<int>(ready_.size()),
                     timeout_ms);
  } while (n < 0 && errno == EINTR);
  if (n < 0) throw_errno("epoll_wait");
  for (int i = 0; i < n; ++i) {
    const epoll_event& ev = ready_[static_cast<std::size_t>(i)];
    Event e;
    e.fd = ev.data.fd;
    e.readable = (ev.events & EPOLLIN) != 0;
    e.writable = (ev.events & EPOLLOUT) != 0;
    e.error = (ev.events & (EPOLLERR | EPOLLHUP)) != 0;
    out.push_back(e);
  }
  return out.size();
}

}  // namespace mcss::transport
