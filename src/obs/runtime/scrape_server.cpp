#include "obs/runtime/scrape_server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "util/ensure.hpp"

namespace mcss::obs::runtime {

namespace {

constexpr std::string_view kCrlf = "\r\n";

std::string_view status_text(int status) {
  switch (status) {
    case 200:
      return "OK";
    case 400:
      return "Bad Request";
    case 404:
      return "Not Found";
    case 405:
      return "Method Not Allowed";
    default:
      return "Error";
  }
}

}  // namespace

ScrapeServer::ScrapeServer(ScrapeServerConfig config)
    : config_(config) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                        0);
  MCSS_ENSURE(listen_fd_ >= 0, "scrape server: socket() failed");
  const int one = 1;
  (void)::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(config_.port);
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof addr) != 0 ||
      ::listen(listen_fd_, 16) != 0) {
    const int err = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    MCSS_ENSURE(false, std::string("scrape server: cannot listen on "
                                   "127.0.0.1: ") +
                           std::strerror(err));
  }
  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  MCSS_ENSURE(::getsockname(listen_fd_,
                            reinterpret_cast<sockaddr*>(&bound), &len) == 0,
              "scrape server: getsockname() failed");
  port_ = ntohs(bound.sin_port);
}

ScrapeServer::~ScrapeServer() {
  for (auto& conn : conns_) {
    if (conn.fd >= 0) {
      if (remove_fd_) remove_fd_(conn.fd);
      ::close(conn.fd);
    }
  }
  if (listen_fd_ >= 0) {
    if (remove_fd_) remove_fd_(listen_fd_);
    ::close(listen_fd_);
  }
}

void ScrapeServer::set_fd_hooks(FdInterestFn add, FdInterestFn modify,
                                FdRemoveFn remove) {
  add_fd_ = std::move(add);
  modify_fd_ = std::move(modify);
  remove_fd_ = std::move(remove);
  if (add_fd_) {
    add_fd_(listen_fd_, /*want_read=*/true, /*want_write=*/false);
    for (const auto& conn : conns_) {
      add_fd_(conn.fd, /*want_read=*/true, conn.want_write);
    }
  }
}

void ScrapeServer::route(std::string path, Handler handler) {
  for (auto& [existing, fn] : routes_) {
    if (existing == path) {
      fn = std::move(handler);
      return;
    }
  }
  routes_.emplace_back(std::move(path), std::move(handler));
}

bool ScrapeServer::on_event(int fd, bool readable, bool writable) {
  if (fd == listen_fd_) {
    if (readable) accept_ready();
    return true;
  }
  for (std::size_t i = 0; i < conns_.size(); ++i) {
    if (conns_[i].fd == fd) {
      (void)progress(i, readable, writable);
      return true;
    }
  }
  return false;
}

void ScrapeServer::accept_ready() {
  for (;;) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN or transient error: nothing more to accept
    }
    if (conns_.size() >= config_.max_connections) {
      ++stats_.connections_rejected;
      ::close(fd);
      continue;
    }
    ++stats_.connections_accepted;
    Conn conn;
    conn.fd = fd;
    conns_.push_back(std::move(conn));
    register_fd(fd, /*want_read=*/true, /*want_write=*/false);
  }
}

void ScrapeServer::register_fd(int fd, bool want_read, bool want_write) {
  if (add_fd_) add_fd_(fd, want_read, want_write);
}

bool ScrapeServer::progress(std::size_t idx, bool readable, bool writable) {
  Conn& conn = conns_[idx];
  if (!conn.responding && readable) {
    char buf[1024];
    for (;;) {
      const ssize_t n = ::read(conn.fd, buf, sizeof buf);
      if (n > 0) {
        conn.in.append(buf, static_cast<std::size_t>(n));
        if (conn.in.size() > config_.max_request_bytes) {
          ++stats_.requests_bad;
          respond(conns_[idx], ScrapeResponse{400, "text/plain",
                                              "request too large\n"});
          break;
        }
        continue;
      }
      if (n == 0) {
        // Peer closed before completing a request.
        close_conn(idx);
        return false;
      }
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      close_conn(idx);
      return false;
    }
    Conn& c = conns_[idx];
    if (!c.responding) {
      const std::size_t head_end = c.in.find("\r\n\r\n");
      if (head_end != std::string::npos) {
        // Parse "METHOD SP PATH SP VERSION" from the request line.
        const std::size_t line_end = c.in.find(kCrlf);
        const std::string_view line =
            std::string_view(c.in).substr(0, line_end);
        const std::size_t sp1 = line.find(' ');
        const std::size_t sp2 =
            sp1 == std::string_view::npos ? sp1 : line.find(' ', sp1 + 1);
        if (sp1 == std::string_view::npos || sp2 == std::string_view::npos) {
          ++stats_.requests_bad;
          respond(c, ScrapeResponse{400, "text/plain", "bad request\n"});
        } else if (line.substr(0, sp1) != "GET") {
          ++stats_.requests_bad;
          respond(c, ScrapeResponse{405, "text/plain",
                                    "only GET is supported\n"});
        } else {
          std::string path(line.substr(sp1 + 1, sp2 - sp1 - 1));
          const std::size_t query = path.find('?');
          if (query != std::string::npos) path.resize(query);
          const Handler* handler = nullptr;
          for (const auto& [route_path, fn] : routes_) {
            if (route_path == path) {
              handler = &fn;
              break;
            }
          }
          if (handler == nullptr) {
            ++stats_.requests_not_found;
            respond(c, ScrapeResponse{404, "text/plain", "not found\n"});
          } else {
            ScrapeRequest request;
            request.path = std::move(path);
            ScrapeResponse response = (*handler)(request);
            if (response.status == 200) {
              ++stats_.requests_served;
            } else if (response.status == 404) {
              ++stats_.requests_not_found;
            } else {
              ++stats_.requests_bad;
            }
            respond(c, response);
          }
        }
      }
    }
  }
  if (conns_[idx].responding) {
    // Drain opportunistically even on read-only events: loopback
    // sockets are almost always writable and it saves a poll round.
    (void)writable;
    return flush_out(idx);
  }
  return true;
}

void ScrapeServer::respond(Conn& conn, const ScrapeResponse& response) {
  conn.out.reserve(response.body.size() + 160);
  conn.out += "HTTP/1.0 ";
  conn.out += std::to_string(response.status);
  conn.out += ' ';
  conn.out += status_text(response.status);
  conn.out += kCrlf;
  conn.out += "Content-Type: ";
  conn.out += response.content_type;
  conn.out += kCrlf;
  conn.out += "Content-Length: ";
  conn.out += std::to_string(response.body.size());
  conn.out += kCrlf;
  conn.out += "Connection: close";
  conn.out += kCrlf;
  conn.out += kCrlf;
  conn.out += response.body;
  conn.responding = true;
}

bool ScrapeServer::flush_out(std::size_t idx) {
  Conn& conn = conns_[idx];
  while (conn.out_off < conn.out.size()) {
    const ssize_t n = ::write(conn.fd, conn.out.data() + conn.out_off,
                              conn.out.size() - conn.out_off);
    if (n > 0) {
      conn.out_off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (!conn.want_write) {
        conn.want_write = true;
        if (modify_fd_) modify_fd_(conn.fd, /*want_read=*/false,
                                   /*want_write=*/true);
      }
      return true;  // poller will call back when writable
    }
    close_conn(idx);  // peer reset
    return false;
  }
  close_conn(idx);  // response fully drained: HTTP/1.0 close semantics
  return false;
}

void ScrapeServer::close_conn(std::size_t idx) {
  Conn& conn = conns_[idx];
  if (remove_fd_) remove_fd_(conn.fd);
  ::close(conn.fd);
  ++stats_.connections_closed;
  conns_.erase(conns_.begin() + static_cast<std::ptrdiff_t>(idx));
}

std::string http_get_local(std::uint16_t port, std::string_view path,
                           const std::function<void()>& pump,
                           int max_pump_calls) {
  const int fd =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) return {};
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
          0 &&
      errno != EINPROGRESS) {
    ::close(fd);
    return {};
  }

  std::string request = "GET ";
  request += path;
  request += " HTTP/1.0\r\nHost: 127.0.0.1\r\n\r\n";
  std::size_t sent = 0;
  std::string response;
  char buf[4096];
  bool eof = false;
  for (int i = 0; i < max_pump_calls && !eof; ++i) {
    if (pump) pump();
    while (sent < request.size()) {
      const ssize_t n =
          ::write(fd, request.data() + sent, request.size() - sent);
      if (n > 0) {
        sent += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      break;  // not connected yet or kernel buffer full; pump and retry
    }
    for (;;) {
      const ssize_t n = ::read(fd, buf, sizeof buf);
      if (n > 0) {
        response.append(buf, static_cast<std::size_t>(n));
        continue;
      }
      if (n == 0) {
        eof = true;
        break;
      }
      if (errno == EINTR) continue;
      break;  // EAGAIN (still waiting) or error
    }
  }
  ::close(fd);
  return eof ? response : std::string{};
}

std::string_view http_body(std::string_view response) {
  const std::size_t head_end = response.find("\r\n\r\n");
  if (head_end == std::string_view::npos) return {};
  return response.substr(head_end + 4);
}

}  // namespace mcss::obs::runtime
