// Nonblocking HTTP/1.0 scrape server for the runtime telemetry plane.
//
// The server owns a loopback TCP listener plus a small set of
// connection sockets, all nonblocking. It deliberately does NOT know
// about transport::Poller (obs sits below transport in the layer
// stack): instead the owning event loop wires three fd hooks that
// mirror Poller's add/modify/remove signatures and forwards readiness
// events here via on_event().
//
// Protocol surface is the minimum a scraper needs: HTTP/1.0 GET,
// Connection: close, Content-Length always present. Anything fancier
// (keep-alive, chunking, TLS) belongs in a real proxy in front.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace mcss::obs::runtime {

struct ScrapeRequest {
  std::string path;  ///< URL path with any ?query stripped.
};

struct ScrapeResponse {
  int status = 200;
  std::string content_type = "text/plain; version=0.0.4; charset=utf-8";
  std::string body;
};

struct ScrapeServerConfig {
  /// Listen port on 127.0.0.1; 0 picks an ephemeral port (read it back
  /// via port()).
  std::uint16_t port = 0;
  /// Concurrent connection cap; accepts beyond it are closed
  /// immediately (counted in stats).
  std::size_t max_connections = 16;
  /// Request head cap; longer requests get 400 and the socket closed.
  std::size_t max_request_bytes = 4096;
};

struct ScrapeServerStats {
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_rejected = 0;  ///< over max_connections
  std::uint64_t requests_served = 0;       ///< 200 responses
  std::uint64_t requests_not_found = 0;    ///< 404
  std::uint64_t requests_bad = 0;          ///< 400 / 405 / oversized
  std::uint64_t connections_closed = 0;
};

class ScrapeServer {
 public:
  using Handler = std::function<ScrapeResponse(const ScrapeRequest&)>;
  /// Mirror of Poller::add / Poller::modify: (fd, want_read, want_write).
  using FdInterestFn = std::function<void(int, bool, bool)>;
  /// Mirror of Poller::remove.
  using FdRemoveFn = std::function<void(int)>;

  /// Binds and listens on 127.0.0.1:config.port. Throws
  /// util::PreconditionError when the socket cannot be bound.
  explicit ScrapeServer(ScrapeServerConfig config = {});
  ~ScrapeServer();
  ScrapeServer(const ScrapeServer&) = delete;
  ScrapeServer& operator=(const ScrapeServer&) = delete;

  /// Wire the owning loop's poller. Registers the listen fd (and any
  /// live connections) through `add` immediately; `modify` flips write
  /// interest on short writes; `remove` runs just before ::close.
  void set_fd_hooks(FdInterestFn add, FdInterestFn modify, FdRemoveFn remove);

  /// Register a handler for an exact path (e.g. "/metrics").
  void route(std::string path, Handler handler);

  [[nodiscard]] int listen_fd() const noexcept { return listen_fd_; }
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }
  [[nodiscard]] std::size_t open_connections() const noexcept {
    return conns_.size();
  }
  [[nodiscard]] const ScrapeServerStats& stats() const noexcept {
    return stats_;
  }

  /// True when `fd` is the listener or one of our connections.
  [[nodiscard]] bool owns_fd(int fd) const noexcept;

  /// Progress whatever `fd` is ready for. Returns false when the fd is
  /// not ours (caller keeps dispatching), true when it was consumed.
  bool on_event(int fd, bool readable, bool writable);

 private:
  struct Conn {
    int fd = -1;
    std::string in;        ///< request bytes until the blank line
    std::string out;       ///< serialized response
    std::size_t out_off = 0;
    bool responding = false;  ///< request parsed, draining `out`
    bool want_write = false;  ///< current poller write interest
  };

  void accept_ready();
  /// Returns false when the connection was closed (index invalidated).
  bool progress(std::size_t idx, bool readable, bool writable);
  void respond(Conn& conn, const ScrapeResponse& response);
  bool flush_out(std::size_t idx);
  void close_conn(std::size_t idx);
  void register_fd(int fd, bool want_read, bool want_write);

  ScrapeServerConfig config_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::vector<Conn> conns_;
  std::vector<std::pair<std::string, Handler>> routes_;
  FdInterestFn add_fd_;
  FdInterestFn modify_fd_;
  FdRemoveFn remove_fd_;
  ScrapeServerStats stats_;
};

/// Blocking-ish loopback HTTP GET helper for benches and tests that
/// scrape an endpoint living in the SAME thread: the client socket is
/// nonblocking and `pump` is invoked between progress attempts so the
/// serving event loop keeps running. Returns the full response
/// (status line + headers + body) or an empty string on timeout /
/// connection failure. `pump` should run the serving loop for a few
/// milliseconds per call.
[[nodiscard]] std::string http_get_local(std::uint16_t port,
                                         std::string_view path,
                                         const std::function<void()>& pump,
                                         int max_pump_calls = 2000);

/// Body of an HTTP response produced by http_get_local (bytes after
/// the first blank line); empty when the response has no body.
[[nodiscard]] std::string_view http_body(std::string_view response);

}  // namespace mcss::obs::runtime
