// RuntimeTelemetry: the facade an endpoint embeds to get the whole
// telemetry plane — scrape server (/metrics, /flows, /healthz),
// periodic sampler, privacy accountant, and event-loop health — wired
// together with one object and three integration points:
//
//   1. construction:   RuntimeTelemetry telemetry{config};
//   2. fd plumbing:    telemetry.server().set_fd_hooks(...) +
//                      forward unknown poller events to
//                      telemetry.on_poller_event(fd, r, w)
//   3. loop pacing:    telemetry.poll(now_ns) once per pump iteration
//                      (and arm a loop timer at
//                      telemetry.sampler().next_due_ns(now) so an idle
//                      poller still wakes for samples)
//
// Counter deltas: the Registry's counters are cumulative adds, so a
// periodic publisher re-adding component Stats totals would
// double-count. CounterDeltas remembers the last published total per
// series and adds only the difference — endpoints route BOTH their
// periodic sample publishing and their end-of-run publish_metrics
// through the same instance, so the registry converges to exact totals
// regardless of how many samples ran in between.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>

#include "obs/runtime/health.hpp"
#include "obs/runtime/privacy.hpp"
#include "obs/runtime/sampler.hpp"
#include "obs/runtime/scrape_server.hpp"

namespace mcss::obs::runtime {

class CounterDeltas {
 public:
  /// Add `total - last_published(name)` to the counter, remembering
  /// `total`. Safe to call with non-monotone totals (clamps at 0).
  void add_total(Registry& registry, std::string_view name,
                 std::uint64_t total);

 private:
  std::unordered_map<std::string, std::uint64_t> last_;
};

struct RuntimeTelemetryConfig {
  bool enabled = false;
  /// Turn on global metrics collection at construction (a scrape plane
  /// with recording off serves empty text, which is never what a
  /// deployment wants). False leaves the MCSS_METRICS decision alone.
  bool enable_metrics = true;
  /// Scrape port on 127.0.0.1 (0 = ephemeral).
  std::uint16_t port = 0;
  SamplerConfig sampler;      ///< interval honors MCSS_OBS_INTERVAL
  HealthConfig health;
  PrivacyConfig privacy;      ///< channel_risks filled by the endpoint
  ScrapeServerConfig server;  ///< port field is overridden by `port`
};

class RuntimeTelemetry {
 public:
  explicit RuntimeTelemetry(RuntimeTelemetryConfig config);

  [[nodiscard]] ScrapeServer& server() noexcept { return server_; }
  [[nodiscard]] Sampler& sampler() noexcept { return sampler_; }
  [[nodiscard]] PrivacyAccountant& privacy() noexcept { return privacy_; }
  [[nodiscard]] EventLoopHealth& health() noexcept { return health_; }
  [[nodiscard]] CounterDeltas& deltas() noexcept { return deltas_; }
  [[nodiscard]] std::uint16_t port() const noexcept {
    return server_.port();
  }

  /// Forward a poller event whose fd the endpoint does not recognize.
  /// Returns true when the scrape server consumed it.
  bool on_poller_event(int fd, bool readable, bool writable) {
    return server_.on_event(fd, readable, writable);
  }

  /// Drive the sampler; call once per pump iteration with loop time.
  void poll(std::int64_t now_ns) { sampler_.poll(now_ns); }

  /// The /healthz document for loop time `now_ns`.
  [[nodiscard]] std::string healthz_json(std::int64_t now_ns) const;

 private:
  RuntimeTelemetryConfig config_;
  ScrapeServer server_;
  Sampler sampler_;
  PrivacyAccountant privacy_;
  EventLoopHealth health_;
  CounterDeltas deltas_;
};

}  // namespace mcss::obs::runtime
