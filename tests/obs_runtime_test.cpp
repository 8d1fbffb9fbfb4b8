// Tests for src/obs/runtime: the scrape server's HTTP surface and fd
// hooks, sampler determinism (top-K ordering, bounded slices, publish
// hook ordering), privacy accounting cross-checked against the core
// Poisson-binomial tail, event-loop health counters, counter-delta
// publishing, the exporter's Prometheus edge cases, the delay-sample
// clamp-and-count paths, and one end-to-end scrape of a live session
// endpoint.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <arpa/inet.h>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <fcntl.h>
#include <limits>
#include <netinet/in.h>
#include <set>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "feedback/report.hpp"
#include "feedback/report_builder.hpp"
#include "feedback/retransmit.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/runtime/health.hpp"
#include "obs/runtime/privacy.hpp"
#include "obs/runtime/sampler.hpp"
#include "obs/runtime/scrape_server.hpp"
#include "obs/runtime/telemetry.hpp"
#include "session/session_endpoint.hpp"
#include "util/ensure.hpp"
#include "util/link_risk.hpp"
#include "util/poisson_binomial.hpp"
#include "util/rng.hpp"

namespace mcss::obs::runtime {
namespace {

/// Restores the global metrics switch (and a clean registry) on exit.
struct MetricsGuard {
  explicit MetricsGuard(bool on) : was(metrics_enabled()) {
    Registry::global().reset();
    set_metrics_enabled(on);
  }
  ~MetricsGuard() {
    Registry::global().reset();
    set_metrics_enabled(was);
  }
  bool was;
};

// ------------------------------------------------------- ScrapeServer

/// A ScrapeServer wired to a fake poller: fd hooks record registered
/// fds, and pump() offers readiness to every one of them (nonblocking
/// sockets make speculative on_event calls harmless no-ops).
struct ServerHarness {
  // fds before server: ~ScrapeServer fires the remove hook, which must
  // land on a still-alive set.
  std::set<int> fds;
  ScrapeServer server;

  explicit ServerHarness(ScrapeServerConfig config = {}) : server(config) {
    server.set_fd_hooks([this](int fd, bool, bool) { fds.insert(fd); },
                        [](int, bool, bool) {},
                        [this](int fd) { fds.erase(fd); });
  }

  void pump() {
    // on_event may close a connection and mutate the set; iterate a copy.
    const std::set<int> snapshot = fds;
    for (int fd : snapshot) server.on_event(fd, true, true);
  }

  std::string get(std::string_view path) {
    return http_get_local(server.port(), path, [this] { pump(); });
  }

  /// Send raw request bytes (for methods / malformed heads that
  /// http_get_local cannot produce) and return the full response.
  std::string raw(std::string_view request) {
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
    if (fd < 0) return {};
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(server.port());
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    (void)::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                    sizeof addr);
    std::size_t sent = 0;
    std::string response;
    char buf[4096];
    for (int i = 0; i < 2000; ++i) {
      pump();
      if (sent < request.size()) {
        const auto n = ::send(fd, request.data() + sent,
                              request.size() - sent, MSG_NOSIGNAL);
        if (n > 0) sent += static_cast<std::size_t>(n);
      }
      const auto n = ::recv(fd, buf, sizeof buf, 0);
      if (n > 0) {
        response.append(buf, static_cast<std::size_t>(n));
      } else if (n == 0 && sent == request.size()) {
        break;  // server closed: response complete
      }
    }
    ::close(fd);
    return response;
  }
};

TEST(ScrapeServer, ServesRoutedPathWithContentLength) {
  ServerHarness h;
  h.server.route("/metrics", [](const ScrapeRequest&) {
    ScrapeResponse r;
    r.body = "mcss_up 1\n";
    return r;
  });
  const std::string response = h.get("/metrics");
  EXPECT_NE(response.find("HTTP/1.0 200"), std::string::npos);
  EXPECT_NE(response.find("Content-Length: 10"), std::string::npos);
  EXPECT_EQ(http_body(response), "mcss_up 1\n");
  EXPECT_EQ(h.server.stats().requests_served, 1u);
  EXPECT_EQ(h.server.stats().connections_accepted, 1u);
}

TEST(ScrapeServer, StripsQueryStringBeforeRouting) {
  ServerHarness h;
  std::string seen;
  h.server.route("/metrics", [&](const ScrapeRequest& req) {
    seen = req.path;
    return ScrapeResponse{};
  });
  const std::string response = h.get("/metrics?debug=1&x=2");
  EXPECT_NE(response.find("HTTP/1.0 200"), std::string::npos);
  EXPECT_EQ(seen, "/metrics");
}

TEST(ScrapeServer, UnknownPathIs404) {
  ServerHarness h;
  h.server.route("/metrics", [](const ScrapeRequest&) {
    return ScrapeResponse{};
  });
  const std::string response = h.get("/nope");
  EXPECT_NE(response.find("HTTP/1.0 404"), std::string::npos);
  EXPECT_EQ(h.server.stats().requests_not_found, 1u);
}

TEST(ScrapeServer, NonGetMethodIsRejected) {
  ServerHarness h;
  h.server.route("/metrics", [](const ScrapeRequest&) {
    return ScrapeResponse{};
  });
  const std::string response =
      h.raw("POST /metrics HTTP/1.0\r\n\r\n");
  EXPECT_NE(response.find("405"), std::string::npos);
  EXPECT_EQ(h.server.stats().requests_bad, 1u);
  EXPECT_EQ(h.server.stats().requests_served, 0u);
}

TEST(ScrapeServer, MalformedRequestLineIs400) {
  ServerHarness h;
  const std::string response = h.raw("complete nonsense\r\n\r\n");
  EXPECT_NE(response.find("400"), std::string::npos);
  EXPECT_EQ(h.server.stats().requests_bad, 1u);
}

TEST(ScrapeServer, OversizedRequestHeadIsRejected) {
  ScrapeServerConfig config;
  config.max_request_bytes = 128;
  ServerHarness h(config);
  const std::string request =
      "GET /" + std::string(512, 'a') + " HTTP/1.0\r\n\r\n";
  const std::string response = h.raw(request);
  EXPECT_EQ(h.server.stats().requests_bad, 1u);
  // The socket is closed either way; any response we did read is a 400.
  if (!response.empty()) {
    EXPECT_NE(response.find("400"), std::string::npos);
  }
  EXPECT_EQ(h.server.open_connections(), 0u);
}

TEST(ScrapeServer, ConnectionCapRejectsExtraClients) {
  ScrapeServerConfig config;
  config.max_connections = 1;
  ServerHarness h(config);
  h.server.route("/", [](const ScrapeRequest&) { return ScrapeResponse{}; });

  // First client connects but never sends, pinning the one slot.
  const int hog = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
  ASSERT_GE(hog, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(h.server.port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  (void)::connect(hog, reinterpret_cast<const sockaddr*>(&addr), sizeof addr);
  for (int i = 0; i < 50 && h.server.open_connections() == 0; ++i) h.pump();
  ASSERT_EQ(h.server.open_connections(), 1u);

  const std::string response = h.get("/");
  EXPECT_TRUE(response.empty());
  EXPECT_GE(h.server.stats().connections_rejected, 1u);
  ::close(hog);
}

TEST(ScrapeServer, HttpBodyHelper) {
  EXPECT_EQ(http_body("HTTP/1.0 200 OK\r\nA: b\r\n\r\nhello"), "hello");
  EXPECT_EQ(http_body("HTTP/1.0 200 OK\r\n\r\n"), "");
  EXPECT_EQ(http_body("no blank line"), "");
}

// ------------------------------------------------------------ Sampler

/// Synthetic flow table: cid -> queued value; every other metric 0.
Sampler make_probed_sampler(
    const std::vector<std::pair<std::uint32_t, std::uint64_t>>& flows,
    SamplerConfig config) {
  Sampler sampler(config);
  sampler.set_flow_probes(
      [flows](std::vector<std::uint32_t>& cids) {
        for (const auto& [cid, queued] : flows) cids.push_back(cid);
      },
      [flows](std::uint32_t cid, FlowSample& sample) {
        for (const auto& [c, queued] : flows) {
          if (c != cid) continue;
          sample.cid = cid;
          sample.queued_packets = queued;
          return true;
        }
        return false;
      });
  return sampler;
}

/// Order of "cid": values in the by_queue_depth array of a flows doc.
std::vector<std::uint32_t> queue_board_cids(const std::string& json) {
  std::vector<std::uint32_t> cids;
  const auto begin = json.find("\"by_queue_depth\":[");
  const auto end = json.find(']', begin);
  std::string_view section(json.data() + begin, end - begin);
  for (std::size_t pos = section.find("\"cid\":"); pos != std::string_view::npos;
       pos = section.find("\"cid\":", pos + 1)) {
    cids.push_back(static_cast<std::uint32_t>(
        std::strtoul(section.data() + pos + 6, nullptr, 10)));
  }
  return cids;
}

TEST(Sampler, TopKOrdersByValueDescThenCidAsc) {
  MetricsGuard guard(false);
  SamplerConfig config;
  config.top_k = 3;
  // Ties at value 5: cids 30 and 7 — 7 must sort first. Value 9 tops.
  Sampler sampler = make_probed_sampler(
      {{30, 5}, {2, 1}, {11, 9}, {7, 5}, {40, 0}}, config);
  sampler.sample_now(1000);
  EXPECT_EQ(queue_board_cids(sampler.flows_json()),
            (std::vector<std::uint32_t>{11, 7, 30}));
  EXPECT_EQ(sampler.flows_open(), 5u);
  EXPECT_EQ(sampler.sample_seq(), 1u);
}

TEST(Sampler, FullBoardFastRejectKeepsTieBreakSemantics) {
  MetricsGuard guard(false);
  SamplerConfig config;
  config.top_k = 2;
  // Probe order is collection order. Board fills with (8,cid 50),
  // (3,cid 60). Then cid 70 value 3 ties the minimum with a LARGER cid
  // (must be rejected) and cid 10 value 3 ties with a SMALLER cid (must
  // displace 60). A fast-reject that drops all ties would get 10 wrong.
  Sampler sampler = make_probed_sampler(
      {{50, 8}, {60, 3}, {70, 3}, {10, 3}}, config);
  sampler.sample_now(1000);
  EXPECT_EQ(queue_board_cids(sampler.flows_json()),
            (std::vector<std::uint32_t>{50, 10}));
}

TEST(Sampler, WalksInBoundedSlices) {
  MetricsGuard guard(false);
  SamplerConfig config;
  config.max_flows_per_slice = 2;
  config.top_k = 8;
  Sampler sampler = make_probed_sampler(
      {{1, 1}, {2, 2}, {3, 3}, {4, 4}, {5, 5}}, config);
  sampler.poll(0);  // begins the walk; 5 flows / 2 per slice
  EXPECT_TRUE(sampler.sampling());
  EXPECT_EQ(sampler.sample_seq(), 0u);  // not finalized yet
  int polls = 0;
  while (sampler.sampling() && polls < 10) {
    sampler.poll(0);
    ++polls;
  }
  EXPECT_EQ(sampler.sample_seq(), 1u);
  EXPECT_GE(polls, 2);
  EXPECT_EQ(queue_board_cids(sampler.flows_json()),
            (std::vector<std::uint32_t>{5, 4, 3, 2, 1}));
}

TEST(Sampler, HonorsIntervalBetweenSamples) {
  MetricsGuard guard(false);
  SamplerConfig config;
  config.interval_ns = 1000;
  Sampler sampler = make_probed_sampler({{1, 1}}, config);
  sampler.sample_now(0);
  EXPECT_EQ(sampler.sample_seq(), 1u);
  sampler.poll(500);  // interval not elapsed
  EXPECT_FALSE(sampler.sampling());
  EXPECT_EQ(sampler.sample_seq(), 1u);
  EXPECT_EQ(sampler.next_due_ns(500), 1000);
  sampler.poll(1000);
  while (sampler.sampling()) sampler.poll(1000);
  EXPECT_EQ(sampler.sample_seq(), 2u);
}

TEST(Sampler, PublishHookRunsBeforeMetricsRender) {
  MetricsGuard guard(true);
  Sampler sampler = make_probed_sampler({}, {});
  sampler.set_publish([](Registry& registry) {
    registry.set(registry.gauge("mcss_test_publish_gauge"), 42.0);
  });
  sampler.sample_now(0);
  // A gauge set inside the hook must appear in the same sample's text.
  EXPECT_NE(sampler.metrics_text().find("mcss_test_publish_gauge 42"),
            std::string::npos);
}

TEST(Sampler, EnvIntervalParsing) {
  EXPECT_EQ(obs_interval_from_env(5), 5);  // unset -> fallback
  ::setenv("MCSS_OBS_INTERVAL", "250", 1);
  EXPECT_EQ(obs_interval_from_env(5), 250'000'000);
  ::setenv("MCSS_OBS_INTERVAL", "0.5", 1);
  EXPECT_EQ(obs_interval_from_env(5), 500'000);
  ::setenv("MCSS_OBS_INTERVAL", "-3", 1);
  EXPECT_EQ(obs_interval_from_env(5), 5);  // invalid -> fallback
  ::setenv("MCSS_OBS_INTERVAL", "junk", 1);
  EXPECT_EQ(obs_interval_from_env(5), 5);
  ::unsetenv("MCSS_OBS_INTERVAL");
}

// -------------------------------------------------- PrivacyAccountant

TEST(PrivacyAccountant, ZOfMatchesCorePoissonBinomial) {
  MetricsGuard guard(false);
  PrivacyConfig config;
  config.channel_risks = {0.1, 0.2, 0.3, 0.05};
  PrivacyAccountant accountant(config);
  // Alternate keys so both the one-entry memo and the map path run.
  for (int round = 0; round < 2; ++round) {
    for (std::uint32_t mask : {0b1011u, 0b0110u, 0b1111u, 0b0001u}) {
      for (int k : {1, 2, 3}) {
        std::vector<double> risks;
        for (std::size_t i = 0; i < config.channel_risks.size(); ++i) {
          if ((mask >> i) & 1u) risks.push_back(config.channel_risks[i]);
        }
        EXPECT_DOUBLE_EQ(accountant.z_of(k, mask),
                         poisson_binomial_tail_geq(risks, k))
            << "k=" << k << " mask=" << mask;
      }
    }
  }
}

TEST(PrivacyAccountant, AccountsWideningAgainstPerPacketPlans) {
  MetricsGuard guard(false);
  PrivacyConfig config;
  config.channel_risks = {0.1, 0.1, 0.1};
  PrivacyAccountant accountant(config);

  ExposureRecord clean;
  clean.k = 2;
  clean.initial_mask = 0b011;
  clean.exposure_mask = 0b011;
  ExposureRecord widened;  // a retransmit touched channel 2
  widened.k = 2;
  widened.initial_mask = 0b011;
  widened.exposure_mask = 0b111;
  widened.retransmits = 1;
  const std::vector<ExposureRecord> records{clean, widened};
  accountant.on_closed(records);

  const PrivacyTotals& totals = accountant.totals();
  EXPECT_EQ(totals.packets_accounted, 2u);
  EXPECT_EQ(totals.packets_widened, 1u);
  EXPECT_EQ(totals.degradations, 1u);

  const double z_plan = accountant.z_of(2, 0b011);
  const double z_wide = accountant.z_of(2, 0b111);
  ASSERT_GT(z_wide, z_plan);
  EXPECT_DOUBLE_EQ(totals.max_deficit, z_wide - z_plan);
  EXPECT_DOUBLE_EQ(accountant.mean_realized_z(), (z_plan + z_wide) / 2);
  // Per-packet plans: deficit = mean realized - mean planned.
  EXPECT_DOUBLE_EQ(accountant.deficit(), (z_wide - z_plan) / 2);
}

TEST(PrivacyAccountant, LinkModeMatchesCorrelatedSubsetRisk) {
  MetricsGuard guard(false);
  PrivacyConfig config;
  // ch0 -> links {0,1}, ch1 -> links {1,2}, ch2 -> link {3}: channels 0
  // and 1 share link 1, channel 2 rides a private link.
  config.link_risks = {0.05, 0.1, 0.2, 0.05};
  config.channel_link_masks = {0b0011, 0b0110, 0b1000};
  PrivacyAccountant accountant(config);
  ASSERT_TRUE(accountant.link_mode());

  for (std::uint32_t mask : {0b011u, 0b101u, 0b111u, 0b001u}) {
    for (int k : {1, 2, 3}) {
      std::vector<std::uint64_t> selected;
      for (std::size_t i = 0; i < config.channel_link_masks.size(); ++i) {
        if ((mask >> i) & 1u) {
          selected.push_back(config.channel_link_masks[i]);
        }
      }
      EXPECT_DOUBLE_EQ(accountant.z_of(k, mask),
                       correlated_subset_risk(config.link_risks, selected, k))
          << "k=" << k << " mask=" << mask;
    }
  }
  // The shared link makes the joint tail strictly dearer than the
  // independent-channel price of the same marginals.
  EXPECT_GT(accountant.z_of(2, 0b011),
            independent_subset_risk(config.link_risks,
                                    config.channel_link_masks, 2));

  // on_closed folds the link-mask unions into the link-mode totals.
  ExposureRecord record;
  record.k = 2;
  record.initial_mask = 0b011;
  record.exposure_mask = 0b111;
  record.retransmits = 1;
  record.initial_link_mask = 0b0011;
  record.link_exposure_mask = 0b0111;
  const std::vector<ExposureRecord> records{record};
  accountant.on_closed(records);
  EXPECT_EQ(accountant.totals().initial_link_sum, 2u);
  EXPECT_EQ(accountant.totals().exposure_link_sum, 3u);
}

TEST(PrivacyAccountant, AbsoluteTargetOverridesPerPacketPlans) {
  MetricsGuard guard(false);
  PrivacyConfig config;
  config.channel_risks = {0.2, 0.2};
  PrivacyAccountant accountant(config);
  accountant.set_planned_z(0.5);

  ExposureRecord record;
  record.k = 1;
  record.initial_mask = 0b11;
  record.exposure_mask = 0b11;
  const std::vector<ExposureRecord> records{record};
  accountant.on_closed(records);

  const double realized = accountant.z_of(1, 0b11);
  EXPECT_DOUBLE_EQ(accountant.deficit(), realized - 0.5);
  // Under target: no degradation even though exposure equals the mask.
  EXPECT_EQ(accountant.totals().degradations, 0u);
}

TEST(PrivacyAccountant, GaugesRefreshOnPublishNotPerFold) {
  MetricsGuard guard(true);
  PrivacyConfig config;
  config.channel_risks = {0.3, 0.3};
  PrivacyAccountant accountant(config);

  ExposureRecord record;
  record.k = 1;
  record.initial_mask = 0b01;
  record.exposure_mask = 0b11;
  const std::vector<ExposureRecord> records{record};
  accountant.on_closed(records);

  const auto gauge_value = [](std::string_view name) {
    for (const auto& g : Registry::global().snapshot().gauges) {
      if (g.name == name) return g.value;
    }
    return std::numeric_limits<double>::quiet_NaN();
  };
  // The fold updated histograms/counters but left the gauges alone.
  EXPECT_EQ(gauge_value("mcss_privacy_z_deficit"), 0.0);
  accountant.publish_gauges();
  EXPECT_DOUBLE_EQ(gauge_value("mcss_privacy_z_deficit"),
                   accountant.deficit());
  EXPECT_DOUBLE_EQ(gauge_value("mcss_privacy_z_realized_mean"),
                   accountant.mean_realized_z());
  EXPECT_GT(accountant.deficit(), 0.0);
}

// ----------------------------------------------------- EventLoopHealth

namespace {

/// Sum and count of the named histogram in the global registry.
std::pair<double, std::uint64_t> histogram_sum(const std::string& name) {
  for (const auto& h : Registry::global().snapshot().histograms) {
    if (h.name == name) return {h.sum, h.count};
  }
  return {0.0, 0};
}

}  // namespace

TEST(EventLoopHealth, WakeLagIsLatenessPastTheWantedWakeTime) {
  MetricsGuard guard(true);
  EventLoopHealth health;
  // A timer due 1 us after the wait started, woken by a 1 ms timeout:
  // 999 us late, which the old lag (blocked minus the rounded timeout)
  // read as 0.
  health.on_wait(/*start_ns=*/5'000, /*wake_ns=*/6'000,
                 /*end_ns=*/1'005'000);
  auto [sum, count] = histogram_sum("mcss_loop_poll_wake_lag_us");
  EXPECT_EQ(count, 1u);
  EXPECT_DOUBLE_EQ(sum, 999.0);
  // Events arrived before the wanted wake time: not late at all.
  health.on_wait(/*start_ns=*/0, /*wake_ns=*/50'000'000,
                 /*end_ns=*/20'000);
  std::tie(sum, count) = histogram_sum("mcss_loop_poll_wake_lag_us");
  EXPECT_EQ(count, 2u);
  EXPECT_DOUBLE_EQ(sum, 999.0);
  // A timer already 3 ms overdue when the wait began (a long pump): the
  // wait itself is 5 us late, and the pump's overrun is not its lag.
  health.on_wait(/*start_ns=*/10'000'000, /*wake_ns=*/7'000'000,
                 /*end_ns=*/10'005'000);
  std::tie(sum, count) = histogram_sum("mcss_loop_poll_wake_lag_us");
  EXPECT_EQ(count, 3u);
  EXPECT_DOUBLE_EQ(sum, 999.0 + 5.0);
  const auto [wait_sum, wait_count] = histogram_sum("mcss_loop_poll_wait_us");
  EXPECT_EQ(wait_count, 3u);
  EXPECT_DOUBLE_EQ(wait_sum, 1000.0 + 20.0 + 5.0);
}

TEST(EventLoopHealth, WatchdogCountsOverBudgetPumps) {
  MetricsGuard guard(false);  // healthz counters work with metrics off
  HealthConfig config;
  config.pump_budget_ns = 1'000'000;
  EventLoopHealth health(config);
  health.on_pump(500'000);
  health.on_pump(2'000'000);
  health.on_pump(900'000);
  EXPECT_EQ(health.pump_iterations(), 3u);
  EXPECT_EQ(health.watchdog_stalls(), 1u);
  EXPECT_EQ(health.max_pump_ns(), 2'000'000);
}

TEST(EventLoopHealth, ObservesLoopHistogramsWhenEnabled) {
  MetricsGuard guard(true);
  EventLoopHealth health;
  health.on_wait(/*start_ns=*/0, /*wake_ns=*/1'000'000,
                 /*end_ns=*/3'000'000);  // 2ms late
  health.on_pump(100'000);
  health.set_pool_occupancy(3, 8);
  const MetricsSnapshot snapshot = Registry::global().snapshot();
  bool saw_wait = false;
  bool saw_lag = false;
  for (const auto& h : snapshot.histograms) {
    if (h.name == "mcss_loop_poll_wait_us") {
      saw_wait = true;
      std::uint64_t total = 0;
      for (const auto b : h.buckets) total += b;
      EXPECT_EQ(total, 1u);
    }
    if (h.name == "mcss_loop_poll_wake_lag_us") saw_lag = true;
  }
  EXPECT_TRUE(saw_wait);
  EXPECT_TRUE(saw_lag);
  bool saw_pool = false;
  for (const auto& g : snapshot.gauges) {
    if (g.name == "mcss_pool_frames_in_use") {
      saw_pool = true;
      EXPECT_EQ(g.value, 3.0);
    }
  }
  EXPECT_TRUE(saw_pool);
}

// ------------------------------------------------------- CounterDeltas

TEST(CounterDeltas, PublishesOnlyTheDelta) {
  MetricsGuard guard(true);
  CounterDeltas deltas;
  Registry& registry = Registry::global();
  deltas.add_total(registry, "mcss_test_total", 10);
  deltas.add_total(registry, "mcss_test_total", 25);
  deltas.add_total(registry, "mcss_test_total", 25);  // no change
  deltas.add_total(registry, "mcss_test_total", 20);  // non-monotone: clamp
  deltas.add_total(registry, "mcss_test_total", 30);
  for (const auto& c : registry.snapshot().counters) {
    if (c.name != "mcss_test_total") continue;
    // 10 + 15 + 0 + 0 + max(0, 30 - 20): converges to the last total.
    EXPECT_EQ(c.value, 35u);
    return;
  }
  FAIL() << "counter not found";
}

// ------------------------------------------- Prometheus exporter edges

TEST(PrometheusExport, BucketBoundValueIsInclusive) {
  MetricsGuard guard(true);
  Registry& registry = Registry::global();
  const auto id = registry.histogram("mcss_test_edge_us", {1.0, 10.0});
  registry.observe(id, 1.0);  // exactly on the first bound
  const std::string text = prometheus_text(registry.snapshot());
  EXPECT_NE(text.find("mcss_test_edge_us_bucket{le=\"1\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("mcss_test_edge_us_bucket{le=\"+Inf\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("mcss_test_edge_us_count 1"), std::string::npos);
}

TEST(PrometheusExport, NonFiniteGaugesUseExpositionSpellings) {
  MetricsGuard guard(true);
  Registry& registry = Registry::global();
  registry.set(registry.gauge("mcss_test_nan"),
               std::numeric_limits<double>::quiet_NaN());
  registry.set(registry.gauge("mcss_test_pinf"),
               std::numeric_limits<double>::infinity());
  registry.set(registry.gauge("mcss_test_ninf"),
               -std::numeric_limits<double>::infinity());
  const std::string text = prometheus_text(registry.snapshot());
  EXPECT_NE(text.find("mcss_test_nan NaN"), std::string::npos);
  EXPECT_NE(text.find("mcss_test_pinf +Inf"), std::string::npos);
  EXPECT_NE(text.find("mcss_test_ninf -Inf"), std::string::npos);
  // The %g spellings the format rejects must not appear.
  EXPECT_EQ(text.find("inf\n"), std::string::npos);
  EXPECT_EQ(text.find("nan\n"), std::string::npos);
}

TEST(Registry, CrossTypeNameCollisionThrows) {
  MetricsGuard guard(true);
  Registry& registry = Registry::global();
  (void)registry.counter("mcss_test_collision");
  EXPECT_THROW((void)registry.gauge("mcss_test_collision"),
               PreconditionError);
  EXPECT_THROW((void)registry.histogram("mcss_test_collision", {1.0}),
               PreconditionError);
  // Same name, same type: idempotent, returns the same series.
  const auto a = registry.counter("mcss_test_collision");
  const auto b = registry.counter("mcss_test_collision");
  EXPECT_EQ(a.index, b.index);
}

// ------------------------------------------------- delay-sample clamps

TEST(RetransmitManager, ImpossibleDelaySamplesAreCountedNotAveraged) {
  feedback::RetransmitManager mgr({}, Rng(1));
  const std::vector<std::uint8_t> payload{1};
  const std::vector<int> channels{0};
  mgr.on_packet_sent(1, 1, payload, channels, /*now_ns=*/1000);
  mgr.on_packet_sent(2, 1, payload, channels, /*now_ns=*/1000);
  mgr.on_packet_sent(3, 1, payload, channels, /*now_ns=*/1000);

  feedback::ReceiverReport report;
  report.seq = 1;
  report.sack_base = 1;
  report.sack.assign(1, 0b111);  // acks 1, 2, 3
  report.channels.assign(1, {});
  report.receiver_time_ns = 5000;
  report.delays = {
      {1, 500},   // before the send stamp: impossible
      {2, 9000},  // after the report was built: impossible
      {3, 3000},  // plausible
  };
  mgr.on_report(report, /*now_ns=*/10'000);

  EXPECT_EQ(mgr.stats().delay_samples_clamped, 2u);
  EXPECT_EQ(mgr.stats().delay.count(), 1u);
  EXPECT_NEAR(mgr.stats().delay.mean(), 2e-6, 1e-12);  // 2000ns one-way
}

TEST(ReportBuilder, RegressingDeliveryStampsAreClampedMonotone) {
  feedback::ReportBuilderConfig config;
  config.num_channels = 1;
  feedback::ReportBuilder builder(config);
  builder.on_delivered(1, 1000);
  builder.on_delivered(2, 400);  // receiver clock stepped backwards
  builder.on_delivered(3, 1500);
  EXPECT_EQ(builder.delay_samples_clamped(), 1u);
  const feedback::ReceiverReport report = builder.build(2000);
  ASSERT_EQ(report.delays.size(), 3u);
  EXPECT_EQ(report.delays[0].recv_time_ns, 1000);
  EXPECT_EQ(report.delays[1].recv_time_ns, 1000);  // clamped up, kept
  EXPECT_EQ(report.delays[2].recv_time_ns, 1500);
  for (std::size_t i = 1; i < report.delays.size(); ++i) {
    EXPECT_GE(report.delays[i].recv_time_ns,
              report.delays[i - 1].recv_time_ns);
  }
}

// ------------------------------------------------- end-to-end session

TEST(SessionTelemetry, EndpointServesAllRoutes) {
  MetricsGuard guard(false);  // the plane enables metrics itself
  session::SessionConfig config;
  net::ChannelConfig clean;
  clean.rate_bps = 1e9;
  for (int i = 0; i < 3; ++i) {
    config.channels.push_back({clean, "lane" + std::to_string(i)});
  }
  config.seed = 7;
  config.reliability.enabled = true;
  config.reliability.report_interval_ns = 10'000'000;
  config.telemetry.enabled = true;
  config.telemetry.port = 0;  // ephemeral
  config.telemetry.sampler.interval_ns = 20'000'000;
  session::SessionEndpoint ep(std::move(config));
  ASSERT_NE(ep.telemetry(), nullptr);
  const std::uint16_t port = ep.telemetry()->port();
  ASSERT_NE(port, 0);

  session::FlowParams params;
  params.rate_pps = 10.0;
  params.payload_bytes = 64;
  std::vector<std::uint8_t> payload(64, 0x5a);
  for (int i = 0; i < 20; ++i) {
    const auto cid = ep.open_flow(params);
    ASSERT_TRUE(cid.has_value());
    (void)ep.send(*cid, payload);
  }
  ep.run_for(60'000'000);  // a few sampler intervals of live traffic

  const auto pump = [&ep] { ep.run_for(1'000'000); };
  const std::string metrics =
      http_get_local(port, "/metrics", pump);
  const std::string_view body = http_body(metrics);
  EXPECT_NE(metrics.find("HTTP/1.0 200"), std::string::npos);
  EXPECT_NE(body.find("# TYPE "), std::string_view::npos);
  EXPECT_NE(body.find("mcss_privacy_z_deficit"), std::string_view::npos);
  EXPECT_NE(body.find("mcss_loop_poll_wait_us"), std::string_view::npos);
  EXPECT_NE(body.find("mcss_pool_frames_capacity"), std::string_view::npos);

  const std::string flows = http_get_local(port, "/flows", pump);
  const std::string_view fbody = http_body(flows);
  EXPECT_NE(fbody.find("\"flows_open\":20"), std::string_view::npos);
  EXPECT_NE(fbody.find("\"by_queue_depth\""), std::string_view::npos);
  EXPECT_NE(fbody.find("\"by_exposure_width\""), std::string_view::npos);

  const std::string healthz = http_get_local(port, "/healthz", pump);
  const std::string_view hbody = http_body(healthz);
  EXPECT_NE(hbody.find("\"status\":\"ok\""), std::string_view::npos);

  const std::string missing = http_get_local(port, "/nope", pump);
  EXPECT_NE(missing.find("HTTP/1.0 404"), std::string::npos);
}

}  // namespace
}  // namespace mcss::obs::runtime
