// live_loopback: smallest possible live-transport demo.
//
// Runs one ReMICSS flow on a session endpoint over five real loopback
// UDP channels for a couple of seconds and prints what happened.
// Environment knobs:
//
//   MCSS_LIVE_IMPAIR     which Section VI channel mix to impose:
//                        none | identical | diverse | lossy | delayed
//                        (default lossy — the most instructive one)
//   MCSS_LIVE_PORT_BASE  bind RX ports base..base+4 instead of ephemeral
//                        (handy for watching with tcpdump -i lo)
//
//   examples/live_loopback [seconds]
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "session/session_endpoint.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "workload/setups.hpp"

int main(int argc, char** argv) {
  using namespace mcss;

  double seconds = 2.0;
  if (argc > 1) seconds = std::atof(argv[1]);

  const char* impair_env = std::getenv("MCSS_LIVE_IMPAIR");
  const std::string impair = impair_env != nullptr ? impair_env : "lossy";
  workload::Setup setup;
  if (impair == "none" || impair == "identical") {
    setup = workload::identical_setup(100.0);
    if (impair == "none") {
      for (auto& ch : setup.channels) {
        ch.loss = 0.0;
        ch.delay = 0;
      }
    }
  } else if (impair == "diverse") {
    setup = workload::diverse_setup();
  } else if (impair == "lossy") {
    setup = workload::lossy_setup();
  } else if (impair == "delayed") {
    setup = workload::delayed_setup();
  } else {
    std::fprintf(stderr,
                 "MCSS_LIVE_IMPAIR=%s? use none|identical|diverse|lossy|"
                 "delayed\n",
                 impair.c_str());
    return 2;
  }

  session::SessionConfig cfg;
  for (std::size_t i = 0; i < setup.channels.size(); ++i) {
    cfg.channels.push_back({setup.channels[i], "ch" + std::to_string(i)});
  }
  cfg.kappa = 2.0;
  cfg.mu = 3.0;
  cfg.seed = 7;
  cfg.port_base = session::port_base_from_env(0);
  const std::uint16_t port_base = cfg.port_base;
  session::SessionEndpoint ep(std::move(cfg));
  const auto cid = ep.open_flow();
  if (!cid) {
    std::fprintf(stderr, "the endpoint refused the flow\n");
    return 1;
  }

  std::printf("live ReMICSS on %zu loopback channels (%s impairment), "
              "kappa=2 mu=3, %.1fs\n",
              ep.num_channels(), impair.c_str(), seconds);
  if (port_base != 0) {
    std::printf("rx ports start at %u\n", port_base);
  }

  // Packet ids are dense from 1 in send order, so accepted send i is
  // packet i + 1: its delay runs from send() to delivery.
  std::vector<std::int64_t> sent_ns;
  PercentileTracker delay_s;
  std::uint64_t delivered = 0, delivered_bytes = 0;
  ep.set_deliver([&](std::uint32_t, std::uint64_t id,
                     std::vector<std::uint8_t> payload) {
    ++delivered;
    delivered_bytes += payload.size();
    delay_s.add(static_cast<double>(ep.now_ns() - sent_ns[id - 1]) / 1e9);
  });

  // Offer ~2000 packets/s of 512-byte packets, paced.
  Rng rng(123);
  std::vector<std::uint8_t> payload(512);
  const std::int64_t interval_ns = 500'000;
  const std::int64_t t_end =
      ep.now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  std::int64_t next_send = ep.now_ns();
  while (ep.now_ns() < t_end) {
    while (next_send <= ep.now_ns() && next_send < t_end) {
      rng.fill(payload);
      const std::int64_t now = ep.now_ns();
      if (ep.send(*cid, payload)) sent_ns.push_back(now);
      next_send += interval_ns;
    }
    ep.run_for(2'000'000);
  }
  ep.run_for(100'000'000);  // drain

  const auto& ss = *ep.flow_sender_stats(*cid);
  const auto& rs = ep.flow_receiver(*cid)->stats();
  std::printf("\nsent      %llu packets (%llu shares, achieved kappa %.2f"
              " mu %.2f)\n",
              static_cast<unsigned long long>(ss.packets_sent),
              static_cast<unsigned long long>(ss.shares_sent),
              ss.achieved_kappa(), ss.achieved_mu());
  std::printf("delivered %llu packets (%.2f Mbps goodput, loss %.2f%%)\n",
              static_cast<unsigned long long>(delivered),
              static_cast<double>(delivered_bytes) * 8.0 / seconds / 1e6,
              ss.packets_sent == 0
                  ? 0.0
                  : 100.0 * (1.0 - static_cast<double>(delivered) /
                                       static_cast<double>(ss.packets_sent)));
  std::printf("delay     %.3f ms median, %.3f ms p99\n",
              delay_s.median() * 1e3, delay_s.percentile(99.0) * 1e3);
  std::printf("receiver  %llu dup shares, %llu late, %llu malformed, "
              "%llu timeouts\n",
              static_cast<unsigned long long>(rs.duplicate_shares),
              static_cast<unsigned long long>(rs.late_shares),
              static_cast<unsigned long long>(ep.stats().frames_undecodable),
              static_cast<unsigned long long>(rs.packets_evicted_timeout));
  for (std::size_t i = 0; i < ep.num_channels(); ++i) {
    const auto& is = ep.channel(i).impair_stats();
    const auto& us = ep.channel(i).stats();
    std::printf("  ch%zu: %6llu frames offered, %6llu delivered, "
                "%4llu lost, %5llu datagrams (%llu coalesced frames)\n",
                i, static_cast<unsigned long long>(is.frames_offered),
                static_cast<unsigned long long>(is.frames_delivered),
                static_cast<unsigned long long>(is.frames_dropped_loss),
                static_cast<unsigned long long>(us.datagrams_sent),
                static_cast<unsigned long long>(us.frames_coalesced));
  }
  return delivered > 0 ? 0 : 1;
}
