// SessionEndpoint: flow multiplexing over one shared channel set.
//
// The properties under test are the session layer's safety claims:
// demux isolation (one flow's frames/reports never touch another flow's
// state — both flows deliberately reuse the same packet ids), admission
// accounting, per-flow memory degradation, and churn/teardown safety
// with timers in flight (the ASan leg is the real referee for the
// latter: these tests run under CI's sanitizer job).
#include "session/session_endpoint.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <new>
#include <set>
#include <span>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "feedback/report.hpp"
#include "feedback/retransmit.hpp"
#include "net/sim_time.hpp"
#include "obs/metrics.hpp"
#include "protocol/wire.hpp"
#include "transport/udp_socket.hpp"
#include "udp_test_util.hpp"
#include "util/ensure.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

// ---- allocation-counting hook ----------------------------------------
//
// As in transport_test.cpp: replacing the global allocator is
// binary-wide, so counting is gated on a flag the allocation tests flip
// around their measured region.
namespace {
std::atomic<bool> g_count_allocs{false};
std::atomic<std::uint64_t> g_allocs{0};

/// Counts the operator new calls made while it is alive.
class AllocCounter {
 public:
  AllocCounter() {
    g_allocs.store(0);
    g_count_allocs.store(true);
  }
  ~AllocCounter() { g_count_allocs.store(false); }
  AllocCounter(const AllocCounter&) = delete;
  AllocCounter& operator=(const AllocCounter&) = delete;
  [[nodiscard]] std::uint64_t count() const { return g_allocs.load(); }
};
}  // namespace

// noinline keeps GCC from pairing an inlined free() against new
// expressions elsewhere and warning about a mismatch that is not one.
#define MCSS_TEST_NOINLINE __attribute__((noinline))

MCSS_TEST_NOINLINE void* operator new(std::size_t size) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size != 0 ? size : 1)) return p;
  throw std::bad_alloc();
}
MCSS_TEST_NOINLINE void* operator new[](std::size_t size) {
  return ::operator new(size);
}
MCSS_TEST_NOINLINE void operator delete(void* p) noexcept { std::free(p); }
MCSS_TEST_NOINLINE void operator delete[](void* p) noexcept { std::free(p); }
MCSS_TEST_NOINLINE void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
MCSS_TEST_NOINLINE void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace mcss {
namespace {

using session::FlowParams;
using session::SessionConfig;
using session::SessionEndpoint;

std::vector<std::uint8_t> pattern_payload(std::size_t size, std::uint8_t tag) {
  std::vector<std::uint8_t> payload(size);
  for (std::size_t i = 0; i < size; ++i) {
    payload[i] = static_cast<std::uint8_t>(tag ^ (i & 0xFF));
  }
  return payload;
}

SessionConfig clean_config(std::size_t num_channels = 3,
                           double rate_bps = 200e6) {
  SessionConfig config;
  for (std::size_t i = 0; i < num_channels; ++i) {
    net::ChannelConfig ch;
    ch.rate_bps = rate_bps;
    session::ChannelSpec spec;
    spec.config = ch;
    spec.name = "ch" + std::to_string(i);
    config.channels.push_back(std::move(spec));
  }
  config.seed = 7;
  return config;
}

/// Pump the endpoint until `done()` or `wall_ms` of real time passes.
template <typename Pred>
bool run_until(SessionEndpoint& ep, Pred done, std::int64_t wall_ms = 2000) {
  const std::int64_t deadline = ep.now_ns() + wall_ms * 1'000'000;
  while (!done()) {
    if (ep.now_ns() >= deadline) return false;
    ep.run_for(2'000'000);
  }
  return true;
}

TEST(Session, SingleFlowDeliversThroughSessionLayer) {
  SessionConfig config = clean_config();
  config.auth_key = crypto::SipHashKey{{1, 2, 3, 4}};
  SessionEndpoint ep(std::move(config));

  std::map<std::uint64_t, std::vector<std::uint8_t>> delivered;
  std::uint32_t delivered_cid = 0;
  ep.set_deliver([&](std::uint32_t cid, std::uint64_t id,
                     std::vector<std::uint8_t> payload) {
    delivered_cid = cid;
    delivered[id] = std::move(payload);
  });

  const auto cid = ep.open_flow();
  ASSERT_TRUE(cid.has_value());
  EXPECT_NE(*cid, 0u);

  constexpr int kPackets = 12;
  std::map<std::uint64_t, std::vector<std::uint8_t>> sent;
  for (int i = 0; i < kPackets; ++i) {
    auto payload = pattern_payload(200 + static_cast<std::size_t>(i),
                                   static_cast<std::uint8_t>(i));
    sent[static_cast<std::uint64_t>(i + 1)] = payload;
    ASSERT_TRUE(ep.send(*cid, std::move(payload)));
  }
  ASSERT_TRUE(run_until(
      ep, [&] { return delivered.size() == kPackets; }));

  EXPECT_EQ(delivered_cid, *cid);
  EXPECT_EQ(delivered, sent);  // packet ids are flow-scoped, starting at 1
  EXPECT_GT(ep.stats().frames_demuxed, 0u);
  EXPECT_EQ(ep.stats().frames_unknown_connection, 0u);
  EXPECT_EQ(ep.stats().frames_without_connection, 0u);
  EXPECT_EQ(ep.stats().frames_undecodable, 0u);
  const proto::Receiver* rx = ep.flow_receiver(*cid);
  ASSERT_NE(rx, nullptr);
  EXPECT_EQ(rx->stats().packets_delivered, static_cast<std::uint64_t>(kPackets));
  EXPECT_EQ(rx->stats().auth_failures, 0u);
}

TEST(Session, ForgedFramesOnOneChannelAreNotCreditedToItsReport) {
  // An injector fires well-formed share frames carrying a live flow's
  // connection id but a tag under the wrong key at channel 0. They must
  // be authenticated before the demux: counted as auth failures by the
  // session (and published as the receivers' auth-failure total), never
  // credited to the flow nor handed to its receiver.
  SessionConfig config = clean_config();
  config.auth_key = crypto::SipHashKey{{1, 2, 3, 4}};
  config.reliability.enabled = true;
  config.reliability.report_interval_ns = 2'000'000;
  config.limits.max_queue_packets = 64;
  SessionEndpoint ep(std::move(config));
  std::size_t delivered = 0;
  ep.set_deliver([&](std::uint32_t, std::uint64_t, std::vector<std::uint8_t>) {
    ++delivered;
  });
  const auto cid = ep.open_flow();
  ASSERT_TRUE(cid.has_value());

  const crypto::SipHashKey wrong{{4, 3, 2, 1}};
  transport::UdpSocket injector = transport::UdpSocket::bound_loopback(0);
  injector.connect_loopback(ep.channel(0).rx_port());
  constexpr std::uint64_t kForged = 40;
  for (std::uint64_t i = 0; i < kForged; ++i) {
    proto::ShareFrame forged;
    forged.packet_id = 1000 + i;
    forged.k = 2;
    forged.share_index = 1;
    forged.connection_id = *cid;
    forged.payload = pattern_payload(64, 0xEE);
    ASSERT_EQ(test::send_one(injector, proto::encode(forged, &wrong)),
              transport::UdpSocket::IoResult::Ok);
  }
  ASSERT_TRUE(run_until(ep, [&] {
    return ep.stats().frames_auth_failed + ep.stats().frames_undecodable +
               ep.stats().frames_demuxed >=
           kForged;
  }));

  // Real traffic afterwards, so later reports carry the counters.
  constexpr std::size_t kPackets = 20;
  for (std::size_t i = 0; i < kPackets; ++i) {
    ASSERT_TRUE(ep.send(*cid, pattern_payload(96, static_cast<std::uint8_t>(i))));
  }
  feedback::RetransmitManager* manager = ep.flow_manager(*cid);
  ASSERT_NE(manager, nullptr);
  ASSERT_TRUE(run_until(ep, [&] {
    return delivered == kPackets && manager->outstanding() == 0;
  }));

  EXPECT_EQ(ep.stats().frames_auth_failed, kForged);
  EXPECT_EQ(ep.stats().frames_undecodable, 0u);
  const proto::Receiver* rx = ep.flow_receiver(*cid);
  ASSERT_NE(rx, nullptr);
  const proto::SenderStats* tx = ep.flow_sender_stats(*cid);
  ASSERT_NE(tx, nullptr);
  // Clean loopback: every frame the flow received is a share it sent.
  EXPECT_GT(rx->stats().frames_received, 0u);
  EXPECT_LE(rx->stats().frames_received, tx->shares_sent);
  EXPECT_EQ(rx->stats().auth_failures, 0u) << "forgeries never reach it";
  EXPECT_EQ(rx->stats().packets_delivered, kPackets);
  obs::Registry registry;
  ep.publish_metrics(registry);
  const auto metrics = registry.snapshot();
  EXPECT_EQ(metrics.counter_value("mcss_session_frames_auth_failed"), kForged);
  EXPECT_EQ(metrics.counter_value("mcss_receiver_auth_failures"), kForged);
}

TEST(Session, PublishesSocketCountersForItsChannels) {
  // Unpaced lanes release a whole burst at once, so each channel's share
  // datagrams leave as runs of equal size: segmented messages where the
  // kernel supports UDP_SEGMENT, received as GRO entries where it takes
  // UDP_GRO.
  SessionConfig config = clean_config(3, 1e12);
  config.limits.max_queue_packets = 64;
  config.limits.per_flow_memory_bytes = 1u << 20;
  SessionEndpoint ep(std::move(config));
  std::size_t delivered = 0;
  ep.set_deliver([&](std::uint32_t, std::uint64_t, std::vector<std::uint8_t>) {
    ++delivered;
  });
  const auto cid = ep.open_flow();
  ASSERT_TRUE(cid.has_value());
  constexpr std::size_t kPackets = 64;
  for (std::size_t i = 0; i < kPackets; ++i) {
    ASSERT_TRUE(ep.send(*cid, pattern_payload(1200, static_cast<std::uint8_t>(i))));
  }
  ASSERT_TRUE(run_until(ep, [&] { return delivered == kPackets; }));

  // No reliability, so no feedback lane: the share channels and the
  // poller make every kernel crossing.
  std::uint64_t sent = 0;
  std::uint64_t segments = 0;
  std::uint64_t received = 0;
  std::uint64_t gro_segments = 0;
  std::uint64_t syscalls = ep.poller().wait_calls();
  bool gro = true;
  for (std::size_t c = 0; c < ep.num_channels(); ++c) {
    const transport::UdpChannel& ch = ep.channel(c);
    sent += ch.stats().datagrams_sent;
    segments += ch.stats().gso_segments;
    received += ch.stats().datagrams_received;
    gro_segments += ch.stats().gro_segments;
    syscalls += ch.syscalls_send() + ch.syscalls_recv();
    gro = gro && ch.rx_socket().gro();
  }
  obs::Registry registry;
  ep.publish_metrics(registry);
  const auto metrics = registry.snapshot();
  EXPECT_GT(sent, 0u);
  EXPECT_EQ(metrics.counter_value("mcss_live_datagrams_sent"), sent);
  EXPECT_EQ(metrics.counter_value("mcss_live_gso_segments"), segments);
  EXPECT_EQ(metrics.counter_value("mcss_live_datagrams_received"), received);
  EXPECT_EQ(metrics.counter_value("mcss_live_gro_segments"), gro_segments);
  EXPECT_EQ(metrics.counter_value("mcss_live_rx_kernel_drops"), 0u);
  EXPECT_EQ(metrics.counter_value("mcss_transport_syscalls_total"), syscalls);
  const std::uint64_t messages =
      metrics.counter_value("mcss_live_gso_messages");
  const std::uint64_t gro_messages =
      metrics.counter_value("mcss_live_gro_messages");
  if (transport::UdpSocket::bound_loopback(0).max_segments() > 1) {
    EXPECT_GT(messages, 0u);
    EXPECT_GE(segments, 2 * messages) << "every segmented message is a run";
    EXPECT_LE(segments, sent);
  } else {
    EXPECT_EQ(messages, 0u);
  }
  // Where the RX sockets take UDP_GRO, the runs arrive as GRO entries.
  if (gro && messages > 0) {
    EXPECT_GT(gro_messages, 0u);
    EXPECT_GE(gro_segments, 2 * gro_messages) << "every GRO entry is a run";
    EXPECT_LE(gro_segments, received);
  } else {
    EXPECT_EQ(gro_messages, 0u);
  }
}

TEST(Session, FlowsWithEqualPacketIdsNeverMix) {
  // Both flows number their packets 1..N; if demux ever leaked a share
  // across flows, the mixed reassembly would surface as conflicting
  // metadata (the payload sizes differ) or corrupted payloads.
  SessionEndpoint ep(clean_config());

  std::map<std::uint32_t, std::map<std::uint64_t, std::vector<std::uint8_t>>>
      delivered;
  ep.set_deliver([&](std::uint32_t cid, std::uint64_t id,
                     std::vector<std::uint8_t> payload) {
    delivered[cid][id] = std::move(payload);
  });

  const auto a = ep.open_flow();
  const auto b = ep.open_flow();
  ASSERT_TRUE(a && b);
  ASSERT_NE(*a, *b);

  constexpr int kPackets = 8;
  for (int i = 0; i < kPackets; ++i) {
    ASSERT_TRUE(ep.send(*a, pattern_payload(96, 0xA0)));
    ASSERT_TRUE(ep.send(*b, pattern_payload(160, 0xB0)));
  }
  ASSERT_TRUE(run_until(ep, [&] {
    return delivered[*a].size() == kPackets && delivered[*b].size() == kPackets;
  }));

  for (const auto& [id, payload] : delivered[*a]) {
    EXPECT_EQ(payload, pattern_payload(96, 0xA0)) << "flow A packet " << id;
  }
  for (const auto& [id, payload] : delivered[*b]) {
    EXPECT_EQ(payload, pattern_payload(160, 0xB0)) << "flow B packet " << id;
  }
  for (const auto cid : {*a, *b}) {
    const proto::Receiver* rx = ep.flow_receiver(cid);
    ASSERT_NE(rx, nullptr);
    EXPECT_EQ(rx->stats().conflicting_metadata, 0u);
    EXPECT_EQ(rx->stats().packets_delivered,
              static_cast<std::uint64_t>(kPackets));
  }
}

TEST(Session, ReportDemuxNeverAcksAnotherFlowsPackets) {
  SessionConfig config = clean_config();
  config.reliability.enabled = true;
  SessionEndpoint ep(std::move(config));

  const auto a = ep.open_flow();
  const auto b = ep.open_flow();
  ASSERT_TRUE(a && b);

  // One packet on each flow; both are packet id 1 within their flows.
  // A single run_for(0) iteration dispatches (managers start tracking)
  // without receiving anything back yet.
  ASSERT_TRUE(ep.send(*a, pattern_payload(64, 0x0A)));
  ASSERT_TRUE(ep.send(*b, pattern_payload(64, 0x0B)));
  ep.run_for(0);
  feedback::RetransmitManager* ma = ep.flow_manager(*a);
  feedback::RetransmitManager* mb = ep.flow_manager(*b);
  ASSERT_NE(ma, nullptr);
  ASSERT_NE(mb, nullptr);
  ASSERT_EQ(ma->outstanding(), 1u);
  ASSERT_EQ(mb->outstanding(), 1u);

  // A receiver report for flow A acking packet id 1.
  feedback::ReceiverReport report;
  report.connection_id = *a;
  report.seq = 1;
  report.receiver_time_ns = ep.now_ns();
  report.packets_delivered = 1;
  report.sack_base = 1;
  report.sack = {1};  // bit 0: packet id 1 delivered
  const auto bytes = feedback::encode_report(report);

  ep.on_feedback_datagram(bytes, ep.now_ns());
  // Flow A: acked and closed. Flow B: untouched, even though its packet
  // has the very same id the report acknowledged.
  EXPECT_EQ(ma->stats().packets_acked, 1u);
  EXPECT_EQ(ma->outstanding(), 0u);
  EXPECT_EQ(mb->stats().packets_acked, 0u);
  EXPECT_EQ(mb->stats().reports_received, 0u);
  EXPECT_EQ(mb->outstanding(), 1u);
  EXPECT_EQ(ep.stats().reports_demuxed, 1u);

  // Replaying the same report is dropped by flow A's own seq check.
  ep.on_feedback_datagram(bytes, ep.now_ns());
  EXPECT_EQ(ma->stats().reports_replayed, 1u);
  EXPECT_EQ(ma->stats().packets_acked, 1u);

  // A report without a connection id has no owner in a session: dropped
  // before ANY manager sees it (downgrade to the single-flow encoding
  // must not alias onto some arbitrary flow).
  feedback::ReceiverReport anonymous = report;
  anonymous.connection_id = 0;
  anonymous.seq = 2;
  ep.on_feedback_datagram(feedback::encode_report(anonymous), ep.now_ns());
  EXPECT_EQ(ep.stats().reports_without_connection, 1u);
  EXPECT_EQ(mb->stats().reports_received, 0u);

  // Unknown connection id (closed flow / forgery): likewise dropped.
  feedback::ReceiverReport stranger = report;
  stranger.connection_id = 0x7777;
  stranger.seq = 3;
  ep.on_feedback_datagram(feedback::encode_report(stranger), ep.now_ns());
  EXPECT_EQ(ep.stats().reports_unknown_connection, 1u);
  EXPECT_EQ(mb->outstanding(), 1u);
}

TEST(Session, AdmissionSharesRateBudgetAndRefusesBeyondIt) {
  // Small channels so the budget admits only a handful of flows.
  SessionConfig config = clean_config(3, 1e6);  // 3 x 125 kB/s
  SessionEndpoint ep(std::move(config));

  FlowParams params;
  params.rate_pps = 50.0;
  params.payload_bytes = 256;

  std::vector<std::uint32_t> admitted;
  while (true) {
    const auto cid = ep.open_flow(params);
    if (!cid) break;
    admitted.push_back(*cid);
    ASSERT_LT(admitted.size(), 1000u) << "admission never refused";
  }
  EXPECT_GT(admitted.size(), 0u);
  EXPECT_EQ(ep.stats().flows_rejected_rate, 1u);
  // The reservation ledger matches the budget: admitted rate fits, one
  // more flow would not.
  EXPECT_LE(ep.admitted_bytes_per_s(), ep.admission_budget_bytes_per_s());
  EXPECT_GT(ep.admitted_bytes_per_s() +
                ep.admitted_bytes_per_s() / static_cast<double>(admitted.size()),
            ep.admission_budget_bytes_per_s());

  // Closing a flow releases its reservation; the next open succeeds.
  ASSERT_TRUE(ep.close_flow(admitted.back()));
  const auto reopened = ep.open_flow(params);
  EXPECT_TRUE(reopened.has_value());

  // The capacity cap refuses independently of rate.
  SessionConfig tiny = clean_config();
  tiny.limits.max_flows = 2;
  SessionEndpoint small(std::move(tiny));
  EXPECT_TRUE(small.open_flow());
  EXPECT_TRUE(small.open_flow());
  EXPECT_FALSE(small.open_flow());
  EXPECT_EQ(small.stats().flows_rejected_capacity, 1u);
}

TEST(Session, MemoryPressureEvictsWithinTheOffendingFlowOnly) {
  // Channel 2 loses 90% of its frames. Flow A insists on k = m = 3, so
  // nearly every packet is stuck as a 2-share partial until its flow-
  // local memory cap evicts it. Flow B sends k = 1 singletons that
  // complete instantly. A's pressure must never evict B's state, and B
  // must keep delivering while A degrades.
  SessionConfig config = clean_config();
  config.channels[2].config.loss = 0.9;
  config.receiver.reassembly_timeout = net::from_millis(5000);
  config.limits.per_flow_memory_bytes = 4096;
  SessionEndpoint ep(std::move(config));

  std::map<std::uint32_t, std::size_t> delivered;
  ep.set_deliver([&](std::uint32_t cid, std::uint64_t, std::vector<std::uint8_t>) {
    ++delivered[cid];
  });

  FlowParams heavy;
  heavy.kappa = 3.0;
  heavy.mu = 3.0;
  heavy.payload_bytes = 1024;
  FlowParams light;
  light.kappa = 1.0;
  light.mu = 1.0;
  light.payload_bytes = 64;
  const auto a = ep.open_flow(heavy);
  const auto b = ep.open_flow(light);
  ASSERT_TRUE(a && b);

  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 10; ++i) {
      ep.send(*a, pattern_payload(1024, 0xAA));
      ep.send(*b, pattern_payload(64, 0xBB));
    }
    ep.run_for(30'000'000);
  }

  const proto::Receiver* ra = ep.flow_receiver(*a);
  const proto::Receiver* rb = ep.flow_receiver(*b);
  ASSERT_NE(ra, nullptr);
  ASSERT_NE(rb, nullptr);
  // The offending flow degraded within its own cap...
  EXPECT_GT(ra->stats().packets_evicted_memory +
                ra->stats().shares_dropped_memory,
            0u);
  EXPECT_LE(ra->buffered_bytes(), 4096u);
  // ...while its neighbour was untouched and kept delivering.
  EXPECT_EQ(rb->stats().packets_evicted_memory, 0u);
  EXPECT_EQ(rb->stats().shares_dropped_memory, 0u);
  EXPECT_GT(delivered[*b], 0u);
}

TEST(Session, ClosedPacketRecordsStayBoundedWithTelemetryOff) {
  // The retransmit manager keeps one record per closed packet until the
  // endpoint drains it. Without telemetry nothing consumes the records,
  // but the endpoint must still drain them, or every reliability flow
  // grows by one record per packet for its whole life.
  SessionConfig config = clean_config();
  config.reliability.enabled = true;
  config.reliability.report_interval_ns = 2'000'000;
  config.limits.max_queue_packets = 1024;
  ASSERT_FALSE(config.telemetry.enabled);
  SessionEndpoint ep(std::move(config));

  const auto cid = ep.open_flow();
  ASSERT_TRUE(cid.has_value());
  constexpr std::uint64_t kPackets = 600;
  for (std::uint64_t i = 0; i < kPackets; ++i) {
    ASSERT_TRUE(ep.send(*cid, pattern_payload(64, static_cast<std::uint8_t>(i))));
  }
  feedback::RetransmitManager* manager = ep.flow_manager(*cid);
  ASSERT_NE(manager, nullptr);
  ASSERT_TRUE(run_until(ep, [&] {
    return manager->stats().packets_acked + manager->stats().packets_abandoned ==
               kPackets &&
           manager->outstanding() == 0;
  }));
  // Every packet closed; what is left undrained is at most what closed
  // since the endpoint's last fold, independent of kPackets.
  EXPECT_LE(manager->drain_closed().size(), 64u);
}

TEST(Session, UnloadedPacketIsDeliveredWellUnderAMillisecond) {
  // Zero-delay 10 Gbps channels: a 1470 B packet's serializer departure
  // is due about a microsecond after the pump arms it. The loop must not
  // sleep out a poll timeout rounded up to 1 ms before releasing it.
  SessionEndpoint ep(clean_config(3, 10e9));
  std::int64_t delivered_at = -1;
  ep.set_deliver([&](std::uint32_t, std::uint64_t, std::vector<std::uint8_t>) {
    delivered_at = ep.now_ns();
  });
  const auto cid = ep.open_flow();
  ASSERT_TRUE(cid.has_value());
  std::vector<double> latency_ms;
  for (int i = 0; i < 50; ++i) {
    delivered_at = -1;
    const std::int64_t sent_at = ep.now_ns();
    ASSERT_TRUE(ep.send(*cid, pattern_payload(1470, static_cast<std::uint8_t>(i))));
    ASSERT_TRUE(run_until(ep, [&] { return delivered_at >= 0; }));
    latency_ms.push_back(static_cast<double>(delivered_at - sent_at) / 1e6);
  }
  std::sort(latency_ms.begin(), latency_ms.end());
  EXPECT_LT(latency_ms[latency_ms.size() / 2], 0.5);
}

/// Far more than one SACK window (16 words = 1024 ids) is delivered
/// inside one report interval. Without a report at half a window, the
/// periodic report finds the oldest ids already slid out of its window;
/// they are never acked and time out into retransmissions.
void expect_early_reports_keep_sack_window_ahead(SessionConfig config) {
  config.reliability.enabled = true;
  config.reliability.report_interval_ns = 400'000'000;
  config.reliability.retransmit.initial_rto_ns = 650'000'000;
  config.reliability.retransmit.min_rto_ns = 650'000'000;
  config.limits.max_queue_packets = 4096;
  ASSERT_EQ(config.reliability.sack_window_words, 16u);
  SessionEndpoint ep(std::move(config));

  std::uint64_t delivered = 0;
  ep.set_deliver([&](std::uint32_t, std::uint64_t, std::vector<std::uint8_t>) {
    ++delivered;
  });
  const auto cid = ep.open_flow();
  ASSERT_TRUE(cid.has_value());
  // Chunks small enough that no socket buffer overflows: every share
  // arrives, so no packet has a reason to be retransmitted.
  constexpr std::uint64_t kPackets = 1600;
  constexpr std::uint64_t kChunk = 100;
  for (std::uint64_t sent = 0; sent < kPackets; sent += kChunk) {
    for (std::uint64_t i = 0; i < kChunk; ++i) {
      ASSERT_TRUE(ep.send(*cid, pattern_payload(64, static_cast<std::uint8_t>(i))));
    }
    ASSERT_TRUE(run_until(ep, [&] { return delivered == sent + kChunk; }));
  }
  // now_ns() counts from construction, where the report timer was armed.
  ASSERT_LT(ep.now_ns(), 400'000'000)
      << "deliveries must fit inside the first report interval";

  // The periodic report at 400 ms acks the tail; an id it cannot ack
  // times out from 650 ms on.
  feedback::RetransmitManager* manager = ep.flow_manager(*cid);
  ASSERT_NE(manager, nullptr);
  run_until(ep, [&] {
    return manager->stats().retransmits > 0 ||
           manager->stats().packets_acked == kPackets;
  }, 1500);
  EXPECT_EQ(manager->stats().retransmits, 0u);
  EXPECT_EQ(manager->stats().packets_acked, kPackets);
  EXPECT_EQ(manager->outstanding(), 0u);
}

TEST(Session, EarlyReportsKeepTheSackWindowAheadOfDeliveries) {
  expect_early_reports_keep_sack_window_ahead(clean_config(3, 1e9));
}

TEST(Session, EarlyReportsKeepTheSackWindowAheadOnAKeyedEndpoint) {
  // The same run with every share tagged: the batched authentication
  // pass on receive must not hold deliveries (and so reports) back.
  SessionConfig config = clean_config(3, 1e9);
  config.auth_key = crypto::SipHashKey{{1, 2, 3, 4}};
  config.seed = 83;
  expect_early_reports_keep_sack_window_ahead(std::move(config));
}

TEST(Session, TeardownBetweenArmAndFireIsSafe) {
  // A flow is closed while (a) its RTO timer is armed on the shared
  // timeline, (b) reassembly eviction timers for its partials are parked in
  // the shared timeline, and (c) its shares are still in flight. Running
  // well past every deadline afterwards must touch no freed state — the
  // CI sanitizer leg turns any violation into a failure.
  SessionConfig config = clean_config();
  config.channels[2].config.loss = 0.9;  // keep partials open at close
  config.reliability.enabled = true;
  config.receiver.reassembly_timeout = net::from_millis(50);
  SessionEndpoint ep(std::move(config));

  FlowParams stubborn;
  stubborn.kappa = 3.0;
  stubborn.mu = 3.0;
  const auto cid = ep.open_flow(stubborn);
  ASSERT_TRUE(cid.has_value());
  for (int i = 0; i < 6; ++i) {
    ep.send(*cid, pattern_payload(512, 0xCC));
  }
  ep.run_for(5'000'000);  // dispatch, deliver some shares, arm the RTO
  ASSERT_TRUE(ep.close_flow(*cid));
  EXPECT_EQ(ep.num_flows(), 0u);

  // Cross the RTO (200 ms default), the report interval, and the
  // reassembly timeout. Late shares of the closed flow must be counted
  // as unknown-connection, not fed to anything.
  ep.run_for(300'000'000);
  EXPECT_FALSE(ep.close_flow(*cid));  // already gone
  EXPECT_EQ(ep.stats().flows_closed, 1u);
}

TEST(Session, ClosingAFlowTakesItsArmedRtoWithIt) {
  // Two flows each deliver their packets, and no report can ack them
  // before their RTO (the report interval is far longer), so both hold
  // an armed RTO timer. Closing one must take its timer with it: past
  // the deadline the open flow retransmits, and nothing of the closed
  // one reaches the wire (its retransmissions would arrive as frames of
  // an unknown connection).
  SessionConfig config = clean_config();
  config.reliability.enabled = true;
  config.reliability.report_interval_ns = 2'000'000'000;
  config.reliability.retransmit.initial_rto_ns = 60'000'000;
  config.reliability.retransmit.min_rto_ns = 30'000'000;
  SessionEndpoint ep(std::move(config));
  std::size_t delivered = 0;
  ep.set_deliver([&](std::uint32_t, std::uint64_t, std::vector<std::uint8_t>) {
    ++delivered;
  });
  const auto closed = ep.open_flow();
  const auto open = ep.open_flow();
  ASSERT_TRUE(closed.has_value() && open.has_value());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(ep.send(*closed, pattern_payload(64, 0xA0)));
    ASSERT_TRUE(ep.send(*open, pattern_payload(64, 0xB0)));
  }
  ASSERT_TRUE(run_until(ep, [&] { return delivered == 6; }, 50));
  ASSERT_EQ(ep.flow_manager(*closed)->outstanding(), 3u);
  ASSERT_TRUE(ep.close_flow(*closed));

  ep.run_for(150'000'000);
  EXPECT_GT(ep.flow_manager(*open)->stats().retransmits, 0u);
  EXPECT_EQ(ep.stats().frames_unknown_connection, 0u);
}

TEST(Session, OpenFlowAllocatesOnlyItsTableNodeOnAWarmEndpoint) {
  // The churn shape: ARQ on, 64 B packets, one packet per flow, flows
  // replaced while the population stays up. Opening a flow used to make
  // 14 allocations (the flow object, a deque map and node for each of
  // four queues, the report builder's vectors, the retransmit manager, a
  // liveness token); now it is the flow table's node, plus an occasional
  // rehash of the table.
  SessionConfig config = clean_config(3, 2e9);
  config.reliability.enabled = true;
  config.limits.max_flows = 4096;
  SessionEndpoint ep(std::move(config));
  std::size_t delivered = 0;
  ep.set_deliver([&](std::uint32_t, std::uint64_t, std::vector<std::uint8_t>) {
    ++delivered;
  });
  FlowParams params;
  params.rate_pps = 2.0;
  params.payload_bytes = 64;

  // Warm the endpoint: a population that has sent, delivered and been
  // acked, then half of it replaced.
  std::vector<std::uint32_t> open;
  for (int i = 0; i < 1000; ++i) {
    const auto cid = ep.open_flow(params);
    ASSERT_TRUE(cid.has_value());
    open.push_back(*cid);
    ASSERT_TRUE(ep.send(*cid, pattern_payload(64, static_cast<std::uint8_t>(i))));
    if (i % 100 == 99) ep.run_for(1'000'000);
  }
  ASSERT_TRUE(run_until(ep, [&] { return delivered == 1000; }));
  for (std::size_t i = 0; i < 500; ++i) ASSERT_TRUE(ep.close_flow(open[2 * i]));

  constexpr std::size_t kOpens = 1000;
  std::vector<std::uint32_t> opened;
  opened.reserve(kOpens);
  std::uint64_t allocations = 0;
  {
    const AllocCounter counter;
    for (std::size_t i = 0; i < kOpens; ++i) {
      const auto cid = ep.open_flow(params);
      if (!cid) break;
      opened.push_back(*cid);
    }
    allocations = counter.count();
  }
  ASSERT_EQ(opened.size(), kOpens);
  EXPECT_LE(allocations, 3 * kOpens)
      << static_cast<double>(allocations) / kOpens << " allocations per open";

  // A just-opened flow holds no heap: its rings and report builder
  // allocate on first use.
  for (const std::uint32_t cid : opened) {
    ASSERT_EQ(ep.flow_heap_bytes(cid), 0u) << "flow " << cid;
  }
  // First use allocates, and the flow still delivers.
  const std::uint32_t probe = opened.front();
  ASSERT_TRUE(ep.send(probe, pattern_payload(64, 0x77)));
  EXPECT_GT(ep.flow_heap_bytes(probe), 0u);
  ASSERT_TRUE(run_until(ep, [&] { return delivered == 1001; }));
}

TEST(Session, WarmSendAndDispatchDoNotAllocate) {
  // Reliability off, transparent channels (no serializer timers): once a
  // flow is warm, send() -> pump -> scheduler -> dispatch -> split into
  // pool slots -> sendmmsg touches the heap for nothing but the payload
  // vector the caller hands in (built outside the counted region).
  SessionEndpoint ep(clean_config(3, 1e15));
  std::size_t delivered = 0;
  ep.set_deliver([&](std::uint32_t, std::uint64_t, std::vector<std::uint8_t>) {
    ++delivered;
  });
  const auto cid = ep.open_flow();
  ASSERT_TRUE(cid.has_value());

  // Warm-up: a full queue at once, so the queue and send-stamp rings
  // reach the depth the measured sends use.
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(ep.send(*cid, pattern_payload(256, static_cast<std::uint8_t>(i))));
  }
  ASSERT_TRUE(run_until(ep, [&] { return delivered == 16; }));

  constexpr int kSends = 8;
  std::vector<std::vector<std::uint8_t>> payloads;
  for (int i = 0; i < kSends; ++i) {
    payloads.push_back(pattern_payload(256, static_cast<std::uint8_t>(0x40 + i)));
  }
  const std::uint64_t sent_before = ep.stats().packets_sent;
  std::uint64_t allocations = 0;
  {
    const AllocCounter counter;
    for (auto& payload : payloads) {
      if (!ep.send(*cid, std::move(payload))) break;
      ep.run_for(0);  // one loop turn: pump, dispatch, flush; no wait
    }
    allocations = counter.count();
  }
  ASSERT_EQ(ep.stats().packets_sent - sent_before, std::uint64_t{kSends});
  EXPECT_EQ(allocations, 0u)
      << "the warm session send path must not touch the heap";
  ASSERT_TRUE(run_until(ep, [&] { return delivered == 16 + kSends; }));
}

TEST(Session, ManyflowChurnSoak) {
  // >= 1k concurrent flows with arrivals, departures, retransmission
  // machinery armed, and traffic on every flow — seeded, so the ASan leg
  // replays the same churn. This is the flow-scale regression net: leaks
  // of per-flow state, stale intrusive-list links, or timers outliving
  // their flow all surface here.
  SessionConfig config = clean_config(3, 2e9);
  config.reliability.enabled = true;
  config.limits.max_flows = 4096;
  SessionEndpoint ep(std::move(config));

  std::map<std::uint32_t, std::size_t> delivered;
  ep.set_deliver([&](std::uint32_t cid, std::uint64_t, std::vector<std::uint8_t>) {
    ++delivered[cid];
  });

  FlowParams params;
  params.rate_pps = 5.0;
  params.payload_bytes = 64;

  Rng rng(42);
  std::vector<std::uint32_t> open;
  constexpr std::size_t kTarget = 1200;
  while (open.size() < kTarget) {
    for (int i = 0; i < 100 && open.size() < kTarget; ++i) {
      const auto cid = ep.open_flow(params);
      ASSERT_TRUE(cid.has_value());
      open.push_back(*cid);
      ep.send(*cid, pattern_payload(64, static_cast<std::uint8_t>(*cid)));
    }
    ep.run_for(1'000'000);
  }
  EXPECT_EQ(ep.num_flows(), kTarget);

  // Churn: replace 600 flows, one packet each, pumping as we go.
  constexpr std::size_t kChurn = 600;
  for (std::size_t i = 0; i < kChurn; ++i) {
    const std::size_t victim =
        static_cast<std::size_t>(rng.uniform_int(open.size()));
    ASSERT_TRUE(ep.close_flow(open[victim]));
    const auto cid = ep.open_flow(params);
    ASSERT_TRUE(cid.has_value());
    open[victim] = *cid;
    ep.send(*cid, pattern_payload(64, static_cast<std::uint8_t>(*cid)));
    if (i % 50 == 49) ep.run_for(2'000'000);
  }
  ep.run_for(100'000'000);  // drain

  EXPECT_EQ(ep.num_flows(), kTarget);
  EXPECT_EQ(ep.stats().flows_opened, kTarget + kChurn);
  EXPECT_EQ(ep.stats().flows_closed, kChurn);
  // The overwhelming majority of packets deliver; the losses are those
  // in flight when their flow was churned out (counted as unknown
  // connection at the demux, never misrouted).
  EXPECT_GT(ep.stats().packets_delivered,
            (8 * ep.stats().packets_sent) / 10);
  EXPECT_EQ(ep.stats().frames_without_connection, 0u);
  EXPECT_GT(ep.stats().reports_demuxed, 0u);

  std::size_t delivered_to_live = 0;
  for (const auto cid : open) delivered_to_live += delivered[cid];
  EXPECT_GT(delivered_to_live, 0u);

  for (const auto cid : open) ASSERT_TRUE(ep.close_flow(cid));
  EXPECT_EQ(ep.num_flows(), 0u);
  ep.run_for(50'000'000);  // let every orphaned timer fire as a no-op
}

// ------------------------------------------------ one flow, real sockets
//
// The single-flow shape bench/live_eval and examples/live_loopback run:
// one open flow on an endpoint, over real loopback sockets.

/// Opens the endpoint's one flow; a refusal fails the test.
std::uint32_t open_one_flow(SessionEndpoint& ep) {
  const auto cid = ep.open_flow();
  MCSS_ENSURE(cid.has_value(), "the endpoint refused the test's flow");
  return *cid;
}

/// Two-channel config: every packet goes 2-of-2.
SessionConfig two_channel_config(double rate_bps) {
  SessionConfig config = clean_config(2, rate_bps);
  config.kappa = 2.0;
  config.mu = 2.0;
  return config;
}

TEST(Session, DeliversAllPacketsOverCleanLoopback) {
  SessionConfig config = clean_config(3, 100e6);
  config.seed = 11;
  config.limits.max_queue_packets = 64;
  SessionEndpoint ep(std::move(config));
  std::map<std::uint64_t, std::vector<std::uint8_t>> delivered;
  ep.set_deliver([&](std::uint32_t, std::uint64_t id,
                     std::vector<std::uint8_t> payload) {
    delivered[id] = std::move(payload);
  });
  const std::uint32_t cid = open_one_flow(ep);

  Rng rng(99);
  std::vector<std::vector<std::uint8_t>> payloads;
  for (int i = 0; i < 50; ++i) {
    std::vector<std::uint8_t> payload(128);
    rng.fill(payload);
    payloads.push_back(payload);
    ASSERT_TRUE(ep.send(cid, std::move(payload)));
  }
  ASSERT_TRUE(run_until(ep, [&] { return delivered.size() == 50; }, 5000));

  // Packet ids are assigned in send order starting at 1.
  for (std::size_t i = 0; i < payloads.size(); ++i) {
    ASSERT_TRUE(delivered.count(i + 1));
    EXPECT_EQ(delivered[i + 1], payloads[i]) << "packet " << i + 1;
  }
  const proto::SenderStats* sender = ep.flow_sender_stats(cid);
  ASSERT_NE(sender, nullptr);
  EXPECT_EQ(sender->packets_sent, 50u);
  EXPECT_EQ(ep.flow_receiver(cid)->stats().packets_delivered, 50u);
  EXPECT_EQ(ep.stats().packets_delivered, 50u);
  EXPECT_EQ(ep.stats().frames_undecodable, 0u);
}

TEST(Session, FramesWithoutAConnectionIdAreNeverCredited) {
  // Frames without a connection id at channel 0: wrong-key ones fail
  // authentication, correctly keyed ones have no flow to go to. Neither
  // kind is counted by any flow's per-channel report as a share received
  // or as an undecodable frame.
  const crypto::SipHashKey good_key{1, 2, 3, 4};
  const crypto::SipHashKey bad_key{4, 3, 2, 1};
  SessionConfig config = clean_config(3, 100e6);
  config.seed = 37;
  config.auth_key = good_key;
  config.reliability.enabled = true;
  config.reliability.report_interval_ns = 2'000'000;
  config.limits.max_queue_packets = 64;
  SessionEndpoint ep(std::move(config));
  std::size_t delivered = 0;
  ep.set_deliver([&](std::uint32_t, std::uint64_t, std::vector<std::uint8_t>) {
    ++delivered;
  });
  const std::uint32_t cid = open_one_flow(ep);

  transport::UdpSocket injector = transport::UdpSocket::bound_loopback(0);
  injector.connect_loopback(ep.channel(0).rx_port());
  constexpr std::uint64_t kForged = 25;
  for (std::uint64_t i = 0; i < kForged; ++i) {
    proto::ShareFrame frame;
    frame.packet_id = 5000 + i;
    frame.k = 2;
    frame.share_index = 1;
    frame.payload = std::vector<std::uint8_t>(64, 0xEE);
    ASSERT_EQ(test::send_one(injector, proto::encode(frame, &bad_key)),
              transport::UdpSocket::IoResult::Ok);
    ASSERT_EQ(test::send_one(injector, proto::encode(frame, &good_key)),
              transport::UdpSocket::IoResult::Ok);
  }
  ASSERT_TRUE(run_until(ep, [&] {
    return ep.stats().frames_auth_failed + ep.stats().frames_undecodable +
               ep.stats().frames_without_connection >=
           2 * kForged;
  }));
  EXPECT_EQ(ep.stats().frames_auth_failed, kForged);
  EXPECT_EQ(ep.stats().frames_without_connection, kForged);

  // Real traffic afterwards, so later reports carry the counters.
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(ep.send(cid, pattern_payload(96, 0x11)));
  }
  feedback::RetransmitManager* manager = ep.flow_manager(cid);
  ASSERT_NE(manager, nullptr);
  ASSERT_TRUE(run_until(ep, [&] {
    return delivered == 10 && manager->outstanding() == 0;
  }, 5000));
  EXPECT_EQ(ep.stats().frames_undecodable, 0u);
  const proto::SenderStats* tx = ep.flow_sender_stats(cid);
  ASSERT_NE(tx, nullptr);
  EXPECT_LE(ep.flow_receiver(cid)->stats().frames_received, tx->shares_sent);
  EXPECT_EQ(ep.flow_receiver(cid)->stats().packets_delivered, 10u);
  EXPECT_EQ(ep.flow_receiver(cid)->stats().auth_failures, 0u);
}

TEST(Session, PortBaseWraparoundIsRejectedAtSetup) {
  // Channel i binds port_base + i with uint16_t arithmetic, so a high
  // base would silently wrap to a low port. The endpoint must refuse the
  // configuration up front instead.
  {
    SessionConfig config = clean_config();
    config.port_base = 65534;  // lanes at 65534, 65535, 65536 -> wrap
    EXPECT_THROW((void)SessionEndpoint(std::move(config)), PreconditionError);
  }
  {
    // Boundary: the LAST channel exactly at 65535 is fine.
    SessionConfig config = clean_config();
    config.port_base = 65533;  // lanes at 65533, 65534, 65535
    EXPECT_NO_THROW((void)SessionEndpoint(std::move(config)));
  }
  {
    // Reliability adds a feedback lane at port_base + n: a base that
    // fits the share channels alone must still be refused.
    SessionConfig config = clean_config();
    config.port_base = 65533;
    config.reliability.enabled = true;  // feedback lane at 65536 -> wrap
    EXPECT_THROW((void)SessionEndpoint(std::move(config)), PreconditionError);
  }
  {
    SessionConfig config = clean_config();
    config.port_base = 65532;  // shares 65532..65534, feedback 65535
    config.reliability.enabled = true;
    EXPECT_NO_THROW((void)SessionEndpoint(std::move(config)));
  }
}

TEST(Session, PortBaseFromEnvParsesAndFallsBack) {
  ASSERT_EQ(::unsetenv("MCSS_LIVE_PORT_BASE"), 0);
  EXPECT_EQ(session::port_base_from_env(0), 0);
  EXPECT_EQ(session::port_base_from_env(4000), 4000);
  ASSERT_EQ(::setenv("MCSS_LIVE_PORT_BASE", "23456", 1), 0);
  EXPECT_EQ(session::port_base_from_env(0), 23456);
  ASSERT_EQ(::setenv("MCSS_LIVE_PORT_BASE", "not-a-port", 1), 0);
  EXPECT_EQ(session::port_base_from_env(4000), 4000);
  ASSERT_EQ(::setenv("MCSS_LIVE_PORT_BASE", "70000", 1), 0);
  EXPECT_EQ(session::port_base_from_env(4000), 4000);
  ASSERT_EQ(::unsetenv("MCSS_LIVE_PORT_BASE"), 0);
}

TEST(Session, InjectedEagainBackpressureDoesNotWedgeTheChannel) {
  SessionConfig config = clean_config(3, 50e6);
  config.limits.max_queue_packets = 64;
  SessionEndpoint ep(std::move(config));
  std::size_t delivered = 0;
  ep.set_deliver([&](std::uint32_t, std::uint64_t, std::vector<std::uint8_t>) {
    ++delivered;
  });
  const std::uint32_t cid = open_one_flow(ep);
  for (std::size_t i = 0; i < ep.num_channels(); ++i) {
    ep.channel(i).tx_socket().inject_wouldblock(3);
  }
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(ep.send(cid, pattern_payload(100, 0x33)));
  }
  ASSERT_TRUE(run_until(ep, [&] { return delivered == 20; }, 5000));
  std::uint64_t wouldblock = 0;
  for (std::size_t i = 0; i < ep.num_channels(); ++i) {
    wouldblock += ep.channel(i).stats().send_wouldblock;
    EXPECT_FALSE(ep.channel(i).wants_write());
  }
  EXPECT_GT(wouldblock, 0u);
}

TEST(Session, KeyedEndpointSurvivesAMalformedDatagramStorm) {
  // The storm: junk bytes, and well-formed frames carrying the flow's
  // connection id but tagged under the wrong key, fired at every RX port
  // while legitimate traffic flows.
  const crypto::SipHashKey good_key{1, 2,  3,  4,  5,  6,  7,  8,
                                    9, 10, 11, 12, 13, 14, 15, 16};
  const crypto::SipHashKey bad_key{16, 15, 14, 13, 12, 11, 10, 9,
                                   8,  7,  6,  5,  4,  3,  2,  1};
  SessionConfig config = two_channel_config(100e6);
  config.auth_key = good_key;
  config.limits.max_queue_packets = 64;
  SessionEndpoint ep(std::move(config));
  std::size_t delivered = 0;
  ep.set_deliver([&](std::uint32_t, std::uint64_t, std::vector<std::uint8_t>) {
    ++delivered;
  });
  const std::uint32_t cid = open_one_flow(ep);

  std::vector<transport::UdpSocket> attackers;
  for (std::size_t i = 0; i < ep.num_channels(); ++i) {
    transport::UdpSocket s = transport::UdpSocket::bound_loopback(0);
    s.connect_loopback(ep.channel(i).rx_port());
    attackers.push_back(std::move(s));
  }
  proto::ShareFrame forged;
  forged.packet_id = 7777;
  forged.k = 2;
  forged.share_index = 1;
  forged.connection_id = cid;
  forged.payload = std::vector<std::uint8_t>(32, 0xEE);
  const auto forged_bytes = proto::encode(forged, &bad_key);
  Rng rng(1234);

  for (int round = 0; round < 10; ++round) {
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(ep.send(cid, pattern_payload(96, 0x11)));
    }
    for (auto& attacker : attackers) {
      std::vector<std::uint8_t> junk(48);
      rng.fill(junk);
      ASSERT_EQ(test::send_one(attacker, junk),
                transport::UdpSocket::IoResult::Ok);
      ASSERT_EQ(test::send_one(attacker, forged_bytes),
                transport::UdpSocket::IoResult::Ok);
    }
    ep.run_for(10'000'000);
  }
  ASSERT_TRUE(run_until(ep, [&] { return delivered >= 30; }, 5000));

  EXPECT_EQ(delivered, 30u);
  EXPECT_EQ(ep.flow_receiver(cid)->stats().packets_delivered, 30u);
  EXPECT_GT(ep.stats().frames_undecodable, 0u)
      << "junk datagrams must be counted";
  EXPECT_GT(ep.stats().frames_auth_failed, 0u)
      << "wrong-key frames must be counted";
  EXPECT_EQ(ep.flow_receiver(cid)->stats().auth_failures, 0u)
      << "forgeries never reach the flow";
}

TEST(Session, SeededImpairedRunMatchesConfiguredLossAndDelay) {
  // Five impaired channels in the Section VI style: diverse rates, loss,
  // and delay. Measured per-channel loss must track the Bernoulli
  // parameter; end-to-end delay must be bounded by the channel delays.
  const double rates_mbps[5] = {20, 20, 40, 40, 80};
  const double losses[5] = {0.05, 0.10, 0.02, 0.08, 0.0};
  const std::int64_t delays_ns[5] = {2'000'000, 4'000'000, 6'000'000,
                                     8'000'000, 10'000'000};
  SessionConfig config;
  for (int i = 0; i < 5; ++i) {
    net::ChannelConfig ch;
    ch.rate_bps = rates_mbps[i] * 1e6;
    ch.loss = losses[i];
    ch.delay = delays_ns[i];
    config.channels.push_back({ch, "impaired" + std::to_string(i)});
  }
  config.seed = 77;
  config.limits.max_queue_packets = 1024;
  config.limits.per_flow_memory_bytes = 8u << 20;
  SessionEndpoint ep(std::move(config));
  const std::uint32_t cid = open_one_flow(ep);
  // Packet ids are dense from 1 in send order, so accepted send i is
  // packet i + 1; its delay runs from send() to delivery.
  std::vector<std::int64_t> sent_ns;
  PercentileTracker delay;
  std::size_t delivered = 0;
  ep.set_deliver([&](std::uint32_t, std::uint64_t id,
                     std::vector<std::uint8_t>) {
    ++delivered;
    delay.add(static_cast<double>(ep.now_ns() - sent_ns[id - 1]) / 1e9);
  });

  // Enough packets that even the least-preferred channel decides a few
  // hundred frames — at n >= 200 draws, the 0.06 tolerance sits beyond
  // 3 sigma of a Bernoulli(0.10) estimate.
  const int kPackets = 600;
  for (int i = 0; i < kPackets; ++i) {
    sent_ns.push_back(ep.now_ns());
    ASSERT_TRUE(ep.send(cid, pattern_payload(256, 0x77)));
  }
  // A few packets may legitimately lose > m - k shares, so do not wait
  // for a full house — settle for all-but-a-handful, then drain.
  run_until(ep, [&] {
    return delivered + 15 >= static_cast<std::size_t>(kPackets);
  }, 6000);
  ep.run_for(30'000'000);  // let the last delayed shares land

  // k=2-of-m=3 over <=10% lossy channels: requiring >=90% end-to-end
  // delivery leaves a wide margin (the expected failure rate is <1%).
  EXPECT_GE(delivered, static_cast<std::size_t>(kPackets * 9 / 10));

  for (std::size_t i = 0; i < ep.num_channels(); ++i) {
    const auto& s = ep.channel(i).impair_stats();
    const std::uint64_t decided = s.frames_dropped_loss + s.frames_delivered;
    if (decided < 200) continue;  // too few samples to judge
    const double measured =
        static_cast<double>(s.frames_dropped_loss) / static_cast<double>(decided);
    EXPECT_NEAR(measured, losses[i], 0.06) << "channel " << i;
  }

  ASSERT_GT(delay.count(), 0u);
  // A packet needs k=2 shares, so its delay is at least the second-share
  // channel delay; the fastest pair is 2 ms + 4 ms -> >= ~2 ms. Loopback
  // scheduling noise and the wait in the send queue (all 600 packets are
  // offered at once, about 20 ms of channel time) only add. Upper bound:
  // slowest channel plus ample pacing slack.
  EXPECT_GE(delay.percentile(10.0), 0.0015);
  EXPECT_LE(delay.median(), 0.060);
}

TEST(Session, TinyKernelBuffersDoNotWedgeTheLoop) {
  SessionConfig config = two_channel_config(200e6);
  config.limits.max_queue_packets = 512;
  SessionEndpoint ep(std::move(config));
  std::size_t delivered = 0;
  ep.set_deliver([&](std::uint32_t, std::uint64_t, std::vector<std::uint8_t>) {
    ++delivered;
  });
  const std::uint32_t cid = open_one_flow(ep);
  for (std::size_t i = 0; i < ep.num_channels(); ++i) {
    // The kernel clamps these to its floor (~2 KB), still small enough to
    // pressure a burst of coalesced datagrams.
    ep.channel(i).tx_socket().set_send_buffer(1);
    ep.channel(i).rx_socket().set_recv_buffer(1);
  }
  const int kPackets = 200;
  for (int i = 0; i < kPackets; ++i) {
    ASSERT_TRUE(ep.send(cid, pattern_payload(512, 0x9C)));
  }
  // Wait for what the test checks, not for a delivery share the tiny
  // receive buffers may never allow: every packet dispatched, the send
  // queue empty, and every channel flushed (its serializer drained, the
  // channels have no delay, and nothing parked behind the kernel buffer).
  const auto flushed = [&](std::size_t i) {
    const auto& is = ep.channel(i).impair_stats();
    return is.frames_dropped_loss + is.frames_delivered -
                   is.frames_duplicated == is.frames_queued &&
           !ep.channel(i).wants_write();
  };
  ASSERT_TRUE(run_until(ep, [&] {
    if (ep.flow_sender_stats(cid)->packets_sent !=
            static_cast<std::uint64_t>(kPackets) ||
        ep.flow_queued_packets(cid) != 0) {
      return false;
    }
    for (std::size_t i = 0; i < ep.num_channels(); ++i) {
      if (!flushed(i)) return false;
    }
    return true;
  }, 3000));
  ep.run_for(20'000'000);

  // Datagrams may be dropped at the tiny receive buffer (that is loss,
  // which the protocol absorbs); the loop itself must make progress and
  // the books must balance.
  EXPECT_EQ(ep.flow_sender_stats(cid)->packets_sent,
            static_cast<std::uint64_t>(kPackets));
  EXPECT_GT(delivered, 0u);
  EXPECT_LE(delivered, static_cast<std::size_t>(kPackets));
  for (std::size_t i = 0; i < ep.num_channels(); ++i) {
    EXPECT_EQ(ep.channel(i).stats().send_errors, 0u) << "channel " << i;
  }
}

TEST(Session, UnbatchedModeStillDelivers) {
  // send_batch = recv_batch = 1: one datagram per sendmmsg and one
  // entry per recvmmsg, bench/live_eval's before/after baseline.
  SessionConfig config = two_channel_config(100e6);
  config.send_batch = 1;
  config.recv_batch = 1;
  config.limits.max_queue_packets = 64;
  SessionEndpoint ep(std::move(config));
  std::size_t delivered = 0;
  ep.set_deliver([&](std::uint32_t, std::uint64_t, std::vector<std::uint8_t>) {
    ++delivered;
  });
  const std::uint32_t cid = open_one_flow(ep);
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(ep.send(cid, pattern_payload(96, 0x2F)));
  }
  ASSERT_TRUE(run_until(ep, [&] { return delivered == 20; }, 3000));
  EXPECT_EQ(ep.stats().frames_undecodable, 0u);
}

TEST(Session, SyscallAndPoolAccountingIsPopulated) {
  SessionConfig config = two_channel_config(100e6);
  config.limits.max_queue_packets = 64;
  SessionEndpoint ep(std::move(config));
  std::size_t delivered = 0;
  ep.set_deliver([&](std::uint32_t, std::uint64_t, std::vector<std::uint8_t>) {
    ++delivered;
  });
  const std::uint32_t cid = open_one_flow(ep);
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(ep.send(cid, pattern_payload(128, 0x3C)));
  }
  ASSERT_TRUE(run_until(ep, [&] { return delivered == 30; }, 3000));

  EXPECT_GT(ep.poller().wait_calls(), 0u);
  std::uint64_t socket_calls = 0;
  std::uint64_t datagrams = 0;
  for (std::size_t i = 0; i < ep.num_channels(); ++i) {
    socket_calls +=
        ep.channel(i).syscalls_send() + ep.channel(i).syscalls_recv();
    datagrams += ep.channel(i).stats().datagrams_sent;
  }
  EXPECT_GT(socket_calls, 0u);
  EXPECT_GT(datagrams, 0u);
  // Every TX frame was encoded straight into the shared arena.
  EXPECT_GT(ep.pool().stats().acquired, 0u);
  EXPECT_EQ(ep.pool().stats().exhausted, 0u) << "auto-sizing left slack";
  EXPECT_GT(ep.pool().stats().high_water, 0u);
}

TEST(Session, ReliabilityRecoversLossesOverRealSockets) {
  // End-to-end ARQ over real UDP loopback: lossy forward channels with
  // zero share slack (kappa = mu = 2), a lossy feedback channel, and the
  // flow's RetransmitManager repairing the difference.
  SessionConfig config = clean_config(3, 50e6);
  for (auto& spec : config.channels) spec.config.loss = 0.05;
  config.kappa = 2.0;
  config.mu = 2.0;
  config.seed = 61;
  config.limits.max_queue_packets = 64;
  config.reliability.enabled = true;
  config.reliability.retransmit.max_retransmits = 6;
  config.reliability.retransmit.initial_rto_ns = 60'000'000;
  config.reliability.retransmit.min_rto_ns = 30'000'000;
  config.reliability.report_interval_ns = 10'000'000;
  config.reliability.feedback_channel.loss = 0.05;
  SessionEndpoint ep(std::move(config));

  std::map<std::uint64_t, std::vector<std::uint8_t>> delivered;
  ep.set_deliver([&](std::uint32_t, std::uint64_t id,
                     std::vector<std::uint8_t> payload) {
    delivered[id] = std::move(payload);
  });
  const std::uint32_t cid = open_one_flow(ep);
  Rng rng(7);
  constexpr std::size_t kPackets = 60;
  std::vector<std::vector<std::uint8_t>> payloads;
  for (std::size_t i = 0; i < kPackets; ++i) {
    std::vector<std::uint8_t> payload(256);
    rng.fill(payload);
    payloads.push_back(payload);
    ASSERT_TRUE(ep.send(cid, std::move(payload)));
  }
  // With 5% loss per share and no slack, ~10% of packets need a repair;
  // six retransmission rounds make residual failure negligible.
  ASSERT_TRUE(run_until(ep, [&] { return delivered.size() == kPackets; },
                        15000));
  for (std::size_t i = 0; i < kPackets; ++i) {
    EXPECT_EQ(delivered[i + 1], payloads[i]) << "packet " << i + 1;
  }
  const feedback::RetransmitStats& stats = ep.flow_manager(cid)->stats();
  EXPECT_GT(ep.stats().reports_sent, 0u);
  EXPECT_GT(stats.reports_received, 0u);
  EXPECT_GT(stats.packets_acked, 0u);
  // Realized exposure can only widen relative to the initial dispatch.
  EXPECT_GE(stats.exposure_channel_sum, stats.initial_channel_sum);
}

TEST(Session, DefaultFeedbackLaneCarriesACoalescedReportBurst) {
  // 278 flows each deliver one packet inside the first 20 ms report
  // interval, so the tick offers all 278 reports, coalesced into
  // datagrams of up to 1400 B, to the feedback lane at once. 278 is the
  // smallest population whose burst overflowed the old default lane
  // (100 Mbps, 64 KiB queue): the dropped datagram left its flows'
  // packets unacked until their 200 ms RTO retransmitted them.
  constexpr std::size_t kFlows = 278;
  SessionConfig config = clean_config(3, 2e9);
  config.reliability.enabled = true;
  config.limits.max_flows = kFlows;
  SessionEndpoint ep(std::move(config));
  std::size_t delivered = 0;
  ep.set_deliver([&](std::uint32_t, std::uint64_t, std::vector<std::uint8_t>) {
    ++delivered;
  });
  FlowParams params;
  params.rate_pps = 2.0;
  params.payload_bytes = 64;
  std::vector<std::uint32_t> cids;
  for (std::size_t i = 0; i < kFlows; ++i) {
    const auto cid = ep.open_flow(params);
    ASSERT_TRUE(cid.has_value());
    cids.push_back(*cid);
    ASSERT_TRUE(ep.send(*cid, pattern_payload(64, static_cast<std::uint8_t>(i))));
  }
  ASSERT_TRUE(run_until(ep, [&] { return delivered == kFlows; }));
  ep.run_for(300'000'000);  // the report tick, then past every RTO

  EXPECT_EQ(ep.stats().reports_dropped_at_channel, 0u);
  std::uint64_t retransmits = 0;
  for (const std::uint32_t cid : cids) {
    retransmits += ep.flow_sender_stats(cid)->packets_retransmitted;
  }
  EXPECT_EQ(retransmits, 0u);
}

// ----------------------------------------------------------- virtual time
//
// The same endpoint on the timeline's clock: no sockets, datagrams
// staged between a channel's flush and the loop's receive step. These
// are the ARQ's end-to-end tests, and the oracle that the two clocks
// make the same decisions.

const crypto::SipHashKey kReportKey{1, 2,  3,  4,  5,  6,  7,  8,
                                    9, 10, 11, 12, 13, 14, 15, 16};

/// `n` channels of 20 Mbps, `loss` and 1 ms, kappa = mu = 2, and the ARQ
/// the reliability bench runs: six retransmissions, RTO 100 ms (30 ms
/// floor), a report every 20 ms and one extra share per repair.
SessionConfig virtual_arq_config(int n, double loss,
                                 net::ChannelConfig feedback,
                                 std::uint64_t seed) {
  SessionConfig config;
  config.virtual_time = true;
  config.seed = seed;
  for (int i = 0; i < n; ++i) {
    config.channels.push_back({net::ChannelConfig{.rate_bps = 20e6,
                                                  .loss = loss,
                                                  .delay = net::from_millis(1)},
                               "ch" + std::to_string(i)});
  }
  config.kappa = 2.0;
  config.mu = 2.0;
  config.reliability.enabled = true;
  config.reliability.retransmit.max_retransmits = 6;
  config.reliability.retransmit.initial_rto_ns = 100'000'000;
  config.reliability.retransmit.min_rto_ns = 30'000'000;
  config.reliability.report_interval_ns = 20'000'000;
  config.reliability.retransmit_extra = 1;
  config.reliability.feedback_channel = feedback;
  return config;
}

/// One emission as set_on_emit saw it.
struct Emit {
  std::uint64_t id = 0;
  std::uint8_t generation = 0;
  int k = 0;
  std::vector<int> channels;
  friend bool operator==(const Emit&, const Emit&) = default;
};

std::string describe(const Emit& e) {
  std::string out = "(id " + std::to_string(e.id) + ", generation " +
                    std::to_string(e.generation) + ", k " +
                    std::to_string(e.k) + ", channels {";
  for (std::size_t i = 0; i < e.channels.size(); ++i) {
    out += (i != 0 ? "," : "") + std::to_string(e.channels[i]);
  }
  return out + "})";
}

/// Every emission of one endpoint plus, per packet, the mask of its
/// first one and the union over all of them.
struct EmitLog {
  struct Masks {
    std::uint32_t initial = 0;
    std::uint32_t exposure = 0;
    int retransmits = 0;
  };
  std::vector<Emit> emits;
  std::map<std::uint64_t, Masks> packets;
  std::uint64_t shares_retransmitted = 0;

  explicit EmitLog(SessionEndpoint& ep) {
    ep.set_on_emit([this](std::uint32_t, std::uint64_t id,
                          std::uint8_t generation, int k,
                          std::span<const int> channels) {
      emits.push_back({id, generation, k, {channels.begin(), channels.end()}});
      std::uint32_t mask = 0;
      for (const int c : channels) mask |= std::uint32_t{1} << c;
      Masks& m = packets[id];
      if (generation == 0) {
        m.initial = mask;
      } else {
        ++m.retransmits;
        shares_retransmitted += channels.size();
      }
      m.exposure |= mask;
    });
  }
};

/// Send `count` copies of `payload` on `cid`, one every `interval_ns`
/// from time 0, then run the endpoint to `end_ns`.
void send_paced(SessionEndpoint& ep, std::uint32_t cid, int count,
                std::int64_t interval_ns,
                const std::vector<std::uint8_t>& payload,
                std::int64_t end_ns) {
  for (int i = 0; i < count; ++i) {
    EXPECT_TRUE(ep.send(cid, payload)) << "packet " << i;
    ep.run_for(interval_ns);
  }
  ep.run_for(std::max<std::int64_t>(end_ns - ep.now_ns(), 0));
}

TEST(VirtualTime, RunForEndsAtItsDeadlineAndOpensNoSocket) {
  SessionConfig config = virtual_arq_config(2, 0.0, {}, 3);
  SessionEndpoint ep(std::move(config));
  EXPECT_EQ(ep.channel(0).rx_fd(), -1);
  EXPECT_EQ(ep.channel(0).tx_fd(), -1);
  ep.run_for(7'500'000'001);
  EXPECT_EQ(ep.now_ns(), 7'500'000'001);
  ep.run_for(0);
  EXPECT_EQ(ep.now_ns(), 7'500'000'001);
  EXPECT_EQ(ep.poller().wait_calls(), 0u);

  SessionConfig telemetry = virtual_arq_config(2, 0.0, {}, 3);
  telemetry.telemetry.enabled = true;
  EXPECT_THROW(SessionEndpoint{std::move(telemetry)}, PreconditionError);
}

TEST(VirtualTimeReliability, ArqRecoversPacketsBestEffortLoses) {
  // kappa = mu = 2 on 5%-lossy channels leaves zero share slack: ~9.7%
  // of packets die without ARQ. The endpoint's ARQ must recover
  // essentially all of them within the run's drain time.
  constexpr int kCount = 300;
  SessionEndpoint ep(virtual_arq_config(3, 0.05,
                                        {.rate_bps = 10e6, .loss = 0.1}, 21));
  EmitLog log(ep);
  std::map<std::uint64_t, std::vector<std::uint8_t>> delivered;
  ep.set_deliver([&](std::uint32_t, std::uint64_t id,
                     std::vector<std::uint8_t> payload) {
    delivered[id] = std::move(payload);
  });
  const std::uint32_t cid = open_one_flow(ep);
  send_paced(ep, cid, kCount, 1'000'000, {1, 2, 3, 4}, 4'000'000'000);

  EXPECT_GE(delivered.size(), static_cast<std::size_t>(kCount) - 1)
      << "ARQ should deliver >= 99.9%";
  const auto& stats = ep.flow_manager(cid)->stats();
  EXPECT_GT(stats.retransmits, 0u);
  EXPECT_GT(stats.packets_acked, 0u);
  EXPECT_GT(stats.rtt_samples, 0u);
  EXPECT_GT(ep.stats().reports_sent, 0u);
  // Retransmissions widen realized exposure beyond the initial plan.
  EXPECT_GE(stats.exposure_channel_sum, stats.initial_channel_sum);
  // Each retransmission is one re-split, counted with its shares.
  const proto::SenderStats& sender = *ep.flow_sender_stats(cid);
  EXPECT_EQ(sender.packets_retransmitted, stats.retransmits);
  EXPECT_EQ(sender.shares_retransmitted, log.shares_retransmitted);
}

TEST(VirtualTimeReliability, ExposureNeverShrinksAndCoversInitial) {
  SessionEndpoint ep(virtual_arq_config(3, 0.08, {.rate_bps = 10e6}, 33));
  EmitLog log(ep);
  const std::uint32_t cid = open_one_flow(ep);
  send_paced(ep, cid, 200, 1'000'000, {5, 6, 7}, 3'000'000'000);

  ASSERT_EQ(log.packets.size(), 200u);
  std::uint64_t initial_sum = 0;
  std::uint64_t exposure_sum = 0;
  for (const auto& [id, p] : log.packets) {
    EXPECT_EQ(p.exposure & p.initial, p.initial) << "packet " << id;
    if (p.retransmits == 0) {
      EXPECT_EQ(p.exposure, p.initial) << "packet " << id;
    }
    initial_sum += static_cast<std::uint64_t>(std::popcount(p.initial));
    exposure_sum += static_cast<std::uint64_t>(std::popcount(p.exposure));
  }
  // The manager's accounting matches the wire: closed packets in its
  // sums, the cutoff's still-open ones record by record.
  const feedback::RetransmitManager& manager = *ep.flow_manager(cid);
  EXPECT_EQ(manager.stats().packets_tracked, 200u);
  std::uint64_t open_initial = 0;
  std::uint64_t open_exposure = 0;
  for (const feedback::ClosedPacket& open : manager.snapshot_open()) {
    const EmitLog::Masks& p = log.packets.at(open.packet_id);
    EXPECT_EQ(open.initial_mask, p.initial);
    EXPECT_EQ(open.exposure_mask, p.exposure);
    EXPECT_EQ(open.retransmits, p.retransmits);
    open_initial += static_cast<std::uint64_t>(std::popcount(p.initial));
    open_exposure += static_cast<std::uint64_t>(std::popcount(p.exposure));
  }
  EXPECT_EQ(manager.stats().initial_channel_sum + open_initial, initial_sum);
  EXPECT_EQ(manager.stats().exposure_channel_sum + open_exposure,
            exposure_sum);
}

TEST(VirtualTimeReliability, SmallSackWindowSendsEarlyReports) {
  // A one-word SACK window covers 64 ids, and a report is due once 32
  // deliveries accumulated. 96 packets delivered within the first 10 ms
  // must therefore be reported (and acked) before the first periodic
  // report at 20 ms.
  SessionConfig config = virtual_arq_config(3, 0.0, {.rate_bps = 10e6}, 17);
  config.reliability.sack_window_words = 1;
  SessionEndpoint ep(std::move(config));
  std::size_t delivered = 0;
  ep.set_deliver([&](std::uint32_t, std::uint64_t, std::vector<std::uint8_t>) {
    ++delivered;
  });
  const std::uint32_t cid = open_one_flow(ep);
  send_paced(ep, cid, 96, 50'000, {1, 2, 3, 4}, 15'000'000);
  EXPECT_EQ(delivered, 96u);
  EXPECT_EQ(ep.stats().reports_sent, 3u);
  EXPECT_EQ(ep.flow_manager(cid)->stats().packets_acked, 96u);
  EXPECT_EQ(ep.flow_manager(cid)->outstanding(), 0u);
}

TEST(VirtualTimeReliability, DeterministicGivenSeed) {
  const auto run = [](std::uint64_t seed) {
    SessionEndpoint ep(virtual_arq_config(
        3, 0.05, {.rate_bps = 10e6, .loss = 0.1}, seed));
    std::size_t delivered = 0;
    ep.set_deliver([&](std::uint32_t, std::uint64_t,
                       std::vector<std::uint8_t>) { ++delivered; });
    const std::uint32_t cid = open_one_flow(ep);
    send_paced(ep, cid, 100, 1'000'000, {1, 2}, 2'000'000'000);
    const auto& stats = ep.flow_manager(cid)->stats();
    return std::tuple{delivered, stats.retransmits, stats.packets_acked,
                      stats.exposure_channel_sum};
  };
  EXPECT_EQ(run(42), run(42));
  EXPECT_NE(run(42), run(43));  // the loss draws actually differ
}

TEST(VirtualTimeReliability, AuthenticatedReportsRejectForgeries) {
  SessionConfig config = virtual_arq_config(2, 0.0, {.rate_bps = 10e6}, 9);
  config.reliability.report_auth_key = kReportKey;
  SessionEndpoint ep(std::move(config));
  std::size_t delivered = 0;
  ep.set_deliver([&](std::uint32_t, std::uint64_t, std::vector<std::uint8_t>) {
    ++delivered;
  });
  const std::uint32_t cid = open_one_flow(ep);
  ASSERT_TRUE(ep.send(cid, {1, 2, 3}));
  // A forged (unkeyed) report fed to the feedback demux must be
  // rejected; the genuine keyed reports keep flowing.
  ep.run_for(5'000'000);
  feedback::ReceiverReport forged;
  forged.seq = 99;
  forged.sack_base = 1;
  forged.sack = {1};
  forged.connection_id = cid;
  ep.on_feedback_datagram(feedback::encode_report(forged), ep.now_ns());
  ep.run_for(495'000'000);
  EXPECT_EQ(ep.stats().reports_auth_failed, 1u);
  EXPECT_GT(ep.flow_manager(cid)->stats().reports_received, 0u);
  EXPECT_EQ(delivered, 1u);
}

TEST(VirtualTimeReliability, KeyedLinkCountsForgedFramesUndecodable) {
  // A share frame tagged under the wrong key and a frame that is no
  // frame at all arrive on channel 0 of a keyed endpoint: the demux
  // counts one auth failure and one undecodable frame, neither reaches
  // the flow's receiver, and the genuine packet is delivered.
  SessionConfig config = virtual_arq_config(2, 0.0, {.rate_bps = 10e6}, 9);
  config.auth_key = kReportKey;
  SessionEndpoint ep(std::move(config));
  std::size_t delivered = 0;
  ep.set_deliver([&](std::uint32_t, std::uint64_t, std::vector<std::uint8_t>) {
    ++delivered;
  });
  const std::uint32_t cid = open_one_flow(ep);
  ASSERT_TRUE(ep.send(cid, {1, 2, 3}));
  ep.run_for(5'000'000);
  proto::ShareFrame forged;
  forged.packet_id = 7;
  forged.k = 2;
  forged.share_index = 1;
  forged.payload = {9, 9, 9};
  const crypto::SipHashKey wrong{};
  EXPECT_TRUE(ep.channel(0).try_send(
      std::span<const std::uint8_t>(proto::encode(forged, &wrong)),
      ep.now_ns()));
  const std::vector<std::uint8_t> garbage{0x52, 0x4D, 1, 2};
  EXPECT_TRUE(ep.channel(0).try_send(std::span<const std::uint8_t>(garbage),
                                     ep.now_ns()));
  ep.run_for(495'000'000);
  const session::SessionStats& st = ep.stats();
  EXPECT_EQ(st.frames_auth_failed, 1u);
  EXPECT_EQ(st.frames_undecodable, 1u);
  EXPECT_EQ(st.frames_demuxed + st.frames_auth_failed + st.frames_undecodable,
            4u);
  const proto::Receiver& receiver = *ep.flow_receiver(cid);
  EXPECT_EQ(receiver.stats().frames_received, 2u);
  EXPECT_EQ(receiver.stats().packets_delivered, 1u);
  EXPECT_EQ(delivered, 1u);
}

/// What one two-clock run emitted and delivered.
struct TwoClockRun {
  std::vector<Emit> emits;
  std::set<std::uint64_t> delivered;
  std::uint64_t sent = 0;
};

/// One seeded single-flow workload: 120 slices of 1 ms, each opening
/// with a burst of 1-3 packets of 16-415 bytes, over live_eval's
/// fastpath channels (1 Tbps, no loss, no delay: the impairment stays
/// out of the way), reliability on with an RTO no run reaches. Then it
/// drains until every packet is delivered and acked (at most 5 s).
TwoClockRun run_two_clock_workload(bool virtual_time) {
  SessionConfig config;
  config.virtual_time = virtual_time;
  config.seed = 2024;
  for (int i = 0; i < 4; ++i) {
    config.channels.push_back(
        {net::ChannelConfig{.rate_bps = 1e12,
                            .queue_capacity_bytes = 4u << 20},
         "fast" + std::to_string(i)});
  }
  config.kappa = 1.6;
  config.mu = 2.7;
  config.reliability.enabled = true;
  config.reliability.retransmit.initial_rto_ns = 10'000'000'000;
  config.reliability.retransmit.min_rto_ns = 10'000'000'000;
  config.reliability.retransmit.max_rto_ns = 10'000'000'000;
  SessionEndpoint ep(std::move(config));
  TwoClockRun run;
  EmitLog log(ep);
  ep.set_deliver([&](std::uint32_t, std::uint64_t id,
                     std::vector<std::uint8_t>) { run.delivered.insert(id); });
  const std::uint32_t cid = open_one_flow(ep);
  Rng rng(77);
  for (int slice = 0; slice < 120; ++slice) {
    for (std::uint64_t b = 1 + rng.uniform_int(3); b > 0; --b) {
      std::vector<std::uint8_t> payload(16 + rng.uniform_int(400));
      rng.fill(payload);
      EXPECT_TRUE(ep.send(cid, std::move(payload)));
      ++run.sent;
    }
    ep.run_for(1'000'000);
  }
  const std::int64_t budget = ep.now_ns() + 5'000'000'000;
  while ((run.delivered.size() < run.sent ||
          ep.flow_manager(cid)->outstanding() > 0) &&
         ep.now_ns() < budget) {
    ep.run_for(1'000'000);
  }
  EXPECT_EQ(ep.flow_manager(cid)->outstanding(), 0u);
  run.emits = std::move(log.emits);
  return run;
}

TEST(VirtualTime, MatchesLoopbackDecisionForDecision) {
  // One code base on two clocks: the same seeded workload through the
  // same endpoint, once on virtual time and once over loopback UDP,
  // makes the same (id, k, channel set) decisions and delivers the same
  // packets.
  const TwoClockRun virt = run_two_clock_workload(true);
  const TwoClockRun live = run_two_clock_workload(false);
  ASSERT_EQ(virt.sent, live.sent);
  const std::size_t common = std::min(virt.emits.size(), live.emits.size());
  for (std::size_t i = 0; i < common; ++i) {
    ASSERT_EQ(virt.emits[i], live.emits[i])
        << "decision " << i << " differs: virtual " << describe(virt.emits[i])
        << ", loopback " << describe(live.emits[i]);
  }
  ASSERT_EQ(virt.emits.size(), live.emits.size())
      << "first unmatched decision: "
      << describe(virt.emits.size() > common ? virt.emits[common]
                                             : live.emits[common]);
  EXPECT_EQ(virt.emits.size(), virt.sent) << "no retransmission expected";
  EXPECT_EQ(virt.delivered, live.delivered);
  EXPECT_EQ(virt.delivered.size(), virt.sent);
  // The workload exercises more than the lowest-index channel sets.
  std::set<std::vector<int>> sets;
  for (const Emit& e : virt.emits) sets.insert(e.channels);
  EXPECT_GT(sets.size(), 3u);
}

TEST(VirtualTime, TwoRunsWithOneSeedAreIdentical) {
  // Lossy channels and a lossy feedback lane, so the run retransmits:
  // every emission, every delivery and its virtual time, and the final
  // counters repeat exactly.
  struct Run {
    std::vector<Emit> emits;
    std::vector<std::pair<std::uint64_t, std::int64_t>> deliveries;
    std::tuple<std::uint64_t, std::uint64_t, std::uint64_t, std::uint64_t>
        counters;
  };
  const auto run = [] {
    SessionEndpoint ep(virtual_arq_config(
        3, 0.05, {.rate_bps = 10e6, .loss = 0.1}, 5));
    Run r;
    EmitLog log(ep);
    ep.set_deliver([&](std::uint32_t, std::uint64_t id,
                       std::vector<std::uint8_t>) {
      r.deliveries.emplace_back(id, ep.now_ns());
    });
    const std::uint32_t cid = open_one_flow(ep);
    send_paced(ep, cid, 150, 700'000, {1, 2, 3, 4, 5, 6}, 1'500'000'000);
    r.emits = std::move(log.emits);
    r.counters = {ep.stats().reports_sent, ep.stats().reports_demuxed,
                  ep.flow_manager(cid)->stats().retransmits,
                  ep.stats().frames_demuxed};
    return r;
  };
  const Run a = run();
  const Run b = run();
  EXPECT_GT(std::get<2>(a.counters), 0u) << "the run should retransmit";
  ASSERT_EQ(a.emits.size(), b.emits.size());
  for (std::size_t i = 0; i < a.emits.size(); ++i) {
    ASSERT_EQ(a.emits[i], b.emits[i]) << "decision " << i;
  }
  EXPECT_EQ(a.deliveries, b.deliveries);
  EXPECT_EQ(a.counters, b.counters);
}

}  // namespace
}  // namespace mcss
