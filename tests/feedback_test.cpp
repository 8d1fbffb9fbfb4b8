// Tests for the reliability subsystem (src/feedback): the report wire
// format, the receiver-side ReportBuilder, the RetransmitManager (RTO,
// Karn, backoff budget, replay, exposure accounting, one timer per
// outstanding packet), the per-flow Arq (RTO timers, retransmit order,
// reports), the report-datagram path through the session endpoint's
// demux, and the proactive redundancy planner. The ARQ end to end runs
// on virtual-time session endpoints in session_test.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include "feedback/arq.hpp"
#include "feedback/redundancy.hpp"
#include "feedback/report.hpp"
#include "feedback/report_builder.hpp"
#include "feedback/retransmit.hpp"
#include "net/sim_channel.hpp"
#include "net/simulator.hpp"
#include "protocol/receiver.hpp"
#include "protocol/scheduler.hpp"
#include "protocol/sender.hpp"
#include "protocol/wire.hpp"
#include "report_target.hpp"
#include "util/ensure.hpp"
#include "util/id_window.hpp"
#include "util/rng.hpp"

namespace mcss::feedback {
namespace {

const crypto::SipHashKey kKey{1, 2,  3,  4,  5,  6,  7,  8,
                              9, 10, 11, 12, 13, 14, 15, 16};

ReceiverReport sample_report() {
  ReceiverReport r;
  r.seq = 7;
  r.receiver_time_ns = 123'456'789;
  r.packets_delivered = 42;
  r.sack_base = 17;
  r.sack = {0xDEADBEEFCAFEF00DULL, 0x1ULL};
  r.delays = {{17, 1'000'000}, {18, 2'000'000}};
  return r;
}

// ------------------------------------------------------------ report codec

TEST(ReportCodec, RoundtripBasic) {
  const auto r = sample_report();
  const auto bytes = encode_report(r);
  EXPECT_EQ(bytes.size(),
            kReportHeaderSize + 8 * r.sack.size() + 16 * r.delays.size());
  const auto back = decode_report(bytes);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, r);
}

TEST(ReportCodec, RoundtripMinimal) {
  ReceiverReport r;
  r.seq = 1;
  r.sack_base = 1;
  const auto back = decode_report(encode_report(r));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, r);
  EXPECT_TRUE(back->sack.empty());
  EXPECT_TRUE(back->delays.empty());
}

TEST(ReportCodec, SackAckSemantics) {
  ReceiverReport r;
  r.sack_base = 100;
  r.sack = {0b101};  // ids 100 and 102
  EXPECT_TRUE(r.acked(100));
  EXPECT_FALSE(r.acked(101));
  EXPECT_TRUE(r.acked(102));
  EXPECT_FALSE(r.acked(99));    // below the base: unknown, not negative
  EXPECT_FALSE(r.acked(164));   // beyond the window
}

TEST(ReportCodec, AuthenticatedRoundtripAndTamperRejection) {
  const auto r = sample_report();
  auto bytes = encode_report(r, &kKey);
  EXPECT_EQ(bytes.size(),
            kReportHeaderSize + 8 * r.sack.size() + 16 * r.delays.size() +
                proto::kTagSize);

  const auto back = decode_report(bytes, &kKey);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, r);

  // A keyless consumer parses the tagged report, ignoring the tag
  // (mirrors the share codec's convention).
  EXPECT_TRUE(decode_report(bytes).has_value());

  // One flipped bit anywhere in the body fails authentication.
  auto tampered = bytes;
  tampered[kReportHeaderSize + 3] ^= 0x10;
  proto::DecodeStatus status = proto::DecodeStatus::Ok;
  EXPECT_FALSE(decode_report(tampered, &kKey, &status).has_value());
  EXPECT_EQ(status, proto::DecodeStatus::AuthFailed);

  // A keyed consumer refuses unauthenticated reports (downgrade).
  const auto untagged = encode_report(r);
  EXPECT_FALSE(decode_report(untagged, &kKey, &status).has_value());
  EXPECT_EQ(status, proto::DecodeStatus::AuthFailed);
}

TEST(ReportCodec, RejectsMalformed) {
  const auto good = encode_report(sample_report());
  proto::DecodeStatus status = proto::DecodeStatus::Ok;

  // Too short for a header.
  EXPECT_FALSE(
      decode_report(std::vector<std::uint8_t>(kReportHeaderSize - 1, 0),
                    nullptr, &status)
          .has_value());
  EXPECT_EQ(status, proto::DecodeStatus::Malformed);
  // Bad magic / version.
  auto bad = good;
  bad[0] ^= 0xFF;
  EXPECT_FALSE(decode_report(bad).has_value());
  bad = good;
  bad[2] = 9;
  EXPECT_FALSE(decode_report(bad).has_value());
  // Unknown flag bits (0x01 = authenticated and 0x02 = connection id
  // are defined; 0x04 is the first reserved bit).
  bad = good;
  bad[3] = 0x04;
  EXPECT_FALSE(decode_report(bad).has_value());
  // Connection flag set without the 4 id bytes: truncated report.
  bad = good;
  bad[3] = kReportFlagConnection;
  EXPECT_FALSE(decode_report(bad).has_value());
  // Nonzero reserved byte.
  bad = good;
  bad[4] = 1;
  EXPECT_FALSE(decode_report(bad).has_value());
  // SACK word count over the wire limit.
  bad = good;
  bad[6] = 0xFF;
  bad[7] = 0xFF;
  EXPECT_FALSE(decode_report(bad).has_value());
  // Truncated body and trailing junk (strict decode).
  bad = good;
  bad.pop_back();
  EXPECT_FALSE(decode_report(bad).has_value());
  bad = good;
  bad.push_back(0);
  EXPECT_FALSE(decode_report(bad).has_value());
  // The untouched report still parses.
  EXPECT_TRUE(decode_report(good).has_value());
}

TEST(ReportCodec, VersionOneReportIsMalformed) {
  // A version 1 report: byte 4 counted its per-channel counters (16 B
  // each, after the SACK words). Version 2 carries none, and a receiver
  // of the old layout is refused outright rather than misparsed.
  auto v1 = encode_report(sample_report());
  v1[2] = 1;
  v1[4] = 1;
  v1.insert(v1.begin() + static_cast<std::ptrdiff_t>(kReportHeaderSize + 16),
            16, 0);
  proto::DecodeStatus status = proto::DecodeStatus::Ok;
  EXPECT_FALSE(decode_report(v1, nullptr, &status).has_value());
  EXPECT_EQ(status, proto::DecodeStatus::Malformed);
  EXPECT_EQ(kReportVersion, 2);
}

TEST(ReportCodec, EncodeRejectsOverWireLimits) {
  ReceiverReport r;
  r.sack.assign(kMaxSackWords + 1, 0);
  EXPECT_THROW((void)encode_report(r), PreconditionError);
  r.sack.clear();
  r.delays.assign(kMaxDelaySamples + 1, {});
  EXPECT_THROW((void)encode_report(r), PreconditionError);
}

TEST(ReportCodec, PrefixParsesCoalescedReports) {
  auto r1 = sample_report();
  ReceiverReport r2;
  r2.seq = 8;
  r2.sack_base = 1;
  std::vector<std::uint8_t> buf = encode_report(r1);
  const std::size_t first_size = buf.size();
  const auto b2 = encode_report(r2);
  buf.insert(buf.end(), b2.begin(), b2.end());

  std::size_t consumed = 0;
  auto parsed = decode_report_prefix(buf, &consumed);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, r1);
  EXPECT_EQ(consumed, first_size);
  parsed = decode_report_prefix(std::span(buf).subspan(consumed), &consumed);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, r2);

  // A malformed head consumes nothing: no resynchronization point.
  std::vector<std::uint8_t> junk(64, 0x55);
  consumed = 99;
  EXPECT_FALSE(decode_report_prefix(junk, &consumed).has_value());
  EXPECT_EQ(consumed, 0u);
}

TEST(ReportCodec, ConnectionIdRoundtrip) {
  auto r = sample_report();
  r.connection_id = 0xC0FFEE;
  const auto bytes = encode_report(r);
  EXPECT_EQ(bytes.size(), kReportHeaderSize + kReportConnectionIdSize +
                              8 * r.sack.size() + 16 * r.delays.size());
  EXPECT_EQ(bytes[3], kReportFlagConnection);
  const auto back = decode_report(bytes);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, r);

  // Authenticated: the tag covers the connection id — a forged demux
  // would let one flow's report ack another flow's packets.
  auto tagged = encode_report(r, &kKey);
  ASSERT_TRUE(decode_report(tagged, &kKey).has_value());
  tagged[kReportHeaderSize] ^= 0x01;  // first connection-id byte
  proto::DecodeStatus status = proto::DecodeStatus::Ok;
  EXPECT_FALSE(decode_report(tagged, &kKey, &status).has_value());
  EXPECT_EQ(status, proto::DecodeStatus::AuthFailed);
}

TEST(ReportCodec, ConnectionZeroIsByteIdenticalToLegacyEncoding) {
  // Single-flow reports must not change on the wire just because the
  // session layer exists: connection 0 omits the field.
  auto r = sample_report();
  ASSERT_EQ(r.connection_id, 0u);
  const auto bytes = encode_report(r);
  EXPECT_EQ(bytes[3], 0);  // no flag bits
  const auto back = decode_report(bytes);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->connection_id, 0u);
}

TEST(ReportCodec, NonCanonicalConnectionZeroRejected) {
  auto r = sample_report();
  r.connection_id = 1;
  auto bytes = encode_report(r);
  ASSERT_EQ(bytes[3], kReportFlagConnection);
  for (std::size_t i = 0; i < kReportConnectionIdSize; ++i) {
    bytes[kReportHeaderSize + i] = 0;  // id -> 0, flag still set
  }
  proto::DecodeStatus status = proto::DecodeStatus::Ok;
  EXPECT_FALSE(decode_report(bytes, nullptr, &status).has_value());
  EXPECT_EQ(status, proto::DecodeStatus::Malformed);
}

TEST(ReportCodec, RandomizedRoundtrip) {
  Rng rng(2024);
  for (int trial = 0; trial < 200; ++trial) {
    ReceiverReport r;
    r.connection_id = static_cast<std::uint32_t>(rng.uniform_int(3) == 0
                                                     ? 0
                                                     : (rng() & 0xFFFFFFFF));
    r.seq = rng();
    r.receiver_time_ns = static_cast<std::int64_t>(rng() >> 1);
    r.packets_delivered = rng();
    r.sack_base = rng();
    r.sack.resize(rng.uniform_int(40));
    for (auto& w : r.sack) w = rng();
    r.delays.resize(rng.uniform_int(11));
    for (auto& d : r.delays) {
      d = {rng(), static_cast<std::int64_t>(rng() >> 1)};
    }
    const bool keyed = rng.uniform_int(2) == 0;
    const auto bytes = encode_report(r, keyed ? &kKey : nullptr);
    const auto back = decode_report(bytes, keyed ? &kKey : nullptr);
    ASSERT_TRUE(back.has_value()) << "trial " << trial;
    EXPECT_EQ(*back, r) << "trial " << trial;
  }
}

TEST(ReportCodec, OneWayDelayDefinition) {
  EXPECT_DOUBLE_EQ(one_way_delay_seconds(1'000'000'000, 1'250'000'000), 0.25);
  // Serialization time excluded (the model's d is propagation only)...
  EXPECT_DOUBLE_EQ(one_way_delay_seconds(0, 300'000'000, 0.1), 0.2);
  // ...and clamped at zero rather than going negative.
  EXPECT_DOUBLE_EQ(one_way_delay_seconds(0, 50'000'000, 0.1), 0.0);
}

// ----------------------------------------------------------- ReportBuilder

/// A delivery as a flow's receiver and Arq see it: the receiver marks
/// its completed-id window, then the builder counts it.
void deliver(util::IdWindow& window, ReportBuilder& builder, std::uint64_t id,
             std::int64_t recv_time_ns) {
  window.mark(id);
  builder.on_delivered(id, recv_time_ns);
}

TEST(ReportBuilder, SackAndCountersAccumulate) {
  util::IdWindow window(8192);
  ReportBuilder builder({});
  deliver(window, builder, 1, 10);
  deliver(window, builder, 3, 20);

  const auto r1 = builder.build(100, window);
  EXPECT_EQ(r1.seq, 1u);
  EXPECT_EQ(r1.receiver_time_ns, 100);
  EXPECT_EQ(r1.packets_delivered, 2u);
  EXPECT_TRUE(r1.acked(1));
  EXPECT_FALSE(r1.acked(2));
  EXPECT_TRUE(r1.acked(3));
  ASSERT_EQ(r1.delays.size(), 2u);
  EXPECT_EQ(r1.delays[0], (DelaySample{1, 10}));

  // Reports are cumulative: the next build restates SACK and the
  // delivered count, but delay samples were drained.
  const auto r2 = builder.build(200, window);
  EXPECT_EQ(r2.seq, 2u);
  EXPECT_TRUE(r2.acked(1));
  EXPECT_EQ(r2.packets_delivered, 2u);
  EXPECT_TRUE(r2.delays.empty());
  EXPECT_EQ(builder.reports_built(), 2u);
}

TEST(ReportBuilder, WindowSlidesForwardInWordSteps) {
  util::IdWindow window(128);
  ReportBuilder builder({.sack_window_words = 2});
  deliver(window, builder, 1, 0);
  EXPECT_EQ(builder.build(0, window).sack_base, 1u);
  // 128 ids fit; id 129 forces the window one word forward.
  deliver(window, builder, 129, 0);
  const auto slid = builder.build(0, window);
  EXPECT_GT(slid.sack_base, 1u);
  EXPECT_FALSE(slid.acked(1));  // aged out
  EXPECT_TRUE(slid.acked(129));

  // A huge jump takes the full-clear path but keeps the new id acked.
  deliver(window, builder, 1'000'000, 0);
  const auto r = builder.build(0, window);
  EXPECT_TRUE(r.acked(1'000'000));
  EXPECT_FALSE(r.acked(129));
  EXPECT_EQ(r.packets_delivered, 3u);
}

TEST(ReportBuilder, AWiderReceiverWindowReportsTheSameWords) {
  // The report's base depends on the highest delivered id and its own
  // width only, so a receiver window wider than the report changes no
  // report.
  util::IdWindow exact(128);
  util::IdWindow wide(8192);
  ReportBuilder a({.sack_window_words = 2});
  ReportBuilder b({.sack_window_words = 2});
  for (const std::uint64_t id : {1u, 5u, 64u, 65u, 130u, 129u, 300u, 257u}) {
    deliver(exact, a, id, 0);
    deliver(wide, b, id, 0);
    EXPECT_EQ(encode_report(a.build(0, exact)),
              encode_report(b.build(0, wide)))
        << "after id " << id;
  }
}

TEST(ReportBuilder, DelayRingKeepsNewestSamples) {
  util::IdWindow window(1024);
  ReportBuilder builder({.max_delay_samples = 4});
  for (std::uint64_t id = 1; id <= 10; ++id) {
    deliver(window, builder, id, static_cast<std::int64_t>(id) * 100);
  }
  const auto r = builder.build(0, window);
  ASSERT_EQ(r.delays.size(), 4u);
  EXPECT_EQ(r.delays.front().packet_id, 7u);  // oldest kept
  EXPECT_EQ(r.delays.back().packet_id, 10u);  // newest
}

TEST(ReportBuilder, IdleBuilderHoldsNoHeapAndReportsTheSameZeros) {
  // A session keeps one builder per flow: until traffic arrives it must
  // hold nothing, yet report the full zero window.
  util::IdWindow window(8192);
  ReportBuilder builder({.sack_window_words = 16});
  EXPECT_EQ(builder.heap_bytes(), 0u);
  EXPECT_EQ(window.heap_bytes(), 0u);
  const auto r = builder.build(50, window);
  EXPECT_EQ(r.sack, std::vector<std::uint64_t>(16, 0));
  EXPECT_EQ(r.sack_base, 1u);
  EXPECT_FALSE(r.acked(1));
  EXPECT_TRUE(r.delays.empty());
  EXPECT_EQ(builder.heap_bytes(), 0u);

  deliver(window, builder, 1, 60);
  EXPECT_GT(builder.heap_bytes(), 0u);
  const auto r2 = builder.build(70, window);
  EXPECT_TRUE(r2.acked(1));
  EXPECT_EQ(r2.sack.size(), 16u);
  ASSERT_EQ(r2.delays.size(), 1u);
  EXPECT_EQ(r2.delays[0], (DelaySample{1, 60}));
}

// -------------------------------------------------------- RetransmitManager

/// One resend the Arq asked its driver for.
struct Resend {
  std::uint64_t id = 0;
  std::uint8_t generation = 0;
  int k = 0;
  std::vector<int> channels;
  std::vector<std::uint8_t> payload;
};

/// A driver on a bare simulator that records resends and RTO passes.
struct ArqHarness {
  net::Simulator sim;
  std::vector<double> risks;
  std::vector<Resend> resends;
  int timeouts = 0;
  ArqDriver driver;

  ArqHarness(int num_channels, int retransmit_extra,
             std::vector<double> channel_risks)
      : risks(std::move(channel_risks)),
        driver{.timeline = sim,
               .num_channels = num_channels,
               .retransmit_extra = retransmit_extra,
               .risks = risks,
               .resend =
                   [this](std::uint32_t, std::uint64_t id,
                          std::uint8_t generation,
                          std::span<const std::uint8_t> payload, int k,
                          std::span<const int> channels) {
                     resends.push_back({id,
                                        generation,
                                        k,
                                        {channels.begin(), channels.end()},
                                        {payload.begin(), payload.end()}});
                   },
               .after_timeout = [this](std::uint32_t) { ++timeouts; }} {}
};

RetransmitConfig one_retry_config() {
  RetransmitConfig cfg;
  cfg.max_retransmits = 1;
  cfg.initial_rto_ns = 100'000'000;
  return cfg;
}


ReceiverReport ack_report(std::uint64_t seq, std::uint64_t sack_base,
                          std::vector<std::uint64_t> acked_ids) {
  ReceiverReport r;
  r.seq = seq;
  r.sack_base = sack_base;
  r.sack.assign(4, 0);
  for (std::uint64_t id : acked_ids) {
    const std::uint64_t off = id - sack_base;
    r.sack[static_cast<std::size_t>(off / 64)] |= std::uint64_t{1}
                                                  << (off % 64);
  }
  return r;
}

TEST(RetransmitManager, AckClosesPacketAndSamplesRtt) {
  net::Simulator sim;
  RetransmitManager mgr(sim, {}, Rng(1));
  const std::vector<std::uint8_t> payload{1, 2, 3};
  const std::vector<int> channels{0, 2};
  mgr.on_packet_sent(1, 2, payload, channels, 0);
  EXPECT_EQ(mgr.outstanding(), 1u);

  mgr.on_report(ack_report(1, 1, {1}), 100'000'000);  // acked at t=100ms
  EXPECT_EQ(mgr.outstanding(), 0u);
  EXPECT_EQ(mgr.stats().packets_acked, 1u);
  EXPECT_EQ(mgr.stats().rtt_samples, 1u);
  EXPECT_NEAR(mgr.srtt_s(), 0.1, 1e-9);
  // RFC 6298 first sample: RTO = R + max(granularity, 4 * R/2) = 300ms.
  EXPECT_EQ(mgr.current_rto_ns(), 300'000'000);

  const auto closed = mgr.drain_closed();
  ASSERT_EQ(closed.size(), 1u);
  EXPECT_EQ(closed[0].packet_id, 1u);
  EXPECT_TRUE(closed[0].acked);
  EXPECT_EQ(closed[0].retransmits, 0);
  EXPECT_EQ(closed[0].initial_mask, 0b101u);
  EXPECT_EQ(closed[0].exposure_mask, 0b101u);
  EXPECT_TRUE(mgr.drain_closed().empty());  // drained
}

TEST(RetransmitManager, TimeoutRetransmitsUntilBudgetThenAbandons) {
  RetransmitConfig config;
  config.max_retransmits = 2;
  config.initial_rto_ns = 100'000'000;
  ArqHarness h(2, 1, {});
  Arq arq(h.driver, /*cid=*/0, config, {}, Rng(3));
  const RetransmitManager& mgr = arq.manager();

  const std::vector<int> channels{0, 1};
  arq.on_sent(1, 2, std::vector<std::uint8_t>{9, 9}, channels, 0);
  std::int64_t now = 0;
  // Drive the RTO clock: each run to the pending deadline fires one
  // retransmission until the budget is gone, then the packet is dropped.
  for (int round = 0; round < 3; ++round) {
    const auto deadline = h.sim.next_event_time();
    ASSERT_TRUE(deadline.has_value());
    EXPECT_GT(*deadline, now);
    now = *deadline;
    h.sim.run_until(now);
  }
  EXPECT_FALSE(h.sim.next_event_time().has_value());
  std::vector<std::uint8_t> seen_generations;
  for (const Resend& r : h.resends) {
    EXPECT_EQ(r.id, 1u);
    EXPECT_EQ(r.k, 2);
    EXPECT_EQ(r.payload, (std::vector<std::uint8_t>{9, 9}));
    seen_generations.push_back(r.generation);
  }
  EXPECT_EQ(seen_generations, (std::vector<std::uint8_t>{1, 2}));
  EXPECT_EQ(mgr.stats().retransmits, 2u);
  EXPECT_EQ(mgr.stats().packets_abandoned, 1u);
  EXPECT_EQ(mgr.outstanding(), 0u);

  const auto closed = arq.manager().drain_closed();
  ASSERT_EQ(closed.size(), 1u);
  EXPECT_FALSE(closed[0].acked);
  EXPECT_EQ(closed[0].retransmits, 2);
}

TEST(RetransmitManager, TrackingOnlyModeAbandonsAtFirstTimeout) {
  RetransmitConfig config;
  config.max_retransmits = 0;  // ARQ off: exposure/ack accounting only
  ArqHarness h(1, 1, {});
  Arq arq(h.driver, /*cid=*/0, config, {}, Rng(3));
  const std::vector<int> channels{0};
  arq.on_sent(1, 1, std::vector<std::uint8_t>{1}, channels, 0);
  h.sim.run_until(*h.sim.next_event_time());
  EXPECT_TRUE(h.resends.empty());
  EXPECT_EQ(arq.manager().stats().packets_abandoned, 1u);
}

TEST(RetransmitManager, WithoutAnOwnerEveryPacketIsAbandonedAtItsFirstTimeout) {
  net::Simulator sim;
  RetransmitManager mgr(sim, {}, Rng(3));
  const std::vector<int> channels{0};
  mgr.on_packet_sent(1, 1, std::vector<std::uint8_t>{1}, channels, 0);
  sim.run();
  EXPECT_EQ(mgr.stats().retransmits, 0u);
  EXPECT_EQ(mgr.stats().packets_abandoned, 1u);
  EXPECT_EQ(mgr.outstanding(), 0u);
}

TEST(RetransmitManager, KarnRuleExcludesRetransmittedPackets) {
  RetransmitConfig config;
  config.initial_rto_ns = 100'000'000;
  ArqHarness h(1, 1, {});
  Arq arq(h.driver, /*cid=*/0, config, {}, Rng(5));
  const RetransmitManager& mgr = arq.manager();
  const std::vector<int> channels{0};
  arq.on_sent(1, 1, std::vector<std::uint8_t>{1}, channels, 0);
  h.sim.run_until(*h.sim.next_event_time());  // one retransmission
  EXPECT_EQ(mgr.stats().retransmits, 1u);

  // The eventual ack closes the packet but its RTT (and one-way delay
  // samples) are ambiguous and must not train the estimator.
  auto report = ack_report(1, 1, {1});
  report.delays = {{1, 500'000'000}};
  arq.on_report(report, 500'000'000);
  EXPECT_EQ(mgr.stats().packets_acked, 1u);
  EXPECT_EQ(mgr.stats().rtt_samples, 0u);
  EXPECT_EQ(mgr.stats().delay.count(), 0u);
}

TEST(RetransmitManager, DelaySamplesJoinSendStamps) {
  net::Simulator sim;
  RetransmitManager mgr(sim, {}, Rng(5));
  const std::vector<int> channels{0};
  mgr.on_packet_sent(4, 1, std::vector<std::uint8_t>{1}, channels,
                     10'000'000);
  auto report = ack_report(1, 4, {4});
  report.delays = {{4, 35'000'000}};  // delivered 25ms after send
  mgr.on_report(report, 40'000'000);
  EXPECT_EQ(mgr.stats().delay.count(), 1u);
  EXPECT_NEAR(mgr.stats().delay.mean(), 0.025, 1e-9);
}

TEST(RetransmitManager, ReplayedAndStaleReportsDropped) {
  net::Simulator sim;
  RetransmitManager mgr(sim, {}, Rng(7));
  const std::vector<int> channels{0};
  mgr.on_packet_sent(1, 1, std::vector<std::uint8_t>{1}, channels, 0);
  mgr.on_packet_sent(2, 1, std::vector<std::uint8_t>{2}, channels, 0);

  mgr.on_report(ack_report(5, 1, {1}), 1000);
  EXPECT_EQ(mgr.stats().packets_acked, 1u);
  // Replay of seq 5 and a reordered stale seq 4: both dropped wholesale,
  // even though seq 4 would have acked packet 2.
  mgr.on_report(ack_report(5, 1, {1}), 2000);
  mgr.on_report(ack_report(4, 1, {2}), 3000);
  EXPECT_EQ(mgr.stats().reports_replayed, 2u);
  EXPECT_EQ(mgr.stats().packets_acked, 1u);
  EXPECT_EQ(mgr.outstanding(), 1u);
}

TEST(RetransmitManager, AcksAWindowThatRunsPastTheTopOfTheIdSpace) {
  // The window's end wraps past 2^64; the ids inside it are still
  // acked.
  net::Simulator sim;
  RetransmitManager mgr(sim, {}, Rng(7));
  const std::vector<int> channels{0};
  const std::uint64_t top = std::numeric_limits<std::uint64_t>::max();
  mgr.on_packet_sent(top - 2, 1, std::vector<std::uint8_t>{1}, channels, 0);
  mgr.on_packet_sent(top - 1, 1, std::vector<std::uint8_t>{1}, channels, 0);
  mgr.on_report(ack_report(1, top - 100, {top - 2}), 1000);
  EXPECT_EQ(mgr.stats().packets_acked, 1u);
  EXPECT_EQ(mgr.outstanding(), 1u);
  EXPECT_TRUE(mgr.exposure_mask(top - 1).has_value());
}

using test::report_target;

ReceiverReport flow_report(std::uint64_t seq, std::uint64_t sack_base,
                           std::vector<std::uint64_t> acked_ids) {
  ReceiverReport r = ack_report(seq, sack_base, std::move(acked_ids));
  r.connection_id = 1;
  return r;
}

TEST(RetransmitManager, DatagramPathCountsMalformedAndAuthFailures) {
  const auto plain = report_target(nullptr);
  // Garbage datagram, and an empty one.
  plain->on_feedback_datagram(std::vector<std::uint8_t>(32, 0xAB), 0);
  EXPECT_EQ(plain->stats().reports_malformed, 1u);
  plain->on_feedback_datagram({}, 0);
  EXPECT_EQ(plain->stats().reports_malformed, 2u);
  // Unauthenticated report hitting a keyed endpoint.
  const auto keyed = report_target(&kKey);
  keyed->on_feedback_datagram(encode_report(flow_report(1, 1, {})), 0);
  EXPECT_EQ(keyed->stats().reports_auth_failed, 1u);
  // Two coalesced valid reports parse in one datagram.
  auto buf = encode_report(flow_report(1, 1, {}), &kKey);
  const auto second = encode_report(flow_report(2, 1, {}), &kKey);
  buf.insert(buf.end(), second.begin(), second.end());
  keyed->on_feedback_datagram(buf, 0);
  EXPECT_EQ(keyed->stats().reports_demuxed, 2u);
  EXPECT_EQ(keyed->flow_manager(1)->stats().reports_received, 2u);
}

TEST(RetransmitManager, SurvivesAReportStorm) {
  // Malformed, truncated, tampered, replayed, and valid reports
  // interleaved at random must leave the manager consistent: every
  // datagram lands in exactly one counter bucket and acks only move
  // forward.
  RetransmitConfig config;
  config.max_retransmits = 0;
  const auto ep = report_target(&kKey, config, 64);
  const RetransmitManager& mgr = *ep->flow_manager(1);
  ASSERT_EQ(mgr.outstanding(), 64u);
  Rng rng(77);

  std::uint64_t valid_sent = 0;
  for (int i = 0; i < 500; ++i) {
    auto bytes = encode_report(
        flow_report(1 + rng.uniform_int(40), 1, {1 + rng.uniform_int(64)}),
        &kKey);
    switch (rng.uniform_int(4)) {
      case 0:  // valid (possibly replayed seq)
        ++valid_sent;
        break;
      case 1:  // truncated
        bytes.resize(bytes.size() / 2);
        break;
      case 2:  // tampered body (auth failure)
        bytes[kReportHeaderSize - 1] ^= 0x40;
        break;
      case 3:  // garbage head
        bytes[0] ^= 0xFF;
        break;
    }
    ep->on_feedback_datagram(bytes, static_cast<std::int64_t>(i));
  }
  const auto& s = mgr.stats();
  const auto& st = ep->stats();
  EXPECT_EQ(s.reports_received, valid_sent);
  EXPECT_EQ(st.reports_demuxed, s.reports_received);
  EXPECT_EQ(st.reports_demuxed + st.reports_malformed + st.reports_auth_failed,
            500u);
  EXPECT_LE(s.reports_replayed, s.reports_received);
  EXPECT_LE(s.packets_acked, 64u);
  EXPECT_EQ(mgr.outstanding(), 64u - s.packets_acked);
}

TEST(RetransmitManager, OverflowDisplacesTheOldestPacket) {
  RetransmitConfig config;
  config.max_outstanding = 2;
  net::Simulator sim;
  RetransmitManager mgr(sim, config, Rng(13));
  const std::vector<int> channels{0};
  for (std::uint64_t id = 1; id <= 3; ++id) {
    mgr.on_packet_sent(id, 1, std::vector<std::uint8_t>{1}, channels, 0);
  }
  EXPECT_EQ(mgr.outstanding(), 2u);
  EXPECT_EQ(mgr.stats().packets_displaced, 1u);
  const auto closed = mgr.drain_closed();
  ASSERT_EQ(closed.size(), 1u);
  EXPECT_EQ(closed[0].packet_id, 1u);
  EXPECT_FALSE(closed[0].acked);
}

TEST(RetransmitManager, DisplacedPacketTakesItsTimerWithIt) {
  // max_outstanding = 2: the third send displaces packet 1, whose RTO
  // leaves the timeline with it; only packets 2 and 3 ever time out.
  RetransmitConfig config;
  config.max_outstanding = 2;
  config.max_retransmits = 0;
  ArqHarness h(1, 1, {});
  Arq arq(h.driver, /*cid=*/0, config, {}, Rng(13));
  RetransmitManager& mgr = arq.manager();
  const std::vector<int> channels{0};
  for (std::uint64_t id = 1; id <= 3; ++id) {
    arq.on_sent(id, 1, std::vector<std::uint8_t>{1}, channels,
                static_cast<std::int64_t>(id));
  }
  EXPECT_EQ(h.sim.pending(), 2u);
  EXPECT_EQ(mgr.stats().packets_displaced, 1u);
  h.sim.run();
  EXPECT_EQ(h.timeouts, 2);
  EXPECT_EQ(mgr.stats().packets_abandoned, 2u);
  const auto closed = mgr.drain_closed();
  ASSERT_EQ(closed.size(), 3u);
  EXPECT_EQ(closed[0].packet_id, 1u);
  EXPECT_EQ(closed[1].packet_id, 2u);
  EXPECT_EQ(closed[2].packet_id, 3u);
}

TEST(RetransmitManager, ExposureUnionsAcrossRetransmissions) {
  net::Simulator sim;
  RetransmitManager mgr(sim, {}, Rng(15));
  const std::vector<int> initial{0, 1};
  mgr.on_packet_sent(1, 2, std::vector<std::uint8_t>{1}, initial, 0);
  EXPECT_EQ(mgr.exposure_mask(1), 0b011u);
  const std::vector<int> retry{1, 2, 3};
  mgr.note_exposure(1, retry);
  EXPECT_EQ(mgr.exposure_mask(1), 0b1111u);

  mgr.on_report(ack_report(1, 1, {1}), 1000);
  const auto closed = mgr.drain_closed();
  ASSERT_EQ(closed.size(), 1u);
  EXPECT_EQ(closed[0].initial_mask, 0b011u);
  EXPECT_EQ(closed[0].exposure_mask, 0b1111u);
  EXPECT_EQ(mgr.stats().initial_channel_sum, 2u);
  EXPECT_EQ(mgr.stats().exposure_channel_sum, 4u);

  // Channel 1 carried a share both times; 2 and 3 only on the retry.
  EXPECT_EQ(closed[0].initial_mask & 0b0010u, 0b0010u);
  EXPECT_EQ(closed[0].exposure_mask & ~closed[0].initial_mask, 0b1100u);
}

TEST(RetransmitManager, SnapshotOpenCoversInFlightPackets) {
  net::Simulator sim;
  RetransmitManager mgr(sim, {}, Rng(17));
  const std::vector<int> channels{0, 1};
  mgr.on_packet_sent(1, 2, std::vector<std::uint8_t>{1}, channels, 0);
  mgr.on_packet_sent(2, 2, std::vector<std::uint8_t>{2}, channels, 0);
  const auto open = mgr.snapshot_open();
  ASSERT_EQ(open.size(), 2u);
  EXPECT_FALSE(open[0].acked);
  EXPECT_EQ(open[0].exposure_mask, 0b011u);
  EXPECT_EQ(mgr.outstanding(), 2u);  // snapshot does not close
}

// -------------------------------------------------------------- redundancy

ChannelSet eval_channels() {
  // loss-sorted order: 1 (.005), 0 (.01), 2 (.02), 3 (.06), 4 (.10)
  return ChannelSet{{.risk = 0.2, .loss = 0.01, .delay = 0.01, .rate = 500},
                    {.risk = 0.3, .loss = 0.005, .delay = 0.01, .rate = 2000},
                    {.risk = 0.1, .loss = 0.02, .delay = 0.02, .rate = 1500},
                    {.risk = 0.2, .loss = 0.06, .delay = 0.03, .rate = 1500},
                    {.risk = 0.4, .loss = 0.10, .delay = 0.05, .rate = 3000}};
}

TEST(Redundancy, PicksSmallestFeasibleSubset) {
  const auto model = eval_channels();
  const RedundancyPlan plan =
      plan_redundancy(model, {.k = 2, .target_delivery = 0.999});
  ASSERT_TRUE(plan.feasible);
  EXPECT_EQ(plan.k, 2);
  // k=2 over the two best channels misses 0.999 (loss ~ 1.5e-2 pairwise
  // ... actually l(2,{0,1}) = 1-(1-.01)(1-.005) ~ .015); three channels
  // suffice: l(2, {0,1,2}) ~ 3.5e-4 <= 1e-3.
  EXPECT_EQ(plan.channels, (std::vector<int>{0, 1, 2}));
  EXPECT_LE(plan.predicted_loss, 0.001);
  EXPECT_GT(plan.predicted_risk, 0.0);
  // Adding channels only helps loss, so the planner stopped at the
  // smallest m; m-1 must be infeasible.
  const Mask two_best = 0b10 | 0b01;
  EXPECT_GT(subset_loss(model, 2, two_best), 0.001);
}

TEST(Redundancy, RateFilterExcludesSlowChannels) {
  const auto model = eval_channels();
  // Offered 1000 pkt/s excludes channel 0 (500/s): the plan must not
  // contain it even though it is among the lowest-loss channels.
  const RedundancyPlan plan = plan_redundancy(
      model, {.k = 2, .target_delivery = 0.999, .offered_pps = 1000.0});
  ASSERT_TRUE(plan.feasible);
  EXPECT_TRUE(std::find(plan.channels.begin(), plan.channels.end(), 0) ==
              plan.channels.end());
  EXPECT_GE(plan.channels.size(), 2u);
}

TEST(Redundancy, InfeasibleGoalReturnsBestEffortPlan) {
  ChannelSet lossy{{.risk = 0.1, .loss = 0.4, .delay = 0.01, .rate = 100},
                   {.risk = 0.1, .loss = 0.4, .delay = 0.01, .rate = 100}};
  const RedundancyPlan plan =
      plan_redundancy(lossy, {.k = 2, .target_delivery = 0.999999});
  EXPECT_FALSE(plan.feasible);
  // Best effort: every eligible channel, with honest predictions.
  EXPECT_EQ(plan.channels, (std::vector<int>{0, 1}));
  EXPECT_GT(plan.predicted_loss, 1.0 - 0.999999);

  // Fewer than k eligible channels: empty plan.
  const RedundancyPlan none = plan_redundancy(
      lossy, {.k = 2, .target_delivery = 0.9, .offered_pps = 1000.0});
  EXPECT_FALSE(none.feasible);
  EXPECT_TRUE(none.channels.empty());
}

// --------------------------------------------------------------------- Arq

TEST(Arq, RetransmitsExposedChannelsFirstThenLowestRisk) {
  // Four channels; the packet went out on channel 1 alone (k = 1). With
  // two extra shares the repair takes three channels: the exposed one
  // for free, then the two cheapest unexposed ones by risk, not index.
  ArqHarness h(4, /*retransmit_extra=*/2, {0.3, 0.9, 0.1, 0.2});
  Arq arq(h.driver, /*cid=*/0, one_retry_config(), {}, Rng(5));
  const std::vector<int> sent_on{1};
  arq.on_sent(1, 1, std::vector<std::uint8_t>{7, 7}, sent_on, 0);
  h.sim.run_until(net::from_millis(150));

  ASSERT_EQ(h.resends.size(), 1u);
  EXPECT_EQ(h.resends[0].id, 1u);
  EXPECT_EQ(h.resends[0].generation, 1);
  EXPECT_EQ(h.resends[0].channels, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(h.timeouts, 1);
  const auto exposure = arq.manager().exposure_mask(1);
  ASSERT_TRUE(exposure.has_value());
  EXPECT_EQ(*exposure, 0b1110u);
}

TEST(Arq, WithoutRisksTheOrderIsExposedThenIndex) {
  ArqHarness h(4, /*retransmit_extra=*/1, {});
  Arq arq(h.driver, /*cid=*/0, one_retry_config(), {}, Rng(5));
  const std::vector<int> sent_on{3, 2};
  arq.on_sent(1, 2, std::vector<std::uint8_t>{1}, sent_on, 0);
  h.sim.run_until(net::from_millis(150));
  ASSERT_EQ(h.resends.size(), 1u);
  EXPECT_EQ(h.resends[0].channels, (std::vector<int>{2, 3, 0}));
}

TEST(Arq, AReportCancelsTheRtoTheAckMadeMoot) {
  ArqHarness h(2, 1, {});
  Arq arq(h.driver, /*cid=*/0, one_retry_config(), {}, Rng(5));
  const std::vector<int> sent_on{0, 1};
  arq.on_sent(1, 2, std::vector<std::uint8_t>{1}, sent_on, 0);
  EXPECT_EQ(h.sim.pending(), 1u);  // the RTO timer
  arq.on_report(ack_report(1, 1, {1}), net::from_millis(10));
  EXPECT_EQ(h.sim.pending(), 0u);
  h.sim.run();
  EXPECT_TRUE(h.resends.empty());
  EXPECT_EQ(arq.manager().stats().packets_acked, 1u);
}

TEST(Arq, DestroyedWithAnArmedRtoFiresNothing) {
  // The timeline outlives the flow (a session's shared one): the Arq's
  // destructor must take its timer back, so running past the deadline
  // fires nothing into the freed Arq (a sanitizer build turns a stray
  // callback into a use-after-free report).
  ArqHarness h(2, 1, {});
  {
    Arq arq(h.driver, /*cid=*/3, one_retry_config(), {}, Rng(5));
    const std::vector<int> sent_on{0, 1};
    arq.on_sent(1, 2, std::vector<std::uint8_t>{1}, sent_on, 0);
    EXPECT_EQ(h.sim.pending(), 1u);
  }
  EXPECT_EQ(h.sim.pending(), 0u);
  h.sim.run();
  EXPECT_TRUE(h.resends.empty());
  EXPECT_EQ(h.timeouts, 0);
}

TEST(Arq, EveryOutstandingPacketHoldsOneTimer) {
  // Each unacked packet's RTO is its own event on the shared timeline,
  // and an ack takes exactly that packet's event off it.
  ArqHarness h(2, 1, {});
  Arq arq(h.driver, /*cid=*/0, one_retry_config(), {}, Rng(5));
  const std::vector<int> sent_on{0, 1};
  for (std::uint64_t id = 1; id <= 3; ++id) {
    arq.on_sent(id, 2, std::vector<std::uint8_t>{1}, sent_on,
                net::from_millis(static_cast<double>(id)));
  }
  EXPECT_EQ(h.sim.pending(), 3u);
  arq.on_report(ack_report(1, 1, {2}), net::from_millis(10));
  EXPECT_EQ(h.sim.pending(), 2u);
  arq.on_report(ack_report(2, 1, {1, 3}), net::from_millis(20));
  EXPECT_EQ(h.sim.pending(), 0u);
  h.sim.run();
  EXPECT_TRUE(h.resends.empty());
  EXPECT_EQ(h.timeouts, 0);
}

TEST(Arq, AnAckedPacketsDeadlineWakesNothing) {
  // Packet 1's RTO is due at 100 ms and packet 2's at 150 ms. Once
  // packet 1 is acked, nothing may wake at 100 ms: the next event on
  // the timeline is packet 2's own deadline.
  ArqHarness h(2, 1, {});
  Arq arq(h.driver, /*cid=*/0, one_retry_config(), {}, Rng(5));
  const std::vector<int> sent_on{0, 1};
  arq.on_sent(1, 2, std::vector<std::uint8_t>{1}, sent_on, 0);
  arq.on_sent(2, 2, std::vector<std::uint8_t>{2}, sent_on,
              net::from_millis(50));
  arq.on_report(ack_report(1, 1, {1}), net::from_millis(60));
  h.sim.run_until(net::from_millis(150) - 1);
  EXPECT_EQ(h.sim.processed(), 0u);
  EXPECT_EQ(h.timeouts, 0);
  EXPECT_TRUE(h.resends.empty());

  h.sim.run_until(net::from_millis(150));
  ASSERT_EQ(h.resends.size(), 1u);
  EXPECT_EQ(h.resends[0].id, 2u);
  EXPECT_EQ(h.timeouts, 1);
}

TEST(Arq, ReportsCarryTheFlowIdAndTheDriversKey) {
  ArqHarness h(2, 1, {});
  h.driver.report_key = &kKey;
  Arq arq(h.driver, /*cid=*/9, one_retry_config(),
          {.sack_window_words = 1}, Rng(5));
  util::IdWindow delivered(64);
  for (std::uint64_t id = 1; id <= 31; ++id) {
    delivered.mark(id);
    EXPECT_FALSE(arq.on_delivered(id, 100));
  }
  delivered.mark(32);
  EXPECT_TRUE(arq.on_delivered(32, 100));  // half of one 64-id word
  const auto bytes = arq.report(200, delivered);
  const crypto::SipHashKey wrong{};
  EXPECT_FALSE(decode_report(bytes, &wrong).has_value());
  const auto report = decode_report(bytes, &kKey);
  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(report->connection_id, 9u);
  EXPECT_EQ(report->packets_delivered, 32u);
  EXPECT_TRUE(report->acked(32));
  EXPECT_FALSE(arq.on_delivered(33, 300));  // the report reset the count
}

/// The SACK window a report builder kept of its own before reports read
/// the receiver's completed-id window: a base that slides in whole
/// words over the ids delivered at or above it. The reference the
/// property test below holds every report to.
struct ReferenceSack {
  std::uint64_t base = 1;
  std::vector<std::uint64_t> words;

  explicit ReferenceSack(std::size_t n) : words(n, 0) {}

  void on_delivered(std::uint64_t id) {
    if (id < base) return;
    const std::uint64_t span = 64 * words.size();
    if (id - base >= span) {
      const std::uint64_t shift_words = (id - base - span) / 64 + 1;
      if (shift_words >= words.size()) {
        std::fill(words.begin(), words.end(), 0);
      } else {
        const auto n = static_cast<std::ptrdiff_t>(shift_words);
        std::copy(words.begin() + n, words.end(), words.begin());
        std::fill(words.end() - n, words.end(), 0);
      }
      base += 64 * shift_words;
    }
    const std::uint64_t offset = id - base;
    words[static_cast<std::size_t>(offset / 64)] |= std::uint64_t{1}
                                                    << (offset % 64);
  }
};

TEST(Arq, ReportBytesMatchTheSlidingBitmapReference) {
  // Seeded delivery sequences (reordered, with gaps, with replays and
  // with jumps past both windows) run through a Receiver and an Arq.
  // Every encoded report must equal the one built from the delivered
  // ids by the reference arithmetic, wherever the receiver's window is
  // at least the report's.
  struct Shape {
    std::size_t completed_history;
    std::size_t sack_words;
    std::uint64_t first_id;
  };
  const Shape shapes[] = {{64, 1, 1},     {128, 2, 1},      {1000, 16, 1},
                          {8192, 16, 1},  {65'536, 16, 1},  {8192, 1, 1},
                          {1024, 16, std::uint64_t{1} << 62}};
  std::uint64_t reports = 0;
  for (const Shape& shape : shapes) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      SCOPED_TRACE(testing::Message()
                   << "history " << shape.completed_history << ", sack "
                   << shape.sack_words << ", seed " << seed);
      ArqHarness h(2, 1, {});
      const std::uint32_t cid = 7;
      Arq arq(h.driver, cid, one_retry_config(),
              {.sack_window_words = shape.sack_words}, Rng(seed));
      proto::ReceiverConfig rc;
      rc.completed_history = shape.completed_history;
      proto::Receiver rx(h.sim, rc);

      ReferenceSack reference(shape.sack_words);
      std::uint64_t seq = 0;
      std::uint64_t delivered = 0;
      std::vector<DelaySample> pending;
      std::int64_t now = 0;
      rx.set_deliver([&](std::uint64_t id, std::vector<std::uint8_t>) {
        reference.on_delivered(id);
        ++delivered;
        pending.push_back({id, now});
        if (pending.size() > 64) pending.erase(pending.begin());
        (void)arq.on_delivered(id, now);
      });
      const auto check_report = [&] {
        ReceiverReport expected;
        expected.seq = ++seq;
        expected.receiver_time_ns = now;
        expected.packets_delivered = delivered;
        expected.sack_base = reference.base;
        expected.sack = reference.words;
        expected.delays = std::exchange(pending, {});
        expected.connection_id = cid;
        ASSERT_EQ(arq.report(now, rx.delivered()), encode_report(expected))
            << "report " << seq;
        ++reports;
      };

      Rng rng(1000 + seed);
      const std::uint64_t window_ids = 64 * rx.delivered().width_words();
      std::uint64_t cursor = shape.first_id;
      std::vector<std::uint64_t> sent;
      proto::ShareFrame f;
      f.k = 1;
      f.share_index = 1;
      f.payload = {1};
      for (int step = 0; step < 3000; ++step) {
        ++now;
        std::uint64_t id = cursor;
        const std::uint64_t roll = rng.uniform_int(100);
        if (roll < 10 && !sent.empty()) {
          // A late share, resend or replay of an id sent before: new
          // if it never completed and is still above the floor.
          id = sent[rng.uniform_int(sent.size())];
          f.generation = static_cast<std::uint8_t>(1 + rng.uniform_int(3));
        } else {
          f.generation = 0;
          if (roll < 15) {
            cursor += 1 + rng.uniform_int(3 * window_ids);  // a jump
          } else if (roll < 35) {
            cursor += 2 + rng.uniform_int(40);  // a gap
          } else if (roll >= 55) {
            ++cursor;
          }
          // Otherwise one of the next few ids arrives ahead of its turn.
          const bool reordered = roll >= 35 && roll < 55;
          id = reordered ? cursor + 1 + rng.uniform_int(6) : cursor;
        }
        f.packet_id = id;
        rx.on_frame(proto::encode(f));
        sent.push_back(id);
        if (sent.size() > 256) sent.erase(sent.begin());
        if (rng.uniform_int(4) == 0) check_report();
        if (HasFatalFailure()) return;
      }
      check_report();
      EXPECT_GT(rx.stats().late_shares, 0u);
      EXPECT_GT(rx.delivered().floor(), shape.first_id);
    }
  }
  EXPECT_GT(reports, 10'000u);
}

// --------------------------------------------- re-split + receiver behavior

/// Packet 1's m shares of `payload` under k = 2, tagged `generation`,
/// one frame each, as the session's emit writes them.
std::vector<std::vector<std::uint8_t>> resplit(
    std::span<const std::uint8_t> payload, std::uint8_t generation,
    std::size_t m, Rng& rng) {
  std::vector<std::vector<std::uint8_t>> frames(
      m, std::vector<std::uint8_t>(
             proto::encoded_size(payload.size(), generation, false)));
  std::vector<std::span<std::uint8_t>> spans(frames.begin(), frames.end());
  std::vector<std::uint8_t> scratch;
  proto::write_shares({.packet_id = 1, .k = 2, .generation = generation},
                      payload, spans, nullptr, scratch, rng);
  return frames;
}

TEST(Resend, FreshShareBytesStillReconstruct) {
  // The ISSUE's acceptance test: a retransmitted share must carry
  // DIFFERENT bytes than the original (fresh polynomial), and the
  // retransmitted generation alone must reconstruct the packet.
  net::Simulator sim;
  Rng seeder(51);
  std::vector<std::unique_ptr<net::SimChannel>> channels;
  std::vector<net::SimChannel*> raw;
  for (int i = 0; i < 2; ++i) {
    channels.push_back(std::make_unique<net::SimChannel>(
        sim, net::ChannelConfig{.rate_bps = 10e6}, seeder.fork()));
    raw.push_back(channels.back().get());
  }
  std::vector<std::vector<std::uint8_t>> captured;
  for (auto* ch : raw) {
    ch->set_receiver(
        [&](std::vector<std::uint8_t> f) { captured.push_back(std::move(f)); });
  }
  proto::Sender sender(
      sim, raw, std::make_unique<proto::DynamicScheduler>(2.0, 2.0, 2),
      seeder.fork());

  const std::vector<std::uint8_t> payload{10, 20, 30, 40, 50};
  ASSERT_TRUE(sender.send(payload));
  sim.run();
  ASSERT_EQ(captured.size(), 2u);  // generation-0 shares
  const auto originals = captured;

  captured = resplit(payload, 1, 2, seeder);  // generation-1 shares

  std::map<std::uint8_t, proto::ShareFrame> gen0, gen1;
  for (const auto& bytes : originals) {
    auto f = proto::decode(bytes);
    ASSERT_TRUE(f.has_value());
    EXPECT_EQ(f->generation, 0);
    gen0[f->share_index] = *f;
  }
  for (const auto& bytes : captured) {
    auto f = proto::decode(bytes);
    ASSERT_TRUE(f.has_value());
    EXPECT_EQ(f->generation, 1);
    gen1[f->share_index] = *f;
    // Same (packet, index) across generations -> different share bytes.
    if (gen0.contains(f->share_index)) {
      EXPECT_NE(gen0[f->share_index].payload, f->payload);
    }
  }

  // The retransmitted generation reconstructs on its own.
  proto::Receiver rx(sim);
  std::vector<std::uint8_t> out;
  rx.set_deliver(
      [&](std::uint64_t, std::vector<std::uint8_t> p) { out = std::move(p); });
  for (const auto& bytes : captured) {
    rx.on_frame(bytes);
  }
  EXPECT_EQ(out, payload);
}

TEST(Resend, ReceiverSupersedesOldGenerationAndDropsStale) {
  // Mixing generations must never happen: a newer generation restarts
  // reassembly, an older one is dropped as stale.
  net::Simulator sim;
  Rng rng(61);
  const std::vector<std::uint8_t> payload{1, 2, 3, 4};
  auto gen_frames = [&](std::uint8_t generation) {
    return resplit(payload, generation, 2, rng);
  };

  proto::Receiver rx(sim);
  std::vector<std::uint8_t> out;
  rx.set_deliver(
      [&](std::uint64_t, std::vector<std::uint8_t> p) { out = std::move(p); });

  const auto old_gen = gen_frames(1);
  const auto new_gen = gen_frames(2);
  rx.on_frame(old_gen[0]);       // partial starts at generation 1
  rx.on_frame(new_gen[0]);       // generation 2 supersedes it
  EXPECT_EQ(rx.stats().partials_superseded, 1u);
  rx.on_frame(old_gen[1]);       // stale generation-1 share: dropped
  EXPECT_EQ(rx.stats().stale_generation_shares, 1u);
  EXPECT_TRUE(out.empty());      // one share of generation 2 held
  rx.on_frame(new_gen[1]);       // completes generation 2
  EXPECT_EQ(out, payload);
}

}  // namespace
}  // namespace mcss::feedback
