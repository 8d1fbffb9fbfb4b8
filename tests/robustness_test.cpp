// Robustness suite: adversarial and random inputs against every
// wire-facing decoder and the receiver state machine. Nothing here may
// crash, hang, leak accounting, or deliver corrupted data.
#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <vector>

#include "feedback/report.hpp"
#include "feedback/retransmit.hpp"
#include "net/simulator.hpp"
#include "protocol/receiver.hpp"
#include "protocol/wire.hpp"
#include "report_target.hpp"
#include "session/session_endpoint.hpp"
#include "sss/share.hpp"
#include "util/rng.hpp"

namespace mcss::proto {
namespace {

std::vector<std::uint8_t> random_buffer(Rng& rng, std::size_t max_len) {
  std::vector<std::uint8_t> buf(rng.uniform_int(max_len + 1));
  for (auto& b : buf) b = rng.byte();
  return buf;
}

// ---------------------------------------------------------------- decoders

TEST(Fuzz, ShareDecodeNeverCrashesOnRandomBytes) {
  Rng rng(1);
  int parsed = 0;
  for (int i = 0; i < 200000; ++i) {
    const auto buf = random_buffer(rng, 64);
    const auto frame = decode(buf);
    if (frame) ++parsed;
  }
  // Random bytes essentially never satisfy magic+version+length checks.
  EXPECT_EQ(parsed, 0);
}

TEST(Fuzz, ShareDecodeOnMutatedValidFrames) {
  // Start from a valid frame; apply random mutations. Decode must either
  // reject or return a self-consistent frame — never crash.
  Rng rng(2);
  ShareFrame base;
  base.packet_id = 777;
  base.k = 3;
  base.share_index = 2;
  base.payload.assign(100, 0x5C);
  const auto pristine = encode(base);
  for (int i = 0; i < 100000; ++i) {
    auto buf = pristine;
    const int mutations = 1 + static_cast<int>(rng.uniform_int(4));
    for (int m = 0; m < mutations; ++m) {
      buf[rng.uniform_int(buf.size())] = rng.byte();
    }
    const auto frame = decode(buf);
    if (frame) {
      EXPECT_GE(frame->k, 1);
      EXPECT_GE(frame->share_index, 1);
      EXPECT_EQ(frame->payload.size(), 100u);
    }
  }
}

TEST(Fuzz, AuthenticatedDecodeRejectsAllMutations) {
  // With a key, ANY byte mutation must be rejected (tag over everything).
  Rng rng(3);
  crypto::SipHashKey key{};
  for (auto& b : key) b = rng.byte();
  ShareFrame base;
  base.packet_id = 5;
  base.k = 2;
  base.share_index = 1;
  base.payload.assign(64, 0xA1);
  const auto pristine = encode(base, &key);
  ASSERT_TRUE(decode(pristine, &key).has_value());
  for (int i = 0; i < 50000; ++i) {
    auto buf = pristine;
    const auto pos = rng.uniform_int(buf.size());
    const std::uint8_t flip = static_cast<std::uint8_t>(1 + rng.uniform_int(255));
    buf[pos] ^= flip;
    EXPECT_FALSE(decode(buf, &key).has_value());
  }
}

/// A structurally valid report: random seq, counts and words, and a
/// SACK base that is sometimes within a window of 2^64.
feedback::ReceiverReport random_report(Rng& rng) {
  feedback::ReceiverReport r;
  r.connection_id = rng.bernoulli(0.5) ? 0 : static_cast<std::uint32_t>(
                                                 rng.uniform_int(1u << 20));
  r.seq = rng.uniform_int(1000);
  r.receiver_time_ns = static_cast<std::int64_t>(rng.uniform_int(1u << 30));
  r.packets_delivered = rng();
  const std::uint64_t top = std::numeric_limits<std::uint64_t>::max();
  switch (rng.uniform_int(3)) {
    case 0:
      r.sack_base = 1 + rng.uniform_int(256);
      break;
    case 1:
      r.sack_base = top - rng.uniform_int(64 * 1024);
      break;
    default:
      r.sack_base = rng();
      break;
  }
  const std::size_t words = rng.bernoulli(0.05)
                                ? feedback::kMaxSackWords
                                : rng.uniform_int(33);
  for (std::size_t i = 0; i < words; ++i) r.sack.push_back(rng());
  const std::size_t delays = rng.uniform_int(8);
  for (std::size_t i = 0; i < delays; ++i) {
    r.delays.push_back({rng(), static_cast<std::int64_t>(rng())});
  }
  return r;
}

TEST(Fuzz, ReportDatagramsSurviveMutation) {
  // Seeded random bytes and mutated valid reports, coalesced or not,
  // into a keyless and a keyed endpoint's demux, half of them aimed at
  // its flow (half of those replays), with SACK bases near both ends of
  // the id space. Every
  // datagram lands in at least one session counter, nothing crashes,
  // and the flow's ack bookkeeping stays whole.
  const crypto::SipHashKey key{3, 1, 4, 1, 5, 9, 2, 6,
                               5, 3, 5, 8, 9, 7, 9, 3};
  const auto plain = test::report_target(nullptr, {}, 64);
  const auto keyed = test::report_target(&key, {}, 64);
  const auto counted = [](const session::SessionStats& st) {
    return st.reports_demuxed + st.reports_malformed +
           st.reports_auth_failed + st.reports_without_connection +
           st.reports_unknown_connection;
  };

  Rng rng(23);
  std::uint64_t fresh_seq = 1000;  // above every random_report seq
  for (int i = 0; i < 20000; ++i) {
    std::vector<std::uint8_t> datagram;
    if (rng.uniform_int(4) == 0) {
      datagram = random_buffer(rng, 256);  // empty ones too
    } else {
      const std::size_t reports = 1 + rng.uniform_int(3);
      const bool tag = rng.bernoulli(0.5);
      for (std::size_t r = 0; r < reports; ++r) {
        feedback::ReceiverReport report = random_report(rng);
        if (rng.bernoulli(0.5)) {
          // Aimed at the flow: a fresh seq, or a random one to replay.
          report.connection_id = 1;
          if (rng.bernoulli(0.5)) report.seq = ++fresh_seq;
        }
        const auto bytes =
            feedback::encode_report(report, tag ? &key : nullptr);
        datagram.insert(datagram.end(), bytes.begin(), bytes.end());
      }
      switch (rng.uniform_int(5)) {
        case 0:  // a few bytes anywhere
          for (std::uint64_t m = 1 + rng.uniform_int(4); m > 0; --m) {
            datagram[rng.uniform_int(datagram.size())] = rng.byte();
          }
          break;
        case 1:  // truncated
          datagram.resize(1 + rng.uniform_int(datagram.size()));
          break;
        case 2:  // trailing garbage
          for (std::uint64_t m = 1 + rng.uniform_int(16); m > 0; --m) {
            datagram.push_back(rng.byte());
          }
          break;
        case 3:  // a header byte: counts, flags, seq or SACK base
          datagram[rng.uniform_int(feedback::kReportHeaderSize)] ^=
              static_cast<std::uint8_t>(1 + rng.uniform_int(255));
          break;
        default:  // intact
          break;
      }
    }
    const std::uint64_t before_plain = counted(plain->stats());
    const std::uint64_t before_keyed = counted(keyed->stats());
    const auto now = static_cast<std::int64_t>(i);
    plain->on_feedback_datagram(datagram, now);
    keyed->on_feedback_datagram(datagram, now);
    ASSERT_GT(counted(plain->stats()), before_plain) << "datagram " << i;
    ASSERT_GT(counted(keyed->stats()), before_keyed) << "datagram " << i;
  }
  for (session::SessionEndpoint* ep : {plain.get(), keyed.get()}) {
    const feedback::RetransmitManager& mgr = *ep->flow_manager(1);
    const auto& st = mgr.stats();
    EXPECT_EQ(st.packets_tracked, 64u);
    EXPECT_EQ(mgr.outstanding() + st.packets_acked + st.packets_displaced +
                  st.packets_abandoned,
              st.packets_tracked);
    EXPECT_LE(st.reports_replayed, st.reports_received);
    EXPECT_EQ(st.reports_received, ep->stats().reports_demuxed);
  }
  EXPECT_GT(plain->flow_manager(1)->stats().reports_received, 0u);
  EXPECT_GT(plain->flow_manager(1)->stats().packets_acked, 0u);
  EXPECT_GT(keyed->stats().reports_auth_failed, 0u);
}

// ---------------------------------------------------------------- receiver

TEST(Fuzz, ReceiverSurvivesGarbageStorm) {
  net::Simulator sim;
  ReceiverConfig cfg;
  cfg.memory_limit_bytes = 64 * 1024;
  cfg.reassembly_timeout = net::from_millis(5);
  Receiver rx(sim, cfg);
  int delivered = 0;
  rx.set_deliver([&](std::uint64_t, std::vector<std::uint8_t>) { ++delivered; });

  Rng rng(5);
  ShareFrame valid;
  valid.payload.assign(200, 1);
  for (int i = 0; i < 50000; ++i) {
    switch (rng.uniform_int(4)) {
      case 0:  // pure garbage
        rx.on_frame(random_buffer(rng, 48));
        break;
      case 1: {  // valid frame, random identity
        valid.packet_id = rng.uniform_int(500);
        valid.k = static_cast<std::uint8_t>(1 + rng.uniform_int(5));
        valid.share_index = static_cast<std::uint8_t>(1 + rng.uniform_int(8));
        rx.on_frame(encode(valid));
        break;
      }
      case 2: {  // mutated valid frame
        auto buf = encode(valid);
        buf[rng.uniform_int(buf.size())] = rng.byte();
        rx.on_frame(std::move(buf));
        break;
      }
      default:  // let timers fire occasionally
        sim.run_until(sim.now() + net::from_micros(100));
        break;
    }
    // Memory accounting must never exceed the configured cap.
    ASSERT_LE(rx.buffered_bytes(), cfg.memory_limit_bytes);
  }
  sim.run();
  EXPECT_EQ(rx.buffered_bytes(), 0u);  // everything evicted or delivered
  EXPECT_GT(delivered, 0);             // some packets did complete
  const auto& stats = rx.stats();
  EXPECT_GT(stats.malformed_frames, 0u);
  // Counter consistency: every frame is accounted exactly once.
  EXPECT_GE(stats.frames_received,
            stats.malformed_frames + stats.duplicate_shares + stats.late_shares);
}

TEST(Fuzz, ReceiverAppendStormNeverExceedsMemoryCap) {
  // Append-heavy variant of the storm: a LONG timeout (so timer-driven
  // eviction cannot mask cap violations) and few packet ids with large
  // k, so most accepted shares APPEND to existing partials — the path
  // that historically bypassed the memory cap entirely.
  net::Simulator sim;
  ReceiverConfig cfg;
  cfg.memory_limit_bytes = 4 * 1024;
  cfg.reassembly_timeout = net::from_seconds(1000);
  Receiver rx(sim, cfg);
  int delivered = 0;
  rx.set_deliver([&](std::uint64_t, std::vector<std::uint8_t>) { ++delivered; });

  Rng rng(9);
  ShareFrame f;
  f.payload.assign(300, 2);
  for (int i = 0; i < 30000; ++i) {
    f.packet_id = rng.uniform_int(32);  // few ids -> mostly appends
    f.k = 5;
    f.share_index = static_cast<std::uint8_t>(1 + rng.uniform_int(8));
    rx.on_frame(encode(f));
    ASSERT_LE(rx.buffered_bytes(), cfg.memory_limit_bytes);
    ASSERT_EQ(rx.tracked_partials(), rx.pending_packets());
  }
  EXPECT_GT(delivered, 0);
  // The cap holds 13 shares and the storm keeps ~32 partials in flight,
  // so staying under it requires memory evictions — and with the timers
  // never firing, ONLY the memory path can have done the evicting.
  EXPECT_GT(rx.stats().packets_evicted_memory, 0u);
  EXPECT_EQ(rx.stats().packets_evicted_timeout, 0u);
}

TEST(Fuzz, ReceiverDeliversOnlyConsistentPackets) {
  // Mix two "versions" of shares for the same packet id with different
  // sizes: the receiver must keep the first and deliver an intact packet
  // of that version, never a franken-packet.
  net::Simulator sim;
  Receiver rx(sim);
  std::vector<std::uint8_t> got;
  rx.set_deliver([&](std::uint64_t, std::vector<std::uint8_t> p) { got = std::move(p); });

  Rng rng(6);
  sss::Share dummy;
  ShareFrame a;
  a.packet_id = 1;
  a.k = 2;
  a.share_index = 1;
  a.payload.assign(50, 0xAA);
  rx.on_frame(encode(a));
  ShareFrame conflicting = a;
  conflicting.share_index = 2;
  conflicting.payload.assign(60, 0xBB);  // different size: rejected
  rx.on_frame(encode(conflicting));
  EXPECT_TRUE(got.empty());
  ShareFrame b = a;
  b.share_index = 2;
  b.payload.assign(50, 0xBB);
  rx.on_frame(encode(b));
  EXPECT_EQ(got.size(), 50u);  // reconstructed from the consistent pair
}

}  // namespace
}  // namespace mcss::proto
