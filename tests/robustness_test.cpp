// Robustness suite: adversarial and random inputs against every
// wire-facing decoder and the receiver state machine. Nothing here may
// crash, hang, leak accounting, or deliver corrupted data.
#include <gtest/gtest.h>

#include <vector>

#include "net/simulator.hpp"
#include "protocol/receiver.hpp"
#include "protocol/wire.hpp"
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
