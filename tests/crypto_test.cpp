// Tests for SipHash-2-4 and the authenticated wire mode, including
// end-to-end behavior over corrupting (Byzantine) channels.
#include <gtest/gtest.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <map>
#include <memory>
#include <vector>

#include "crypto/siphash.hpp"
#include "net/sim_channel.hpp"
#include "net/simulator.hpp"
#include "protocol/receiver.hpp"
#include "protocol/scheduler.hpp"
#include "protocol/sender.hpp"
#include "protocol/wire.hpp"
#include "util/ensure.hpp"
#include "util/rng.hpp"

namespace mcss {
namespace {

crypto::SipHashKey test_key() {
  crypto::SipHashKey key{};
  for (int i = 0; i < 16; ++i) key[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(i);
  return key;
}

// ---------------------------------------------------------------- SipHash

// All 64 vectors_sip64 entries of the reference implementation: key
// 00 01 .. 0f, input = the first n bytes of 00 01 02 ...
constexpr std::uint64_t kSip64[64] = {
  0x726fdb47dd0e0e31ULL, 0x74f839c593dc67fdULL, 0x0d6c8009d9a94f5aULL,
  0x85676696d7fb7e2dULL, 0xcf2794e0277187b7ULL, 0x18765564cd99a68dULL,
  0xcbc9466e58fee3ceULL, 0xab0200f58b01d137ULL, 0x93f5f5799a932462ULL,
  0x9e0082df0ba9e4b0ULL, 0x7a5dbbc594ddb9f3ULL, 0xf4b32f46226bada7ULL,
  0x751e8fbc860ee5fbULL, 0x14ea5627c0843d90ULL, 0xf723ca908e7af2eeULL,
  0xa129ca6149be45e5ULL, 0x3f2acc7f57c29bdbULL, 0x699ae9f52cbe4794ULL,
  0x4bc1b3f0968dd39cULL, 0xbb6dc91da77961bdULL, 0xbed65cf21aa2ee98ULL,
  0xd0f2cbb02e3b67c7ULL, 0x93536795e3a33e88ULL, 0xa80c038ccd5ccec8ULL,
  0xb8ad50c6f649af94ULL, 0xbce192de8a85b8eaULL, 0x17d835b85bbb15f3ULL,
  0x2f2e6163076bcfadULL, 0xde4daaaca71dc9a5ULL, 0xa6a2506687956571ULL,
  0xad87a3535c49ef28ULL, 0x32d892fad841c342ULL, 0x7127512f72f27cceULL,
  0xa7f32346f95978e3ULL, 0x12e0b01abb051238ULL, 0x15e034d40fa197aeULL,
  0x314dffbe0815a3b4ULL, 0x027990f029623981ULL, 0xcadcd4e59ef40c4dULL,
  0x9abfd8766a33735cULL, 0x0e3ea96b5304a7d0ULL, 0xad0c42d6fc585992ULL,
  0x187306c89bc215a9ULL, 0xd4a60abcf3792b95ULL, 0xf935451de4f21df2ULL,
  0xa9538f0419755787ULL, 0xdb9acddff56ca510ULL, 0xd06c98cd5c0975ebULL,
  0xe612a3cb9ecba951ULL, 0xc766e62cfcadaf96ULL, 0xee64435a9752fe72ULL,
  0xa192d576b245165aULL, 0x0a8787bf8ecb74b2ULL, 0x81b3e73d20b49b6fULL,
  0x7fa8220ba3b2eceaULL, 0x245731c13ca42499ULL, 0xb78dbfaf3a8d83bdULL,
  0xea1ad565322a1a0bULL, 0x60e61c23a3795013ULL, 0x6606d7e446282b93ULL,
  0x6ca4ecb15c5f91e1ULL, 0x9f626da15c9625f3ULL, 0xe51b38608ef25f57ULL,
  0x958a324ceb064572ULL};

// Longer inputs of the same pattern (byte i = i mod 256), generated with
// `openssl mac -macopt hexkey:000102030405060708090a0b0c0d0e0f -macopt
// size:8 SIPHASH`; OpenSSL prints the tag bytes, the little-endian u64.
// 148 B is a 128 B share frame with session header and tag; 1494 B a
// 1470 B one.
struct LongVector {
  std::size_t len;
  std::uint64_t tag;
};
constexpr LongVector kLongVectors[] = {
    {148, 0x6b43e064b58e29c2ULL},
    {1494, 0xe36335b0c1386fb1ULL},
    {2048, 0x582a61348f802d9fULL},
};

std::vector<std::uint8_t> counting_bytes(std::size_t n) {
  std::vector<std::uint8_t> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<std::uint8_t>(i);
  return v;
}

/// Every lane kernel this host can run (Portable always).
std::vector<crypto::LaneKernel> supported_tiers() {
  std::vector<crypto::LaneKernel> tiers;
  for (const auto k : {crypto::LaneKernel::Portable, crypto::LaneKernel::Avx2}) {
    if (crypto::lane_kernel_supported(k)) tiers.push_back(k);
  }
  return tiers;
}

std::vector<std::uint64_t> lanes(crypto::LaneKernel tier,
                                 const std::vector<std::vector<std::uint8_t>>& msgs,
                                 const crypto::SipHashKey& key) {
  std::vector<std::span<const std::uint8_t>> views(msgs.begin(), msgs.end());
  std::vector<std::uint64_t> out(msgs.size());
  crypto::siphash24_lanes(tier, views, key, out);
  return out;
}

TEST(SipHash, ReferenceVectors) {
  const auto key = test_key();
  for (std::size_t n = 0; n < 64; ++n) {
    EXPECT_EQ(crypto::siphash24(counting_bytes(n), key), kSip64[n])
        << "length " << n;
  }
}

TEST(SipHash, OpenSslLongVectors) {
  const auto key = test_key();
  for (const auto& v : kLongVectors) {
    EXPECT_EQ(crypto::siphash24(counting_bytes(v.len), key), v.tag)
        << "length " << v.len;
  }
}

TEST(SipHash, LongInputsAreStable) {
  // Multi-block inputs (> 8 bytes) exercise the block loop; determinism
  // and avalanche checked against a second computation.
  const auto key = test_key();
  std::vector<std::uint8_t> data(1000);
  Rng rng(1);
  for (auto& b : data) b = rng.byte();
  const auto h1 = crypto::siphash24(data, key);
  EXPECT_EQ(h1, crypto::siphash24(data, key));
  data[500] ^= 0x01;
  EXPECT_NE(h1, crypto::siphash24(data, key));
}

TEST(SipHash, KeySensitivity) {
  const std::vector<std::uint8_t> data{1, 2, 3, 4, 5};
  auto k1 = test_key();
  auto k2 = test_key();
  k2[15] ^= 0x80;
  EXPECT_NE(crypto::siphash24(data, k1), crypto::siphash24(data, k2));
}

TEST(SipHash, AvalancheOnSingleBitFlips) {
  // Every single-bit flip of a 64-byte message must change the tag.
  const auto key = test_key();
  std::vector<std::uint8_t> data(64);
  Rng rng(2);
  for (auto& b : data) b = rng.byte();
  const auto baseline = crypto::siphash24(data, key);
  for (std::size_t bit = 0; bit < data.size() * 8; ++bit) {
    data[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    EXPECT_NE(crypto::siphash24(data, key), baseline) << "bit " << bit;
    data[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
  }
}

TEST(SipHash, TagHelpersRoundtrip) {
  const auto key = test_key();
  const std::vector<std::uint8_t> data{9, 8, 7};
  const auto tag = crypto::siphash24_tag(data, key);
  EXPECT_TRUE(crypto::tag_equal(tag, crypto::siphash24_tag(data, key)));
  auto other = tag;
  other[0] ^= 1;
  EXPECT_FALSE(crypto::tag_equal(tag, other));
  EXPECT_FALSE(crypto::tag_equal(tag, std::vector<std::uint8_t>{1, 2}));
}

// ------------------------------------------------------------ SipHash lanes

TEST(SipHashLanes, ActiveKernelIsSupported) {
  EXPECT_TRUE(crypto::lane_kernel_supported(crypto::active_lane_kernel()));
  EXPECT_TRUE(crypto::lane_kernel_supported(crypto::LaneKernel::Portable));
}

TEST(SipHashLanes, ReferenceVectorsOnEveryTier) {
  // The 64 reference inputs as one batch (16 full groups of 4 lanes,
  // each group mixing lengths), plus the long vectors as a batch of 3
  // (a short group: the idle lane repeats the last message).
  const auto key = test_key();
  std::vector<std::vector<std::uint8_t>> msgs;
  for (std::size_t n = 0; n < 64; ++n) msgs.push_back(counting_bytes(n));
  std::vector<std::vector<std::uint8_t>> longs;
  for (const auto& v : kLongVectors) longs.push_back(counting_bytes(v.len));
  for (const auto tier : supported_tiers()) {
    SCOPED_TRACE(crypto::lane_kernel_name(tier));
    const auto out = lanes(tier, msgs, key);
    for (std::size_t n = 0; n < 64; ++n) {
      EXPECT_EQ(out[n], kSip64[n]) << "length " << n;
    }
    const auto long_out = lanes(tier, longs, key);
    for (std::size_t i = 0; i < longs.size(); ++i) {
      EXPECT_EQ(long_out[i], kLongVectors[i].tag)
          << "length " << kLongVectors[i].len;
    }
    // And four copies of one long vector: all lanes run every block.
    const std::vector<std::vector<std::uint8_t>> same(4, counting_bytes(1494));
    for (const auto h : lanes(tier, same, key)) {
      EXPECT_EQ(h, kLongVectors[1].tag);
    }
  }
}

TEST(SipHashLanes, DefaultEntryPointMatchesScalar) {
  const auto key = test_key();
  std::vector<std::vector<std::uint8_t>> msgs;
  const std::size_t lengths[] = {0, 1, 8, 148, 1494, 2048, 40};
  for (const std::size_t n : lengths) {
    msgs.push_back(counting_bytes(n));
  }
  std::vector<std::span<const std::uint8_t>> views(msgs.begin(), msgs.end());
  std::vector<std::uint64_t> out(msgs.size());
  crypto::siphash24_lanes(views, key, out);
  for (std::size_t i = 0; i < msgs.size(); ++i) {
    EXPECT_EQ(out[i], crypto::siphash24(msgs[i], key)) << i;
  }
}

TEST(SipHashLanes, RandomLengthsAndCountsMatchScalarOnEveryTier) {
  // Counts 1..17 (every remainder mod 4, and past one 16-message batch),
  // lengths uniform in 0..2048 so groups mix lengths freely.
  Rng rng(41);
  for (const auto tier : supported_tiers()) {
    SCOPED_TRACE(crypto::lane_kernel_name(tier));
    for (int round = 0; round < 6; ++round) {
      crypto::SipHashKey key;
      rng.fill(key);
      for (std::size_t count = 1; count <= 17; ++count) {
        std::vector<std::vector<std::uint8_t>> msgs(count);
        for (auto& m : msgs) {
          m.resize(rng.uniform_int(2049));
          rng.fill(m);
        }
        const auto out = lanes(tier, msgs, key);
        for (std::size_t i = 0; i < count; ++i) {
          ASSERT_EQ(out[i], crypto::siphash24(msgs[i], key))
              << "count " << count << " message " << i << " length "
              << msgs[i].size();
        }
      }
    }
  }
}

TEST(SipHashLanes, MixedLengthGroupsMatchScalarOnEveryTier) {
  // Hand-picked groups around block boundaries: empty next to long, one
  // short member holding three long ones, lengths 7/8/9, and a
  // 70-message batch of scattered lengths.
  const auto key = test_key();
  const std::vector<std::vector<std::size_t>> groups = {
      {0, 2048, 2048, 2048},
      {7, 8, 9, 1494},
      {148, 1494, 148, 1494, 148, 1494, 40},
      {15, 16, 17, 23, 24, 25, 31, 32, 33},
      {1494, 1494, 1494, 1486},
  };
  std::vector<std::size_t> many;
  for (std::size_t i = 0; i < 70; ++i) many.push_back((i * 37) % 300);
  std::vector<std::vector<std::size_t>> all = groups;
  all.push_back(many);
  Rng rng(43);
  for (const auto tier : supported_tiers()) {
    SCOPED_TRACE(crypto::lane_kernel_name(tier));
    for (const auto& lengths : all) {
      std::vector<std::vector<std::uint8_t>> msgs;
      for (const auto len : lengths) {
        msgs.emplace_back(len);
        rng.fill(msgs.back());
      }
      const auto out = lanes(tier, msgs, key);
      for (std::size_t i = 0; i < msgs.size(); ++i) {
        EXPECT_EQ(out[i], crypto::siphash24(msgs[i], key))
            << "length " << msgs[i].size();
      }
    }
  }
}

TEST(SipHashLanes, ReadsNoBytePastAnyMessageOnEveryTier) {
  // Each message sits flush against a PROT_NONE page — at the end of its
  // readable page, or at its start with the guard in front — so any read
  // outside the message faults.
  const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  constexpr std::size_t kMsgs = 5;
  // Per message: guard, readable page, guard.
  const std::size_t bytes = kMsgs * 3 * page;
  void* base = mmap(nullptr, bytes, PROT_NONE, MAP_PRIVATE | MAP_ANONYMOUS,
                    -1, 0);
  ASSERT_NE(base, MAP_FAILED);
  auto* region = static_cast<std::uint8_t*>(base);
  for (std::size_t i = 0; i < kMsgs; ++i) {
    ASSERT_EQ(mprotect(region + (3 * i + 1) * page, page,
                       PROT_READ | PROT_WRITE),
              0);
  }
  const auto key = test_key();
  Rng rng(47);
  for (const auto tier : supported_tiers()) {
    SCOPED_TRACE(crypto::lane_kernel_name(tier));
    for (const bool at_end : {true, false}) {
      const std::size_t lengths[] = {0, 1, 7, 8, 9, 148, 1494, 2048};
      for (const std::size_t len : lengths) {
        std::vector<std::span<const std::uint8_t>> msgs;
        for (std::size_t i = 0; i < kMsgs; ++i) {
          // Lengths differ per message so lanes finish at different
          // blocks; every message still touches its guard page.
          const std::size_t n = std::min<std::size_t>(len + i, page);
          std::uint8_t* readable = region + (3 * i + 1) * page;
          std::uint8_t* start = at_end ? readable + page - n : readable;
          std::span<std::uint8_t> m(start, n);
          rng.fill(m);
          msgs.push_back(m);
        }
        std::vector<std::uint64_t> out(kMsgs);
        crypto::siphash24_lanes(tier, msgs, key, out);
        for (std::size_t i = 0; i < kMsgs; ++i) {
          EXPECT_EQ(out[i], crypto::siphash24(msgs[i], key));
        }
      }
    }
  }
  munmap(base, bytes);
}

TEST(SipHashLanes, RejectsMismatchedOutputSize) {
  const auto key = test_key();
  const std::vector<std::uint8_t> data(16, 1);
  const std::vector<std::span<const std::uint8_t>> msgs(3, data);
  std::vector<std::uint64_t> out(2);
  EXPECT_THROW(crypto::siphash24_lanes(msgs, key, out), PreconditionError);
}

// ---------------------------------------------------------------- wire auth

TEST(WireAuth, TaggedRoundtrip) {
  const auto key = test_key();
  proto::ShareFrame f;
  f.packet_id = 7;
  f.k = 2;
  f.share_index = 3;
  f.payload = {1, 2, 3, 4};
  const auto bytes = proto::encode(f, &key);
  EXPECT_EQ(bytes.size(), proto::kHeaderSize + 4 + proto::kTagSize);

  proto::DecodeStatus status;
  const auto back = proto::decode(bytes, &key, &status);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(status, proto::DecodeStatus::Ok);
  EXPECT_EQ(*back, f);
}

TEST(WireAuth, TamperedFrameFailsAuthentication) {
  const auto key = test_key();
  proto::ShareFrame f;
  f.packet_id = 7;
  f.k = 2;
  f.share_index = 3;
  f.payload = {1, 2, 3, 4};
  auto bytes = proto::encode(f, &key);

  for (const std::size_t at : {std::size_t{3},                   // header (k)
                               proto::kHeaderSize + 1,           // payload
                               bytes.size() - 1}) {              // tag itself
    auto tampered = bytes;
    tampered[at] ^= 0x40;
    proto::DecodeStatus status;
    EXPECT_FALSE(proto::decode(tampered, &key, &status).has_value()) << at;
    EXPECT_EQ(status, proto::DecodeStatus::AuthFailed) << at;
  }
}

TEST(WireAuth, KeyedReceiverRejectsUnauthenticatedFrames) {
  const auto key = test_key();
  proto::ShareFrame f;
  f.packet_id = 1;
  f.k = 1;
  f.share_index = 1;
  f.payload = {5};
  const auto plain = proto::encode(f);  // no tag
  proto::DecodeStatus status;
  EXPECT_FALSE(proto::decode(plain, &key, &status).has_value());
  EXPECT_EQ(status, proto::DecodeStatus::AuthFailed);
}

TEST(WireAuth, WrongKeyFailsAuthentication) {
  const auto key = test_key();
  auto wrong = key;
  wrong[0] ^= 1;
  proto::ShareFrame f;
  f.packet_id = 1;
  f.k = 1;
  f.share_index = 1;
  f.payload = {5};
  const auto bytes = proto::encode(f, &key);
  proto::DecodeStatus status;
  EXPECT_FALSE(proto::decode(bytes, &wrong, &status).has_value());
  EXPECT_EQ(status, proto::DecodeStatus::AuthFailed);
}

TEST(WireAuth, UnkeyedDecodeParsesTaggedFrame) {
  // Observation tooling without the key can still parse (not verify).
  const auto key = test_key();
  proto::ShareFrame f;
  f.packet_id = 1;
  f.k = 1;
  f.share_index = 1;
  f.payload = {5};
  const auto bytes = proto::encode(f, &key);
  const auto back = proto::decode(bytes);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->payload, f.payload);
}

// ------------------------------------------------ batch seal / decode

proto::ShareFrame batch_frame(std::uint64_t id, std::size_t len,
                              std::uint32_t cid = 0) {
  proto::ShareFrame f;
  f.packet_id = id;
  f.k = 2;
  f.share_index = static_cast<std::uint8_t>(1 + id % 200);
  f.connection_id = cid;
  f.generation = static_cast<std::uint8_t>(id % 3);
  f.payload.resize(len);
  for (std::size_t i = 0; i < len; ++i) {
    f.payload[i] = static_cast<std::uint8_t>(id * 31 + i);
  }
  return f;
}

TEST(WireAuth, SealFramesTagsEqualScalarSipHashPerFrame) {
  // 37 frames (past one 32-frame lane batch) of mixed sizes, headers
  // written first and payloads in place, then one seal_frames call.
  const auto key = test_key();
  std::vector<proto::ShareFrame> frames;
  for (std::uint64_t i = 0; i < 37; ++i) {
    frames.push_back(batch_frame(i + 1, (i * 97) % 1500, i % 2 == 0 ? 9 : 0));
  }
  std::vector<std::vector<std::uint8_t>> bufs;
  for (const auto& f : frames) {
    bufs.emplace_back(proto::encoded_size(f, /*keyed=*/true));
    const proto::FrameMeta meta{f.packet_id, f.k, f.share_index, f.generation,
                                f.connection_id};
    const std::size_t off = proto::encode_header_into(
        meta, f.payload.size(), bufs.back(), /*keyed=*/true);
    std::copy(f.payload.begin(), f.payload.end(), bufs.back().begin() +
                                                      static_cast<long>(off));
  }
  std::vector<std::span<std::uint8_t>> spans(bufs.begin(), bufs.end());
  proto::seal_frames(spans, key);
  for (std::size_t i = 0; i < frames.size(); ++i) {
    const auto body =
        std::span<const std::uint8_t>(bufs[i]).first(bufs[i].size() -
                                                     proto::kTagSize);
    const auto tag = crypto::siphash24_tag(body, key);
    EXPECT_TRUE(std::equal(tag.begin(), tag.end(), bufs[i].end() - 8)) << i;
    // Byte-identical to the single-frame encoder.
    EXPECT_EQ(bufs[i], proto::encode(frames[i], &key)) << i;
  }
}

TEST(WireAuth, DecodeViewsFailsBadFramesOneByOne) {
  const auto key = test_key();
  auto wrong = key;
  wrong[5] ^= 0x10;
  // 40 slots: mostly valid keyed frames, with every failure kind planted
  // among them (some past the 32-frame lane batch boundary).
  std::vector<std::vector<std::uint8_t>> bufs;
  std::vector<proto::DecodeStatus> expect;
  std::vector<proto::ShareFrame> sent;
  for (std::uint64_t i = 0; i < 40; ++i) {
    const auto f = batch_frame(i + 1, 40 + (i * 53) % 1460, 7);
    auto bytes = proto::encode(f, &key);
    auto want = proto::DecodeStatus::Ok;
    switch (i % 8) {
      case 1:  // tampered payload byte
        bytes[proto::kHeaderSize + 6] ^= 0x01;
        want = proto::DecodeStatus::AuthFailed;
        break;
      case 3:  // truncated: the tag's last byte is gone
        bytes.pop_back();
        want = proto::DecodeStatus::Malformed;
        break;
      case 4:  // unauthenticated frame at a keyed decoder
        bytes = proto::encode(f);
        want = proto::DecodeStatus::AuthFailed;
        break;
      case 6:  // tagged under the wrong key
        bytes = proto::encode(f, &wrong);
        want = proto::DecodeStatus::AuthFailed;
        break;
      case 7:
        if (i == 39) {  // trailing junk after a good frame
          bytes.push_back(0xAB);
          want = proto::DecodeStatus::Malformed;
        }
        break;
      default:
        break;
    }
    bufs.push_back(std::move(bytes));
    expect.push_back(want);
    sent.push_back(f);
  }
  std::vector<std::span<const std::uint8_t>> frames(bufs.begin(), bufs.end());
  std::vector<proto::FrameView> views(frames.size());
  std::vector<proto::DecodeStatus> status(frames.size());
  proto::decode_views(frames, &key, views, status);
  for (std::size_t i = 0; i < frames.size(); ++i) {
    ASSERT_EQ(status[i], expect[i]) << "frame " << i;
    if (expect[i] != proto::DecodeStatus::Ok) continue;
    const auto& v = views[i];
    EXPECT_TRUE(v.authenticated) << i;
    EXPECT_EQ(v.packet_id, sent[i].packet_id);
    EXPECT_EQ(v.share_index, sent[i].share_index);
    EXPECT_EQ(v.generation, sent[i].generation);
    EXPECT_EQ(v.connection_id, sent[i].connection_id);
    EXPECT_TRUE(std::equal(v.payload.begin(), v.payload.end(),
                           sent[i].payload.begin(), sent[i].payload.end()));
    // Zero-copy: the payload views the frame's own buffer.
    EXPECT_GE(v.payload.data(), bufs[i].data());
    EXPECT_LT(v.payload.data(), bufs[i].data() + bufs[i].size());
  }
  // Batch-of-one agrees frame by frame.
  for (std::size_t i = 0; i < frames.size(); ++i) {
    proto::DecodeStatus one = proto::DecodeStatus::Ok;
    EXPECT_EQ(proto::decode_view(frames[i], &key, &one).has_value(),
              expect[i] == proto::DecodeStatus::Ok);
    EXPECT_EQ(one, expect[i]) << i;
  }
}

TEST(WireAuth, UnkeyedBatchDecodeParsesButDoesNotVerify) {
  const auto key = test_key();
  const auto bytes = proto::encode(batch_frame(5, 64), &key);
  const std::span<const std::uint8_t> frame(bytes);
  proto::FrameView view;
  proto::DecodeStatus status = proto::DecodeStatus::AuthFailed;
  proto::decode_views({&frame, 1}, nullptr, {&view, 1}, {&status, 1});
  EXPECT_EQ(status, proto::DecodeStatus::Ok);
  EXPECT_FALSE(view.authenticated);
  EXPECT_EQ(view.packet_id, 5u);
}

TEST(WireAuth, KeyedReceiverRefusesViewsNotVerifiedUnderAKey) {
  // The decoded-view entry point is no trusted side door: a view from a
  // keyless decode counts as an auth failure and leaves no state.
  const auto key = test_key();
  net::Simulator sim;
  proto::ReceiverConfig rc;
  rc.auth_key = key;
  proto::Receiver rx(sim, rc);
  auto f = batch_frame(1, 64);
  f.generation = 0;
  const auto bytes = proto::encode(f, &key);
  const std::span<const std::uint8_t> frame(bytes);

  proto::FrameView view;
  proto::DecodeStatus status = proto::DecodeStatus::Ok;
  proto::decode_views({&frame, 1}, nullptr, {&view, 1}, {&status, 1});
  rx.on_frame(status, view);
  EXPECT_EQ(rx.stats().auth_failures, 1u);
  EXPECT_EQ(rx.pending_packets(), 0u);

  proto::decode_views({&frame, 1}, rx.auth_key(), {&view, 1}, {&status, 1});
  rx.on_frame(status, view);
  EXPECT_EQ(rx.stats().auth_failures, 1u);
  EXPECT_EQ(rx.pending_packets(), 1u);
  EXPECT_EQ(rx.stats().frames_received, 2u);
}

// ------------------------------------------------- end to end, Byzantine

struct AuthTestbed {
  net::Simulator sim;
  std::vector<std::unique_ptr<net::SimChannel>> channels;
  std::unique_ptr<proto::Receiver> receiver;
  std::unique_ptr<proto::Sender> sender;
  std::map<std::uint64_t, std::vector<std::uint8_t>> delivered;

  AuthTestbed(double corrupt_prob, bool keyed) {
    Rng seeder(11);
    std::vector<net::SimChannel*> raw;
    for (int i = 0; i < 5; ++i) {
      net::ChannelConfig cfg;
      cfg.rate_bps = 100e6;
      cfg.corrupt = corrupt_prob;
      channels.push_back(std::make_unique<net::SimChannel>(sim, cfg, seeder.fork()));
      raw.push_back(channels.back().get());
    }
    proto::ReceiverConfig rx_cfg;
    proto::SenderConfig tx_cfg;
    if (keyed) {
      rx_cfg.auth_key = test_key();
      tx_cfg.auth_key = test_key();
    }
    receiver = std::make_unique<proto::Receiver>(sim, rx_cfg);
    for (auto* ch : raw) receiver->attach(*ch);
    receiver->set_deliver([this](std::uint64_t id, std::vector<std::uint8_t> p) {
      delivered[id] = std::move(p);
    });
    sender = std::make_unique<proto::Sender>(
        sim, raw, std::make_unique<proto::DynamicScheduler>(2.0, 4.0, 5),
        seeder.fork(), nullptr, tx_cfg);
  }
};

std::vector<std::uint8_t> marked_payload(int i) {
  std::vector<std::uint8_t> p(600);
  for (std::size_t j = 0; j < p.size(); ++j) {
    p[j] = static_cast<std::uint8_t>(i * 7 + static_cast<int>(j));
  }
  return p;
}

TEST(WireAuth, CorruptionSilentlyPoisonsUnauthenticatedPackets) {
  // Without authentication, a corrupted share reconstructs to garbage
  // with NO error: at least one delivered payload differs from what was
  // sent. This is the failure mode the authenticated mode exists for.
  AuthTestbed t(/*corrupt_prob=*/0.05, /*keyed=*/false);
  const int count = 400;
  for (int i = 0; i < count; ++i) {
    t.sim.schedule_at(net::from_micros(static_cast<double>(i) * 300),
                      [&t, i] { (void)t.sender->send(marked_payload(i)); });
  }
  t.sim.run();
  int poisoned = 0;
  for (const auto& [id, payload] : t.delivered) {
    if (payload != marked_payload(static_cast<int>(id) - 1)) ++poisoned;
  }
  EXPECT_GT(poisoned, 0);
  EXPECT_EQ(t.receiver->stats().auth_failures, 0u);
}

TEST(WireAuth, AuthenticationQuarantinesCorruptedShares) {
  // Same Byzantine network, keyed endpoints: every delivered packet is
  // intact; corrupted shares are counted and dropped, and packets whose
  // surviving share count fell below k are lost, not poisoned.
  AuthTestbed t(/*corrupt_prob=*/0.05, /*keyed=*/true);
  const int count = 400;
  for (int i = 0; i < count; ++i) {
    t.sim.schedule_at(net::from_micros(static_cast<double>(i) * 300),
                      [&t, i] { (void)t.sender->send(marked_payload(i)); });
  }
  t.sim.run();
  EXPECT_GT(t.receiver->stats().auth_failures, 0u);
  for (const auto& [id, payload] : t.delivered) {
    ASSERT_EQ(payload, marked_payload(static_cast<int>(id) - 1)) << id;
  }
  // k=2, m=4 tolerates two corrupted shares per packet: most packets
  // still make it.
  EXPECT_GT(t.delivered.size(), static_cast<std::size_t>(count) * 9 / 10);
}

TEST(WireAuth, KeyMismatchDeliversNothing) {
  AuthTestbed t(0.0, /*keyed=*/true);
  // Rewire the receiver with a different key.
  proto::ReceiverConfig rx_cfg;
  auto other = test_key();
  other[7] ^= 0xFF;
  rx_cfg.auth_key = other;
  auto fresh = std::make_unique<proto::Receiver>(t.sim, rx_cfg);
  for (auto& ch : t.channels) fresh->attach(*ch);
  int delivered = 0;
  fresh->set_deliver([&](std::uint64_t, std::vector<std::uint8_t>) { ++delivered; });
  for (int i = 0; i < 20; ++i) {
    (void)t.sender->send(marked_payload(i));
  }
  t.sim.run();
  EXPECT_EQ(delivered, 0);
  EXPECT_GT(fresh->stats().auth_failures, 0u);
}

}  // namespace
}  // namespace mcss
