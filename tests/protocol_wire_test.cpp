// Tests for the share wire format and the (kappa, mu) dither.
#include <gtest/gtest.h>

#include <optional>
#include <span>
#include <vector>

#include "protocol/dither.hpp"
#include "protocol/wire.hpp"
#include "util/ensure.hpp"

namespace mcss::proto {
namespace {

// ---------------------------------------------------------------- wire

TEST(Wire, RoundtripBasic) {
  ShareFrame f;
  f.packet_id = 0x0123456789ABCDEFULL;
  f.k = 3;
  f.share_index = 7;
  f.payload = {1, 2, 3, 4, 5};
  const auto bytes = encode(f);
  EXPECT_EQ(bytes.size(), kHeaderSize + 5);
  const auto back = decode(bytes);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, f);
}

TEST(Wire, RoundtripEmptyPayload) {
  ShareFrame f;
  f.packet_id = 1;
  f.k = 1;
  f.share_index = 1;
  const auto back = decode(encode(f));
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(back->payload.empty());
}

TEST(Wire, RoundtripMaxPayload) {
  ShareFrame f;
  f.packet_id = 42;
  f.k = 255;
  f.share_index = 255;
  f.payload.assign(kMaxPayload, 0x5A);
  const auto back = decode(encode(f));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->payload.size(), kMaxPayload);
}

TEST(Wire, EncodeRejectsInvalid) {
  ShareFrame f;
  f.k = 0;
  f.share_index = 1;
  EXPECT_THROW((void)encode(f), PreconditionError);
  f.k = 1;
  f.share_index = 0;
  EXPECT_THROW((void)encode(f), PreconditionError);
}

TEST(Wire, DecodeRejectsMalformed) {
  ShareFrame f;
  f.packet_id = 7;
  f.k = 2;
  f.share_index = 3;
  f.payload = {9, 9, 9};
  auto good = encode(f);

  // Too short.
  EXPECT_FALSE(decode(std::vector<std::uint8_t>(kHeaderSize - 1, 0)).has_value());
  // Bad magic.
  auto bad = good;
  bad[0] ^= 0xFF;
  EXPECT_FALSE(decode(bad).has_value());
  // Bad version.
  bad = good;
  bad[2] = 99;
  EXPECT_FALSE(decode(bad).has_value());
  // Zero threshold.
  bad = good;
  bad[3] = 0;
  EXPECT_FALSE(decode(bad).has_value());
  // Zero share index.
  bad = good;
  bad[12] = 0;
  EXPECT_FALSE(decode(bad).has_value());
  // Unknown flags (0x01 = authenticated, 0x02 = generation, and
  // 0x04 = connection id are defined; 0x08 is the first reserved bit).
  bad = good;
  bad[13] = 0x08;
  EXPECT_FALSE(decode(bad).has_value());
  // Connection flag set without the 4 id bytes: truncated frame.
  bad = good;
  bad[13] = kFlagConnectionId;
  EXPECT_FALSE(decode(bad).has_value());
  // Length mismatch: truncated payload.
  bad = good;
  bad.pop_back();
  EXPECT_FALSE(decode(bad).has_value());
  // Length mismatch: trailing junk.
  bad = good;
  bad.push_back(0);
  EXPECT_FALSE(decode(bad).has_value());
  // The untouched frame still parses.
  EXPECT_TRUE(decode(good).has_value());
}

ShareFrame sample_frame(std::uint64_t id, std::uint8_t index,
                        std::size_t payload_len) {
  ShareFrame f;
  f.packet_id = id;
  f.k = 2;
  f.share_index = index;
  f.payload.assign(payload_len, static_cast<std::uint8_t>(0xA0 + index));
  return f;
}

/// Cut one frame off the head of `rest` the way the live transport
/// splits a coalesced datagram: frame_extent() finds where the frame
/// ends, decode_view() decodes exactly that extent. On success `rest`
/// moves past the frame and the frame comes back owned; on failure
/// `rest` is left as it was and `status` says why.
std::optional<ShareFrame> take_frame(std::span<const std::uint8_t>& rest,
                                     const crypto::SipHashKey* key = nullptr,
                                     DecodeStatus* status = nullptr) {
  const auto extent = frame_extent(rest);
  if (!extent) {
    if (status != nullptr) *status = DecodeStatus::Malformed;
    return std::nullopt;
  }
  const auto view = decode_view(rest.first(*extent), key, status);
  if (!view) return std::nullopt;
  rest = rest.subspan(*extent);
  return ShareFrame{view->packet_id, view->k, view->share_index,
                    view->generation, view->connection_id,
                    {view->payload.begin(), view->payload.end()}};
}

// ------------------------------------------------------------- generation

TEST(Wire, HeaderThenSealMatchesEncode) {
  // The sender's split-into-slot path writes the header first, fills the
  // payload in place, and seals; the bytes must match one-shot encode()
  // in both keyed and unkeyed modes.
  ShareFrame f;
  f.packet_id = 0xFEEDFACECAFEULL;
  f.k = 2;
  f.share_index = 3;
  f.generation = 5;
  f.payload = {9, 8, 7, 6};
  const crypto::SipHashKey key{1, 2,  3,  4,  5,  6,  7,  8,
                               9, 10, 11, 12, 13, 14, 15, 16};
  for (const bool keyed : {false, true}) {
    const crypto::SipHashKey* kp = keyed ? &key : nullptr;
    const auto expected = encode(f, kp);

    const FrameMeta meta{f.packet_id, f.k, f.share_index, f.generation};
    ASSERT_EQ(encoded_size(f.payload.size(), f.generation, keyed),
              expected.size());
    std::vector<std::uint8_t> got(expected.size());
    const std::size_t off =
        encode_header_into(meta, f.payload.size(), got, keyed);
    std::copy(f.payload.begin(), f.payload.end(),
              got.begin() + static_cast<std::ptrdiff_t>(off));
    if (keyed) seal_frame(got, key);
    EXPECT_EQ(got, expected) << (keyed ? "keyed" : "unkeyed");
  }
}

TEST(Wire, GenerationRoundtrip) {
  ShareFrame f;
  f.packet_id = 99;
  f.k = 3;
  f.share_index = 4;
  f.generation = 7;
  f.payload = {1, 2, 3};
  const auto bytes = encode(f);
  EXPECT_EQ(bytes.size(), kHeaderSize + 1 + 3);  // extension byte present
  const auto back = decode(bytes);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, f);
  EXPECT_EQ(back->generation, 7);

  // Authenticated retransmissions: tag covers the extension byte too.
  const crypto::SipHashKey key{1, 2,  3,  4,  5,  6,  7,  8,
                               9, 10, 11, 12, 13, 14, 15, 16};
  auto tagged = encode(f, &key);
  const auto back2 = decode(tagged, &key);
  ASSERT_TRUE(back2.has_value());
  EXPECT_EQ(*back2, f);
  tagged[kHeaderSize] ^= 0x01;  // flip the generation byte
  EXPECT_FALSE(decode(tagged, &key).has_value());
}

TEST(Wire, GenerationZeroIsByteIdenticalToLegacyEncoding) {
  // Original transmissions must not change on the wire just because the
  // reliability layer exists: generation 0 omits the extension byte.
  ShareFrame f;
  f.packet_id = 5;
  f.k = 2;
  f.share_index = 1;
  f.payload = {0xAA, 0xBB};
  const auto bytes = encode(f);
  EXPECT_EQ(bytes.size(), kHeaderSize + 2);
  EXPECT_EQ(bytes[13], 0);  // no flag bits
  const auto back = decode(bytes);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->generation, 0);
}

TEST(Wire, NonCanonicalGenerationZeroRejected) {
  // The flag set with generation byte 0 would give one frame two
  // encodings; the canonical form omits the byte, the other is refused.
  ShareFrame f;
  f.packet_id = 5;
  f.k = 2;
  f.share_index = 1;
  f.generation = 1;
  f.payload = {0xAA};
  auto bytes = encode(f);
  ASSERT_EQ(bytes[13], kFlagGeneration);
  bytes[kHeaderSize] = 0;  // generation byte -> 0, flag still set
  DecodeStatus status = DecodeStatus::Ok;
  EXPECT_FALSE(decode(bytes, nullptr, &status).has_value());
  EXPECT_EQ(status, DecodeStatus::Malformed);
}

// ------------------------------------------------------------ connection id

TEST(Wire, ConnectionIdRoundtrip) {
  ShareFrame f;
  f.packet_id = 77;
  f.k = 3;
  f.share_index = 2;
  f.connection_id = 0xDEADBEEF;
  f.payload = {4, 5, 6};
  const auto bytes = encode(f);
  EXPECT_EQ(bytes.size(), kHeaderSize + kConnectionIdSize + 3);
  EXPECT_EQ(bytes[13], kFlagConnectionId);
  const auto back = decode(bytes);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, f);

  // Generation + connection id together: generation byte first, then the
  // 4 id bytes, per the header layout.
  f.generation = 9;
  const auto both = encode(f);
  EXPECT_EQ(both.size(), kHeaderSize + 1 + kConnectionIdSize + 3);
  EXPECT_EQ(both[13], kFlagGeneration | kFlagConnectionId);
  EXPECT_EQ(both[kHeaderSize], 9);
  const auto back2 = decode(both);
  ASSERT_TRUE(back2.has_value());
  EXPECT_EQ(*back2, f);

  // Authenticated: the tag covers the connection id, so flipping one of
  // its bytes must fail auth (a forged demux would misroute shares).
  const crypto::SipHashKey key{1, 2,  3,  4,  5,  6,  7,  8,
                               9, 10, 11, 12, 13, 14, 15, 16};
  auto tagged = encode(f, &key);
  ASSERT_TRUE(decode(tagged, &key).has_value());
  tagged[kHeaderSize + 1] ^= 0x01;  // first connection-id byte
  EXPECT_FALSE(decode(tagged, &key).has_value());
}

TEST(Wire, ConnectionZeroIsByteIdenticalToLegacyEncoding) {
  // Single-flow frames must not change on the wire just because the
  // session layer exists: connection 0 omits the field.
  ShareFrame f;
  f.packet_id = 5;
  f.k = 2;
  f.share_index = 1;
  f.payload = {0xAA, 0xBB};
  const auto bytes = encode(f);
  EXPECT_EQ(bytes.size(), kHeaderSize + 2);
  EXPECT_EQ(bytes[13], 0);  // no flag bits
  const auto back = decode(bytes);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->connection_id, 0u);
}

TEST(Wire, NonCanonicalConnectionZeroRejected) {
  // The flag set with a zero id would give one frame two encodings; the
  // canonical form omits the field, the other is refused.
  ShareFrame f;
  f.packet_id = 5;
  f.k = 2;
  f.share_index = 1;
  f.connection_id = 1;
  f.payload = {0xAA};
  auto bytes = encode(f);
  ASSERT_EQ(bytes[13], kFlagConnectionId);
  for (std::size_t i = 0; i < kConnectionIdSize; ++i) {
    bytes[kHeaderSize + i] = 0;  // id -> 0, flag still set
  }
  DecodeStatus status = DecodeStatus::Ok;
  EXPECT_FALSE(decode(bytes, nullptr, &status).has_value());
  EXPECT_EQ(status, DecodeStatus::Malformed);
}

TEST(Wire, FrameViewDecodesInPlace) {
  // The zero-copy path: the view's payload must be a span into the
  // caller's buffer, not a copy, with every header field intact.
  ShareFrame f;
  f.packet_id = 1234;
  f.k = 4;
  f.share_index = 6;
  f.generation = 2;
  f.connection_id = 42;
  f.payload = {10, 20, 30, 40, 50};
  const crypto::SipHashKey key{1, 2,  3,  4,  5,  6,  7,  8,
                               9, 10, 11, 12, 13, 14, 15, 16};
  for (const bool keyed : {false, true}) {
    const crypto::SipHashKey* kp = keyed ? &key : nullptr;
    const auto bytes = encode(f, kp);
    const auto view = decode_view(bytes, kp);
    ASSERT_TRUE(view.has_value()) << (keyed ? "keyed" : "unkeyed");
    EXPECT_EQ(view->packet_id, f.packet_id);
    EXPECT_EQ(view->k, f.k);
    EXPECT_EQ(view->share_index, f.share_index);
    EXPECT_EQ(view->generation, f.generation);
    EXPECT_EQ(view->connection_id, f.connection_id);
    ASSERT_EQ(view->payload.size(), f.payload.size());
    EXPECT_TRUE(std::equal(view->payload.begin(), view->payload.end(),
                           f.payload.begin()));
    // Zero-copy: the span aliases the encode buffer.
    EXPECT_GE(view->payload.data(), bytes.data());
    EXPECT_LE(view->payload.data() + view->payload.size(),
              bytes.data() + bytes.size());
  }
}

TEST(WirePrefix, ConnectionFramesConcatenate) {
  // Coalesced datagrams interleave flows: prefix parsing must walk
  // mixed-flow frames (cid, no cid, different cid) one at a time.
  auto f1 = sample_frame(30, 1, 4);
  f1.connection_id = 7;
  auto f2 = sample_frame(31, 2, 4);  // single-flow frame behind it
  auto f3 = sample_frame(32, 1, 4);
  f3.connection_id = 1000000;
  std::vector<std::uint8_t> buf = encode(f1);
  for (const ShareFrame* f : {&f2, &f3}) {
    const auto b = encode(*f);
    buf.insert(buf.end(), b.begin(), b.end());
  }

  std::span<const std::uint8_t> rest(buf);
  for (const ShareFrame* want : {&f1, &f2, &f3}) {
    const auto parsed = take_frame(rest);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, *want);
  }
  EXPECT_TRUE(rest.empty());
}

TEST(WirePrefix, GenerationFramesConcatenate) {
  const auto f1 = [] {
    auto f = sample_frame(20, 1, 4);
    f.generation = 2;
    return f;
  }();
  const auto f2 = sample_frame(21, 2, 4);  // generation 0 behind it
  std::vector<std::uint8_t> buf = encode(f1);
  const std::size_t first_size = buf.size();
  const auto b2 = encode(f2);
  buf.insert(buf.end(), b2.begin(), b2.end());

  std::span<const std::uint8_t> rest(buf);
  auto parsed = take_frame(rest);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, f1);
  EXPECT_EQ(buf.size() - rest.size(), first_size);
  parsed = take_frame(rest);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, f2);
}

// ------------------------------------------- frame_extent + decode_view

TEST(WirePrefix, ConcatenatedFramesParseOneAtATime) {
  // Regression: a recv that coalesces two frames used to fail strict
  // decode() and drop both. frame_extent walks the buffer frame by
  // frame.
  const auto f1 = sample_frame(10, 1, 5);
  const auto f2 = sample_frame(11, 2, 0);  // empty payload frame
  const auto f3 = sample_frame(12, 3, 300);
  std::vector<std::uint8_t> buf = encode(f1);
  const auto b2 = encode(f2);
  const auto b3 = encode(f3);
  buf.insert(buf.end(), b2.begin(), b2.end());
  buf.insert(buf.end(), b3.begin(), b3.end());

  std::span<const std::uint8_t> rest(buf);
  std::vector<ShareFrame> parsed;
  while (!rest.empty()) {
    const std::size_t before = rest.size();
    DecodeStatus status = DecodeStatus::Ok;
    auto f = take_frame(rest, nullptr, &status);
    ASSERT_TRUE(f.has_value());
    EXPECT_EQ(status, DecodeStatus::Ok);
    ASSERT_LT(rest.size(), before);
    parsed.push_back(std::move(*f));
  }
  ASSERT_EQ(parsed.size(), 3u);
  EXPECT_EQ(parsed[0], f1);
  EXPECT_EQ(parsed[1], f2);
  EXPECT_EQ(parsed[2], f3);
}

TEST(WirePrefix, TrailingJunkDoesNotPoisonTheFrame) {
  const auto f = sample_frame(77, 9, 16);
  auto buf = encode(f);
  const std::size_t frame_size = buf.size();
  buf.insert(buf.end(), {0xDE, 0xAD, 0xBE});  // padding / torn next frame

  std::span<const std::uint8_t> rest(buf);
  const auto parsed = take_frame(rest);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, f);
  EXPECT_EQ(buf.size() - rest.size(), frame_size);

  // Strict decode still refuses the same buffer (delegation preserved
  // the exact-size contract).
  DecodeStatus status = DecodeStatus::Ok;
  EXPECT_FALSE(decode(buf, nullptr, &status).has_value());
  EXPECT_EQ(status, DecodeStatus::Malformed);
}

TEST(WirePrefix, AuthenticatedFramesConcatenate) {
  const crypto::SipHashKey key{1, 2,  3,  4,  5,  6,  7,  8,
                               9, 10, 11, 12, 13, 14, 15, 16};
  const auto f1 = sample_frame(1, 1, 8);
  const auto f2 = sample_frame(2, 2, 8);
  std::vector<std::uint8_t> buf = encode(f1, &key);
  const std::size_t first_size = buf.size();
  const auto b2 = encode(f2, &key);
  buf.insert(buf.end(), b2.begin(), b2.end());

  std::span<const std::uint8_t> rest(buf);
  DecodeStatus status = DecodeStatus::Ok;
  auto parsed = take_frame(rest, &key, &status);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, f1);
  EXPECT_EQ(buf.size() - rest.size(), first_size);  // tag bytes included
  EXPECT_EQ(status, DecodeStatus::Ok);

  // The tag covers only the first frame, so the concatenation must not
  // break authentication; and a flipped bit inside the first frame's
  // extent still fails even with a healthy second frame behind it.
  auto tampered = buf;
  tampered[kHeaderSize] ^= 0x01;
  rest = tampered;
  EXPECT_FALSE(take_frame(rest, &key, &status).has_value());
  EXPECT_EQ(status, DecodeStatus::AuthFailed);
  EXPECT_EQ(rest.size(), tampered.size());
}

TEST(WirePrefix, MalformedHeadConsumesNothing) {
  std::vector<std::uint8_t> junk(64, 0x55);
  EXPECT_FALSE(frame_extent(junk).has_value());
  std::span<const std::uint8_t> rest(junk);
  DecodeStatus status = DecodeStatus::Ok;
  EXPECT_FALSE(take_frame(rest, nullptr, &status).has_value());
  EXPECT_EQ(rest.size(), junk.size());
  EXPECT_EQ(status, DecodeStatus::Malformed);

  // A truncated frame (header promises more payload than the buffer
  // holds) is malformed, not a partial success.
  auto truncated = encode(sample_frame(5, 5, 100));
  truncated.pop_back();
  EXPECT_FALSE(frame_extent(truncated).has_value());
  rest = truncated;
  EXPECT_FALSE(take_frame(rest, nullptr, &status).has_value());
  EXPECT_EQ(rest.size(), truncated.size());
}

// ---------------------------------------------------------------- dither

class DitherGridTest
    : public ::testing::TestWithParam<std::pair<double, double>> {};

TEST_P(DitherGridTest, AveragesConvergeAndInvariantsHold) {
  const auto [kappa, mu] = GetParam();
  KappaMuDither dither(kappa, mu, 5);
  double sum_k = 0, sum_m = 0;
  const int symbols = 100000;
  for (int i = 0; i < symbols; ++i) {
    const auto [k, m] = dither.next();
    ASSERT_GE(k, 1);
    ASSERT_LE(k, m);  // every individual symbol is a valid threshold scheme
    ASSERT_LE(m, 5);
    sum_k += k;
    sum_m += m;
  }
  EXPECT_NEAR(sum_k / symbols, kappa, 1e-4);
  EXPECT_NEAR(sum_m / symbols, mu, 1e-4);
}

INSTANTIATE_TEST_SUITE_P(
    KappaMuGrid, DitherGridTest,
    ::testing::ValuesIn([] {
      std::vector<std::pair<double, double>> grid;
      for (double kappa = 1.0; kappa <= 5.0; kappa += 0.7) {
        for (double mu = kappa; mu <= 5.0; mu += 0.7) grid.emplace_back(kappa, mu);
      }
      grid.emplace_back(2.9, 3.2);  // frac(kappa) > frac(mu)
      grid.emplace_back(2.5, 2.7);
      grid.emplace_back(1.0, 5.0);
      grid.emplace_back(5.0, 5.0);
      grid.emplace_back(3.4, 3.4);  // the paper's anomalous neighborhood
      return grid;
    }()));

TEST(Dither, IntegerParametersAreConstant) {
  KappaMuDither dither(2.0, 4.0, 5);
  for (int i = 0; i < 100; ++i) {
    const auto [k, m] = dither.next();
    EXPECT_EQ(k, 2);
    EXPECT_EQ(m, 4);
  }
}

TEST(Dither, ShortRunConvergence) {
  // Largest-remainder dithering must be accurate even over tens of
  // symbols, not just asymptotically.
  KappaMuDither dither(1.5, 3.5, 5);
  double sum_k = 0, sum_m = 0;
  for (int i = 0; i < 40; ++i) {
    const auto [k, m] = dither.next();
    sum_k += k;
    sum_m += m;
  }
  EXPECT_NEAR(sum_k / 40, 1.5, 0.05);
  EXPECT_NEAR(sum_m / 40, 3.5, 0.05);
}

TEST(Dither, RejectsInvalidParameters) {
  EXPECT_THROW(KappaMuDither(0.5, 2.0, 5), PreconditionError);
  EXPECT_THROW(KappaMuDither(3.0, 2.0, 5), PreconditionError);
  EXPECT_THROW(KappaMuDither(2.0, 5.5, 5), PreconditionError);
}

TEST(Dither, IsDeterministic) {
  KappaMuDither a(2.3, 3.7, 5), b(2.3, 3.7, 5);
  for (int i = 0; i < 1000; ++i) {
    const auto pa = a.next();
    const auto pb = b.next();
    EXPECT_EQ(pa.k, pb.k);
    EXPECT_EQ(pa.m, pb.m);
  }
}

}  // namespace
}  // namespace mcss::proto
