#include "protocol/wire.hpp"

#include <algorithm>
#include <array>

#include "sss/shamir.hpp"
#include "util/ensure.hpp"

namespace mcss::proto {

namespace {

[[nodiscard]] std::uint16_t get16(std::span<const std::uint8_t> in, std::size_t at) {
  return static_cast<std::uint16_t>(in[at] | (in[at + 1] << 8));
}

[[nodiscard]] std::uint64_t get64(std::span<const std::uint8_t> in, std::size_t at) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) {
    v = (v << 8) | in[at + static_cast<std::size_t>(i)];
  }
  return v;
}

/// Frames per lane pass in seal_frames/decode_views: stack scratch, with
/// longer batches run in chunks of this many.
constexpr std::size_t kLaneBatch = 32;

}  // namespace

std::size_t encoded_size(const ShareFrame& frame, bool keyed) noexcept {
  return encoded_size(frame.payload.size(), frame.generation, keyed,
                      frame.connection_id);
}

std::size_t encoded_size(std::size_t payload_len, std::uint8_t generation,
                         bool keyed, std::uint32_t connection_id) noexcept {
  return kHeaderSize + (generation != 0 ? 1 : 0) +
         (connection_id != 0 ? kConnectionIdSize : 0) + payload_len +
         (keyed ? kTagSize : 0);
}

std::size_t encode_header_into(const FrameMeta& meta, std::size_t payload_len,
                               std::span<std::uint8_t> dst, bool keyed) {
  MCSS_ENSURE(payload_len <= kMaxPayload, "share payload too large");
  MCSS_ENSURE(meta.k >= 1, "threshold must be at least 1");
  MCSS_ENSURE(meta.share_index >= 1, "share index 0 is reserved");
  MCSS_ENSURE(dst.size() >= encoded_size(payload_len, meta.generation, keyed,
                                         meta.connection_id),
              "encode destination too small");

  std::uint8_t flags = keyed ? kFlagAuthenticated : 0;
  // Generation 0 omits the extension byte: original transmissions stay
  // byte-identical to the pre-reliability encoding. Connection 0 (the
  // single-flow encoding) likewise omits the connection id.
  if (meta.generation != 0) flags |= kFlagGeneration;
  if (meta.connection_id != 0) flags |= kFlagConnectionId;

  std::uint8_t* p = dst.data();
  p[0] = static_cast<std::uint8_t>(kMagic & 0xFF);
  p[1] = static_cast<std::uint8_t>(kMagic >> 8);
  p[2] = kVersion;
  p[3] = meta.k;
  for (int i = 0; i < 8; ++i) {
    p[4 + i] = static_cast<std::uint8_t>(meta.packet_id >> (8 * i));
  }
  p[12] = meta.share_index;
  p[13] = flags;
  p[14] = static_cast<std::uint8_t>(payload_len & 0xFF);
  p[15] = static_cast<std::uint8_t>(payload_len >> 8);
  std::size_t at = kHeaderSize;
  if (meta.generation != 0) p[at++] = meta.generation;
  if (meta.connection_id != 0) {
    for (int i = 0; i < 4; ++i) {
      p[at++] = static_cast<std::uint8_t>(meta.connection_id >> (8 * i));
    }
  }
  return at;
}

void seal_frames(std::span<const std::span<std::uint8_t>> frames,
                 const crypto::SipHashKey& key) {
  std::array<std::span<const std::uint8_t>, kLaneBatch> bodies;
  std::array<std::uint64_t, kLaneBatch> tags;
  for (std::size_t base = 0; base < frames.size(); base += kLaneBatch) {
    const std::size_t n = std::min(kLaneBatch, frames.size() - base);
    for (std::size_t i = 0; i < n; ++i) {
      const auto frame = frames[base + i];
      MCSS_ENSURE(frame.size() >= kHeaderSize + kTagSize,
                  "seal_frames needs full keyed frames");
      bodies[i] = frame.first(frame.size() - kTagSize);
    }
    crypto::siphash24_lanes(std::span(bodies).first(n), key,
                            std::span(tags).first(n));
    for (std::size_t i = 0; i < n; ++i) {
      crypto::store_tag(tags[i], frames[base + i].data() + bodies[i].size());
    }
  }
}

void seal_frame(std::span<std::uint8_t> dst, const crypto::SipHashKey& key) {
  seal_frames({&dst, 1}, key);
}

void write_shares(const FrameMeta& meta, std::span<const std::uint8_t> payload,
                  std::span<const std::span<std::uint8_t>> frames,
                  const crypto::SipHashKey* key,
                  std::vector<std::uint8_t>& scratch, Rng& rng) {
  MCSS_ENSURE(frames.size() <= kMaxSharesPerPacket,
              "at most one share per channel");
  const bool keyed = key != nullptr;
  const std::size_t size = encoded_size(payload.size(), meta.generation, keyed,
                                        meta.connection_id);
  std::array<std::span<std::uint8_t>, kMaxSharesPerPacket> windows;
  FrameMeta share = meta;
  for (std::size_t j = 0; j < frames.size(); ++j) {
    MCSS_ENSURE(frames[j].size() == size, "share frame size mismatch");
    share.share_index = static_cast<std::uint8_t>(j + 1);
    const std::size_t at =
        encode_header_into(share, payload.size(), frames[j], keyed);
    windows[j] = frames[j].subspan(at, payload.size());
  }
  sss::split_into(payload, meta.k, std::span(windows).first(frames.size()),
                  scratch, rng);
  if (keyed) seal_frames(frames, *key);
}

std::vector<std::uint8_t> encode(const ShareFrame& frame,
                                 const crypto::SipHashKey* key) {
  const bool keyed = key != nullptr;
  std::vector<std::uint8_t> out(encoded_size(frame, keyed));
  const FrameMeta meta{frame.packet_id, frame.k, frame.share_index,
                       frame.generation, frame.connection_id};
  const std::size_t at =
      encode_header_into(meta, frame.payload.size(), out, keyed);
  std::copy(frame.payload.begin(), frame.payload.end(),
            out.begin() + static_cast<std::ptrdiff_t>(at));
  if (keyed) seal_frame(out, *key);
  return out;
}

std::optional<std::size_t> frame_extent(
    std::span<const std::uint8_t> buf) noexcept {
  if (buf.size() < kHeaderSize) return std::nullopt;
  if (get16(buf, 0) != kMagic) return std::nullopt;
  if (buf[2] != kVersion) return std::nullopt;
  if (buf[3] == 0 || buf[12] == 0) return std::nullopt;  // k, share index
  const std::uint8_t flags = buf[13];
  if ((flags & ~(kFlagAuthenticated | kFlagGeneration | kFlagConnectionId)) !=
      0) {
    return std::nullopt;  // unknown flag bits
  }
  const std::size_t ext = (flags & kFlagGeneration) != 0 ? 1 : 0;
  const std::size_t cid =
      (flags & kFlagConnectionId) != 0 ? kConnectionIdSize : 0;
  const std::size_t expected =
      kHeaderSize + ext + cid + get16(buf, 14) +
      ((flags & kFlagAuthenticated) != 0 ? kTagSize : 0);
  if (buf.size() < expected) return std::nullopt;
  // Canonical encoding: generation 0 omits the extension byte and
  // connection 0 omits the connection id.
  if (ext != 0 && buf[kHeaderSize] == 0) return std::nullopt;
  if (cid != 0) {
    std::uint32_t id = 0;
    for (int i = 3; i >= 0; --i) {
      id = (id << 8) | buf[kHeaderSize + ext + static_cast<std::size_t>(i)];
    }
    if (id == 0) return std::nullopt;
  }
  return expected;
}

namespace {

/// The MAC half of decode_views: every frame still Ok after framing
/// carries a tag (untagged ones already failed), verified in one lane
/// pass per kLaneBatch frames.
void verify_tags(std::span<const std::span<const std::uint8_t>> frames,
                 const crypto::SipHashKey& key, std::span<FrameView> views,
                 std::span<DecodeStatus> status) {
  std::array<std::span<const std::uint8_t>, kLaneBatch> bodies;
  std::array<std::size_t, kLaneBatch> owner;
  std::array<std::uint64_t, kLaneBatch> tags;
  std::size_t queued = 0;
  const auto verify = [&] {
    crypto::siphash24_lanes(std::span(bodies).first(queued), key,
                            std::span(tags).first(queued));
    for (std::size_t j = 0; j < queued; ++j) {
      std::array<std::uint8_t, kTagSize> computed;
      crypto::store_tag(tags[j], computed.data());
      const auto frame = frames[owner[j]];
      if (crypto::tag_equal(computed, frame.subspan(bodies[j].size()))) {
        views[owner[j]].authenticated = true;
      } else {
        status[owner[j]] = DecodeStatus::AuthFailed;
      }
    }
    queued = 0;
  };
  for (std::size_t i = 0; i < frames.size(); ++i) {
    if (status[i] != DecodeStatus::Ok) continue;
    bodies[queued] = frames[i].first(frames[i].size() - kTagSize);
    owner[queued] = i;
    if (++queued == kLaneBatch) verify();
  }
  if (queued > 0) verify();
}

}  // namespace

void decode_views(std::span<const std::span<const std::uint8_t>> frames,
                  const crypto::SipHashKey* key, std::span<FrameView> views,
                  std::span<DecodeStatus> status) {
  MCSS_ENSURE(views.size() == frames.size() && status.size() == frames.size(),
              "decode_views needs one view and one status per frame");
  for (std::size_t i = 0; i < frames.size(); ++i) {
    const auto buf = frames[i];
    FrameView& view = views[i];
    view = FrameView{};
    // Framing (magic, version, k/index, flags, lengths, canonical
    // generation/connection) is frame_extent's single source of truth;
    // strict mode adds that the frame fills the buffer exactly.
    const auto extent = frame_extent(buf);
    if (!extent || *extent != buf.size()) {
      status[i] = DecodeStatus::Malformed;
      continue;
    }
    status[i] = DecodeStatus::Ok;
    view.k = buf[3];
    view.packet_id = get64(buf, 4);
    view.share_index = buf[12];
    const std::uint8_t flags = buf[13];
    // Extension bytes between header and payload (retransmissions carry
    // a generation; multiplexed flows carry a connection id).
    const std::size_t ext = (flags & kFlagGeneration) != 0 ? 1 : 0;
    const std::size_t cid =
        (flags & kFlagConnectionId) != 0 ? kConnectionIdSize : 0;
    const std::size_t len = get16(buf, 14);
    if (ext != 0) view.generation = buf[kHeaderSize];
    if (cid != 0) {
      std::uint32_t id = 0;
      for (int b = 3; b >= 0; --b) {
        id = (id << 8) | buf[kHeaderSize + ext + static_cast<std::size_t>(b)];
      }
      view.connection_id = id;
    }
    view.payload = buf.subspan(kHeaderSize + ext + cid, len);
    // A keyed decoder refuses unauthenticated frames outright.
    if (key != nullptr && (flags & kFlagAuthenticated) == 0) {
      status[i] = DecodeStatus::AuthFailed;
    }
  }
  // Without a key a tag is parsed past, not checked (passive observation
  // tooling; the keyed path is what the protocol itself uses).
  if (key != nullptr) verify_tags(frames, *key, views, status);
}

std::optional<FrameView> decode_view(std::span<const std::uint8_t> buf,
                                     const crypto::SipHashKey* key,
                                     DecodeStatus* status) {
  FrameView view;
  DecodeStatus why = DecodeStatus::Ok;
  decode_views({&buf, 1}, key, {&view, 1}, {&why, 1});
  if (status != nullptr) *status = why;
  if (why != DecodeStatus::Ok) return std::nullopt;
  return view;
}

std::optional<ShareFrame> decode(std::span<const std::uint8_t> buf,
                                 const crypto::SipHashKey* key,
                                 DecodeStatus* status) {
  const auto view = decode_view(buf, key, status);
  if (!view) return std::nullopt;
  ShareFrame frame;
  frame.packet_id = view->packet_id;
  frame.k = view->k;
  frame.share_index = view->share_index;
  frame.generation = view->generation;
  frame.connection_id = view->connection_id;
  frame.payload.assign(view->payload.begin(), view->payload.end());
  return frame;
}

}  // namespace mcss::proto
