// ReMICSS share wire format.
//
// Each share travels as one frame:
//
//   offset  size  field
//        0     2  magic 0x524D ("RM")
//        2     1  version (1)
//        3     1  threshold k required to reconstruct the packet
//        4     8  packet id (little endian) — sender-assigned, increasing
//       12     1  share index (the GF(256) abscissa, 1..255)
//       13     1  flags (bit 0: authenticated, bit 1: generation byte,
//                 bit 2: connection id)
//       14     2  payload length (little endian)
//       16     1  generation (retransmission count)  [flag bit 1 only]
//       16+g    4  connection id (little endian)      [flag bit 2 only]
//       16+g+c   -  payload (the share bytes; same length as the packet)
//       ...tail  8  SipHash-2-4 tag over all preceding bytes [flag bit 0]
//
// (g is 1 when flag bit 1 is set, else 0; c is 4 when flag bit 2 is set,
// else 0. Generation 0 frames omit the generation byte and connection 0
// frames omit the connection id, so the single-flow original-transmission
// encoding is byte-identical to frames from before the reliability and
// session layers existed.)
//
// The connection id multiplexes many independent ReMICSS flows over one
// shared channel set (the session layer's flow table key). Packet ids,
// generations, and acks are all scoped WITHIN a connection: shares of
// equal packet id but different connection ids belong to different
// secrets and must never meet in one reassembly buffer — the demux
// happens before the receiver, keyed on this field.
//
// The generation counts how many times the sender has RE-SPLIT this
// packet: shares of different generations come from different random
// polynomials and must never be combined (k shares of mixed generations
// reconstruct garbage), so the receiver keeps only the newest generation
// of a partial. Retransmissions always carry fresh share randomness —
// resending the original share bytes would hand an eavesdropper the
// exact symbol it already missed.
//
// The header carries k and the packet id because a best-effort receiver
// sees shares of many packets interleaved, reordered, and duplicated
// (Section V: "the receiver will typically be waiting for shares of many
// packets at once"). Decoding is strict: any malformed frame is rejected
// as a whole. Reads that may carry several back-to-back frames (the live
// transport coalesces small frames into one datagram) are cut into frames
// with frame_extent() and decoded with decode_views().
//
// The authenticated mode extends the paper's passive threat model to
// active (Byzantine) channels: without it, a single flipped bit in any
// share silently corrupts the whole reconstructed packet.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "crypto/siphash.hpp"
#include "util/rng.hpp"

namespace mcss::proto {

inline constexpr std::uint16_t kMagic = 0x524D;
inline constexpr std::uint8_t kVersion = 1;
inline constexpr std::size_t kHeaderSize = 16;
inline constexpr std::size_t kTagSize = 8;
inline constexpr std::size_t kMaxPayload = 0xFFFF;
inline constexpr std::uint8_t kFlagAuthenticated = 0x01;
inline constexpr std::uint8_t kFlagGeneration = 0x02;
inline constexpr std::uint8_t kFlagConnectionId = 0x04;
inline constexpr std::size_t kConnectionIdSize = 4;

/// Parsed header + payload of one share frame.
struct ShareFrame {
  std::uint64_t packet_id = 0;
  std::uint8_t k = 1;
  std::uint8_t share_index = 1;
  /// Re-split count: 0 = original transmission, n = n-th retransmission.
  /// Shares only combine within one generation (see header comment).
  std::uint8_t generation = 0;
  /// Flow this share belongs to; 0 = the single-flow (pre-session)
  /// encoding, which omits the field on the wire.
  std::uint32_t connection_id = 0;
  std::vector<std::uint8_t> payload;

  friend bool operator==(const ShareFrame&, const ShareFrame&) = default;
};

/// Zero-copy view of one decoded share frame: all header fields plus a
/// span into the caller's buffer where the payload sits. This is the
/// hot-path decode result — the session demux routes on connection_id
/// and the receiver copies the payload bytes straight into its partial
/// storage, so no std::vector ever materializes per share.
struct FrameView {
  std::uint64_t packet_id = 0;
  std::uint8_t k = 1;
  std::uint8_t share_index = 1;
  std::uint8_t generation = 0;
  std::uint32_t connection_id = 0;
  std::span<const std::uint8_t> payload;
  /// True when the frame's tag was verified under a key (decode with a
  /// key and status Ok); a keyed Receiver refuses views without it.
  bool authenticated = false;
};

/// Serialize a share frame. Throws PreconditionError when the payload
/// exceeds kMaxPayload, k is 0, or the share index is 0. With a key, the
/// frame is tagged (authenticated mode).
[[nodiscard]] std::vector<std::uint8_t> encode(
    const ShareFrame& frame, const crypto::SipHashKey* key = nullptr);

/// Exact on-wire size of `frame` as encode() would produce it.
[[nodiscard]] std::size_t encoded_size(const ShareFrame& frame,
                                       bool keyed) noexcept;

/// Header fields of a frame whose payload is written in place —
/// write_shares' path, where sss::split_into fills the payload region
/// directly and no ShareFrame (or its payload vector) ever exists.
struct FrameMeta {
  std::uint64_t packet_id = 0;
  std::uint8_t k = 1;
  std::uint8_t share_index = 1;
  std::uint8_t generation = 0;
  std::uint32_t connection_id = 0;
};

/// On-wire size of a frame with `payload_len` payload bytes.
[[nodiscard]] std::size_t encoded_size(std::size_t payload_len,
                                       std::uint8_t generation, bool keyed,
                                       std::uint32_t connection_id = 0) noexcept;

/// Write the header (and generation byte) of a frame into `dst` and
/// return the offset where the caller must place `payload_len` payload
/// bytes. `dst` must hold the full encoded_size(); in keyed mode the
/// caller finishes the frame with seal_frames() AFTER the payload is in
/// place — the tag covers it.
std::size_t encode_header_into(const FrameMeta& meta, std::size_t payload_len,
                               std::span<std::uint8_t> dst, bool keyed);

/// Seal a batch of complete keyed frames: compute each frame's SipHash
/// tag over everything before its trailing kTagSize bytes and write it
/// there. One crypto::siphash24_lanes() pass tags the whole batch (a
/// packet's m equal-size shares fill the lanes exactly); every tag is
/// byte-identical to scalar siphash24 over that frame's body.
void seal_frames(std::span<const std::span<std::uint8_t>> frames,
                 const crypto::SipHashKey& key);

/// seal_frames() on a batch of one.
void seal_frame(std::span<std::uint8_t> dst, const crypto::SipHashKey& key);

/// Shares one write_shares() call writes at most: one per channel.
inline constexpr std::size_t kMaxSharesPerPacket = 32;

/// The one share writer, for first sends and retransmissions alike:
/// frames[j] becomes the complete frame of share j (abscissa j + 1) of
/// `payload` under threshold meta.k, with meta's packet id, generation
/// and connection id (meta.share_index is ignored). It writes every
/// header, lets sss::split_into compute the share bytes straight into
/// the payload windows, and, with a key, tags all frames in one
/// seal_frames() lane pass. Each frames[j] must be exactly
/// encoded_size(payload.size(), meta.generation, key != nullptr,
/// meta.connection_id) bytes; `scratch` holds the coefficient slices
/// and is reusable across calls. `rng` is consumed as sss::split()
/// consumes it, so equal seeds give equal share bytes.
void write_shares(const FrameMeta& meta, std::span<const std::uint8_t> payload,
                  std::span<const std::span<std::uint8_t>> frames,
                  const crypto::SipHashKey* key,
                  std::vector<std::uint8_t>& scratch, Rng& rng);

enum class DecodeStatus {
  Ok,
  Malformed,   ///< bad magic/version/lengths/reserved fields
  AuthFailed,  ///< tag missing, tag invalid, or unauthenticated frame
               ///< received while a key is required
};

/// Parse a frame. Returns nullopt on any malformation (and on
/// authentication failure when a key is given); the reason is reported
/// through `status` when non-null. A receiver configured with a key
/// REJECTS unauthenticated frames — downgrade attempts are failures.
/// Strict: the buffer must hold exactly one frame (trailing bytes are a
/// malformation). decode_view() with the payload copied out.
[[nodiscard]] std::optional<ShareFrame> decode(
    std::span<const std::uint8_t> buf, const crypto::SipHashKey* key = nullptr,
    DecodeStatus* status = nullptr);

/// Batch decode, the live receive path: frames[i] must hold exactly one
/// frame (trailing bytes are a malformation); views[i] gets its fields
/// with the payload viewed in place and status[i] the verdict. views[i]
/// is meaningful only where status[i] is Ok. Framing runs first, then
/// every keyed frame of the batch is authenticated in one
/// crypto::siphash24_lanes() pass, so a tampered, truncated,
/// unauthenticated or wrong-key frame fails alone and its neighbours
/// still decode. views and status must be frames.size() long.
void decode_views(std::span<const std::span<const std::uint8_t>> frames,
                  const crypto::SipHashKey* key, std::span<FrameView> views,
                  std::span<DecodeStatus> status);

/// decode_views() on a batch of one: strict zero-copy decode of exactly
/// one frame in `buf`.
[[nodiscard]] std::optional<FrameView> decode_view(
    std::span<const std::uint8_t> buf, const crypto::SipHashKey* key = nullptr,
    DecodeStatus* status = nullptr);

/// Framing-only prefix scan: validates the fixed header (magic, version,
/// k, index, flags, lengths) at the head of `buf` and returns the total
/// frame extent (header + extension + payload + tag) WITHOUT copying the
/// payload or checking authentication. This is the datagram-split
/// primitive for the batched live transport: splitting a coalesced
/// datagram must not allocate, and the endpoint authenticates the split
/// frames afterwards, a receive batch at a time, with decode_views().
/// nullopt when the head is not a complete well-formed frame.
[[nodiscard]] std::optional<std::size_t> frame_extent(
    std::span<const std::uint8_t> buf) noexcept;

}  // namespace mcss::proto
