// Receiver-report control wire format (the feedback direction).
//
// The reliability layer closes the receiver -> sender loop with periodic
// reports travelling over their own (possibly lossy) feedback channel.
// Each report is cumulative — any single report reaching the sender
// carries the full current picture, so losing reports costs latency, not
// correctness:
//
//   offset  size  field
//        0     2  magic 0x5246 ("RF")
//        2     1  version (1)
//        3     1  flags (bit 0: authenticated, bit 1: connection id)
//        4     1  number of channels n (1..32)
//        5     1  delay sample count s (0..255)
//        6     2  SACK word count w (little endian, 0..1024)
//        8     8  report sequence number (strictly increasing; replays
//                 and reordered stale reports are dropped by seq)
//       16     8  receiver clock at build time, nanoseconds
//       24     8  packets delivered, cumulative
//       32     8  SACK base packet id
//       40     4  connection id (little endian)     [flag bit 1 only]
//     40+c    8w  SACK bitmap words (bit b of word i acknowledges packet
//                 id base + 64*i + b as DELIVERED — reconstructed, not
//                 merely a share seen)
//   40+c+8w  16n  per-channel counters, cumulative: frames received and
//                 frames that arrived undecodable (8 bytes each)
//        ...  16s  delay samples: (packet id, receive time ns) of recent
//                 deliveries; the sender joins them with its own send
//                 stamps for one-way delay
//       tail    8  SipHash-2-4 tag over all preceding bytes [flag bit 0]
//
// (c is 4 when flag bit 1 is set, else 0. Connection 0 — the
// single-flow encoding — omits the field, keeping pre-session reports
// byte-identical.) The connection id scopes EVERYTHING in the report:
// seq, the SACK window, delivered counts, delay samples. The session
// layer demuxes reports to the owning flow's RetransmitManager before
// any ack processing, so one flow's report can never ack or supersede
// another flow's packets.
//
// Decoding is strict, mirroring the share codec: bad magic/version,
// unknown flags, out-of-range counts, or truncation reject the whole
// report. decode_report_prefix() exists for the same reason as the share
// codec's: the live feedback channel may coalesce several reports into
// one datagram.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "crypto/siphash.hpp"
#include "protocol/wire.hpp"

namespace mcss::feedback {

inline constexpr std::uint16_t kReportMagic = 0x5246;
inline constexpr std::uint8_t kReportVersion = 1;
inline constexpr std::size_t kReportHeaderSize = 40;
inline constexpr std::uint8_t kReportFlagAuthenticated = 0x01;
inline constexpr std::uint8_t kReportFlagConnection = 0x02;
inline constexpr std::size_t kReportConnectionIdSize = 4;
inline constexpr std::size_t kMaxReportChannels = 32;
inline constexpr std::size_t kMaxSackWords = 1024;
inline constexpr std::size_t kMaxDelaySamples = 255;

/// Cumulative per-channel receive counters, as seen at the tap in front
/// of the reassembling receiver. "Lost" cannot be observed here — the
/// receiver never sees what never arrived — so loss is the sender's own
/// sent count minus frames_received; frames_undecodable additionally
/// surfaces arrived-but-corrupted traffic.
struct ChannelCounters {
  std::uint64_t frames_received = 0;
  std::uint64_t frames_undecodable = 0;

  friend bool operator==(const ChannelCounters&,
                         const ChannelCounters&) = default;
};

/// (packet id, receiver clock at delivery). Sender-side join with the
/// send stamp yields one-way delay; see one_way_delay_seconds().
struct DelaySample {
  std::uint64_t packet_id = 0;
  std::int64_t recv_time_ns = 0;

  friend bool operator==(const DelaySample&, const DelaySample&) = default;
};

struct ReceiverReport {
  /// Flow this report belongs to; 0 = the single-flow (pre-session)
  /// encoding, which omits the field on the wire.
  std::uint32_t connection_id = 0;
  std::uint64_t seq = 0;
  std::int64_t receiver_time_ns = 0;
  std::uint64_t packets_delivered = 0;  ///< cumulative
  std::uint64_t sack_base = 0;
  std::vector<std::uint64_t> sack;  ///< bitmap words over [base, base+64w)
  std::vector<ChannelCounters> channels;
  std::vector<DelaySample> delays;

  /// Whether this report acknowledges `packet_id` as delivered. Ids
  /// outside the SACK window are unknown (false), not negative.
  [[nodiscard]] bool acked(std::uint64_t packet_id) const noexcept {
    if (packet_id < sack_base) return false;
    const std::uint64_t offset = packet_id - sack_base;
    const std::size_t word = static_cast<std::size_t>(offset / 64);
    if (word >= sack.size()) return false;
    return (sack[word] >> (offset % 64)) & 1u;
  }

  friend bool operator==(const ReceiverReport&,
                         const ReceiverReport&) = default;
};

/// Serialize a report; with a key the report is tagged (authenticated
/// feedback — a forged ack would suppress needed retransmissions).
/// Throws PreconditionError when channel/sack/delay counts exceed the
/// wire limits.
[[nodiscard]] std::vector<std::uint8_t> encode_report(
    const ReceiverReport& report, const crypto::SipHashKey* key = nullptr);

/// Strict whole-buffer parse (trailing bytes are a malformation).
/// Status semantics match the share codec's proto::DecodeStatus.
[[nodiscard]] std::optional<ReceiverReport> decode_report(
    std::span<const std::uint8_t> buf, const crypto::SipHashKey* key = nullptr,
    proto::DecodeStatus* status = nullptr);

/// Parse ONE report from the head of `buf`, reporting its size through
/// `consumed` (0 on failure — a malformed head has no resynchronization
/// point). The receive-path entry point when reports coalesce.
[[nodiscard]] std::optional<ReceiverReport> decode_report_prefix(
    std::span<const std::uint8_t> buf, std::size_t* consumed,
    const crypto::SipHashKey* key = nullptr,
    proto::DecodeStatus* status = nullptr);

/// THE one-way delay definition, shared by every consumer (satellite of
/// ISSUE 5): receiver clock at delivery minus sender clock at send,
/// minus whatever serialization time the caller's model excludes
/// (the paper's d is propagation only; pass 0 for end-to-end delay).
/// Both the simulator and the live loopback transport run sender and
/// receiver off one clock, so the difference needs no clock sync.
[[nodiscard]] inline double one_way_delay_seconds(
    std::int64_t send_ns, std::int64_t recv_ns,
    double serialization_s = 0.0) noexcept {
  const double raw = static_cast<double>(recv_ns - send_ns) / 1e9;
  return raw - serialization_s > 0.0 ? raw - serialization_s : 0.0;
}

}  // namespace mcss::feedback
