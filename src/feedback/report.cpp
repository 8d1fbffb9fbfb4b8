#include "feedback/report.hpp"

#include <cstring>

#include "util/ensure.hpp"

namespace mcss::feedback {

namespace {

void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

std::uint16_t get_u16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}

std::uint64_t get_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

void set_status(proto::DecodeStatus* status, proto::DecodeStatus value) {
  if (status != nullptr) *status = value;
}

}  // namespace

std::vector<std::uint8_t> encode_report(const ReceiverReport& report,
                                        const crypto::SipHashKey* key) {
  MCSS_ENSURE(report.sack.size() <= kMaxSackWords, "SACK bitmap too large");
  MCSS_ENSURE(report.delays.size() <= kMaxDelaySamples,
              "too many delay samples");

  std::vector<std::uint8_t> out;
  out.reserve(kReportHeaderSize +
              (report.connection_id != 0 ? kReportConnectionIdSize : 0) +
              8 * report.sack.size() + 16 * report.delays.size() +
              (key ? proto::kTagSize : 0));
  std::uint8_t flags = key != nullptr ? kReportFlagAuthenticated : 0;
  // Connection 0 omits the field: single-flow reports stay byte-identical
  // to the pre-session encoding (mirrors the share codec's canonical form).
  if (report.connection_id != 0) flags |= kReportFlagConnection;
  put_u16(out, kReportMagic);
  out.push_back(kReportVersion);
  out.push_back(flags);
  out.push_back(0);  // reserved
  out.push_back(static_cast<std::uint8_t>(report.delays.size()));
  put_u16(out, static_cast<std::uint16_t>(report.sack.size()));
  put_u64(out, report.seq);
  put_u64(out, static_cast<std::uint64_t>(report.receiver_time_ns));
  put_u64(out, report.packets_delivered);
  put_u64(out, report.sack_base);
  if (report.connection_id != 0) {
    for (int i = 0; i < 4; ++i) {
      out.push_back(static_cast<std::uint8_t>(report.connection_id >> (8 * i)));
    }
  }
  for (std::uint64_t word : report.sack) put_u64(out, word);
  for (const DelaySample& s : report.delays) {
    put_u64(out, s.packet_id);
    put_u64(out, static_cast<std::uint64_t>(s.recv_time_ns));
  }
  if (key != nullptr) {
    const auto tag = crypto::siphash24_tag(out, *key);
    out.insert(out.end(), tag.begin(), tag.end());
  }
  return out;
}

std::optional<ReceiverReport> decode_report_prefix(
    std::span<const std::uint8_t> buf, std::size_t* consumed,
    const crypto::SipHashKey* key, proto::DecodeStatus* status) {
  MCSS_ENSURE(consumed != nullptr, "consumed must not be null");
  *consumed = 0;
  set_status(status, proto::DecodeStatus::Ok);
  if (buf.size() < kReportHeaderSize) {
    set_status(status, proto::DecodeStatus::Malformed);
    return std::nullopt;
  }
  if (get_u16(buf.data()) != kReportMagic || buf[2] != kReportVersion) {
    set_status(status, proto::DecodeStatus::Malformed);
    return std::nullopt;
  }
  const std::uint8_t flags = buf[3];
  if ((flags & ~(kReportFlagAuthenticated | kReportFlagConnection)) != 0) {
    set_status(status, proto::DecodeStatus::Malformed);
    return std::nullopt;
  }
  const bool authenticated = (flags & kReportFlagAuthenticated) != 0;
  const std::size_t cid =
      (flags & kReportFlagConnection) != 0 ? kReportConnectionIdSize : 0;
  const std::size_t num_delays = buf[5];
  const std::size_t sack_words = get_u16(buf.data() + 6);
  if (buf[4] != 0 || sack_words > kMaxSackWords) {
    set_status(status, proto::DecodeStatus::Malformed);
    return std::nullopt;
  }
  const std::size_t body =
      kReportHeaderSize + cid + 8 * sack_words + 16 * num_delays;
  const std::size_t expected = body + (authenticated ? proto::kTagSize : 0);
  if (buf.size() < expected) {
    set_status(status, proto::DecodeStatus::Malformed);
    return std::nullopt;
  }
  // Key semantics mirror the share codec: a keyed consumer refuses
  // unauthenticated reports and bad tags; an unkeyed consumer parses a
  // tagged report and ignores the tag (passive observation).
  if (key != nullptr) {
    if (!authenticated) {
      set_status(status, proto::DecodeStatus::AuthFailed);
      return std::nullopt;
    }
    const auto want = crypto::siphash24_tag(buf.first(body), *key);
    if (!crypto::tag_equal(want, buf.subspan(body, proto::kTagSize))) {
      set_status(status, proto::DecodeStatus::AuthFailed);
      return std::nullopt;
    }
  }

  ReceiverReport report;
  report.seq = get_u64(buf.data() + 8);
  report.receiver_time_ns = static_cast<std::int64_t>(get_u64(buf.data() + 16));
  report.packets_delivered = get_u64(buf.data() + 24);
  report.sack_base = get_u64(buf.data() + 32);
  if (cid != 0) {
    std::uint32_t id = 0;
    for (int i = 3; i >= 0; --i) {
      id = (id << 8) | buf[kReportHeaderSize + static_cast<std::size_t>(i)];
    }
    if (id == 0) {
      // Canonical encoding: connection 0 omits the field.
      set_status(status, proto::DecodeStatus::Malformed);
      return std::nullopt;
    }
    report.connection_id = id;
  }
  const std::uint8_t* p = buf.data() + kReportHeaderSize + cid;
  report.sack.reserve(sack_words);
  for (std::size_t i = 0; i < sack_words; ++i, p += 8) {
    report.sack.push_back(get_u64(p));
  }
  report.delays.reserve(num_delays);
  for (std::size_t i = 0; i < num_delays; ++i, p += 16) {
    report.delays.push_back(
        {get_u64(p), static_cast<std::int64_t>(get_u64(p + 8))});
  }
  *consumed = expected;
  return report;
}

std::optional<ReceiverReport> decode_report(std::span<const std::uint8_t> buf,
                                            const crypto::SipHashKey* key,
                                            proto::DecodeStatus* status) {
  std::size_t consumed = 0;
  auto report = decode_report_prefix(buf, &consumed, key, status);
  if (report && consumed != buf.size()) {
    set_status(status, proto::DecodeStatus::Malformed);
    return std::nullopt;
  }
  return report;
}

}  // namespace mcss::feedback
