// Receiver-side accounting that turns delivery events into periodic
// ReceiverReports.
//
// The builder owns three pieces of receiver truth:
//   - a sliding SACK bitmap over delivered packet ids (word-granular
//     window; old ids age out as new deliveries push the base forward),
//   - cumulative per-channel frame counters (every report restates them,
//     so a lost report costs nothing),
//   - a bounded newest-first ring of (packet id, delivery time) delay
//     samples, drained into each report.
//
// The builder is transport-agnostic: the sim glue (ReliableLink) and the
// live endpoint both feed it and periodically call build().
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <vector>

#include "feedback/report.hpp"

namespace mcss::feedback {

struct ReportBuilderConfig {
  std::size_t num_channels = 1;
  /// SACK window width in 64-bit words (ids covered = 64 * words).
  std::size_t sack_window_words = 16;
  /// Delay samples kept between reports; newest win when full.
  std::size_t max_delay_samples = 64;
};

class ReportBuilder {
 public:
  explicit ReportBuilder(ReportBuilderConfig config);

  /// A frame arrived on `channel`; `decodable` says whether it parsed as
  /// a share frame (corrupted traffic still counts as received — the
  /// sender separates "network lost it" from "network mangled it").
  void on_channel_frame(std::size_t channel, bool decodable = true);

  /// A packet was delivered (reconstructed) at receiver time
  /// `recv_time_ns`. Sets the packet's SACK bit and queues a delay sample.
  void on_delivered(std::uint64_t packet_id, std::int64_t recv_time_ns);

  /// Assemble the next report: cumulative counters, the current SACK
  /// window, and all pending delay samples (which this call drains).
  /// Bumps the report sequence number.
  [[nodiscard]] ReceiverReport build(std::int64_t now_ns);

  [[nodiscard]] std::uint64_t packets_delivered() const noexcept {
    return packets_delivered_;
  }
  /// Whether the deliveries since the last build() reach half the SACK
  /// window. A report built now still acks every one of them; waiting
  /// for the periodic report at a high packet rate would let the window
  /// slide past unreported ids, which the sender then retransmits.
  [[nodiscard]] bool report_due() const noexcept {
    return packets_delivered_ - reported_delivered_ >=
           32 * config_.sack_window_words;
  }
  [[nodiscard]] std::uint64_t sack_base() const noexcept { return sack_base_; }
  [[nodiscard]] std::uint64_t reports_built() const noexcept {
    return next_seq_ - 1;
  }
  /// Whether `packet_id` is acknowledged in the current window.
  [[nodiscard]] bool acked(std::uint64_t packet_id) const noexcept;
  /// Delivery stamps that regressed against an earlier sample and were
  /// clamped up to it (a receiver clock stepping backwards).
  [[nodiscard]] std::uint64_t delay_samples_clamped() const noexcept {
    return delay_samples_clamped_;
  }

 private:
  void advance_window(std::uint64_t packet_id);

  ReportBuilderConfig config_;
  std::uint64_t next_seq_ = 1;
  std::uint64_t packets_delivered_ = 0;
  std::uint64_t reported_delivered_ = 0;  ///< packets_delivered_ at build()
  std::uint64_t sack_base_ = 1;  // packet ids start at 1
  std::vector<std::uint64_t> sack_;
  std::vector<ChannelCounters> channels_;
  std::deque<DelaySample> delays_;
  std::int64_t last_recv_time_ns_ = 0;
  std::uint64_t delay_samples_clamped_ = 0;
};

}  // namespace mcss::feedback
