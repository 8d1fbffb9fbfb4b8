// Receiver-side accounting that turns delivery events into periodic
// ReceiverReports.
//
// build() copies each report's SACK words from the top of the flow
// receiver's completed-id window (proto::Receiver::delivered()), so the
// base is a function of the highest delivered id, and every report
// restates the window: a lost report costs nothing. The copy is whole
// while that window is at least sack_window_words wide, which the Arq
// drivers check, and it assumes the window is marked when the builder
// hears the delivery, so no receiver under an Arq may have a
// net::CpuModel (none does). The builder keeps the delivered count and
// a newest-first ring of (packet id, delivery time) delay samples,
// drained into each report; no heap until its first sample.
//
// The builder is transport-agnostic: feedback::Arq (arq.hpp) feeds it
// and builds each flow's reports, for the simulator and the live
// endpoint alike.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "feedback/report.hpp"
#include "util/id_window.hpp"
#include "util/ring.hpp"

namespace mcss::feedback {

struct ReportBuilderConfig {
  /// SACK window width in 64-bit words (ids covered = 64 * words).
  std::size_t sack_window_words = 16;
  /// Delay samples kept between reports; newest win when full.
  std::size_t max_delay_samples = 64;
};

class ReportBuilder {
 public:
  explicit ReportBuilder(ReportBuilderConfig config);

  /// A packet was delivered (reconstructed) at receiver time
  /// `recv_time_ns`. Counts it and queues a delay sample.
  void on_delivered(std::uint64_t packet_id, std::int64_t recv_time_ns);

  /// Assemble the next report: the delivered count, the top
  /// sack_window_words words of `delivered`, and all pending delay
  /// samples (which this call drains). Bumps the report sequence number.
  [[nodiscard]] ReceiverReport build(std::int64_t now_ns,
                                     const util::IdWindow& delivered);

  /// Whether the deliveries since the last build() reach half the SACK
  /// window. A report built now still acks every one of them; waiting
  /// for the periodic report at a high packet rate would let the window
  /// slide past unreported ids, which the sender then retransmits.
  [[nodiscard]] bool report_due() const noexcept {
    return packets_delivered_ - reported_delivered_ >=
           32 * config_.sack_window_words;
  }
  [[nodiscard]] std::uint64_t reports_built() const noexcept {
    return next_seq_ - 1;
  }
  /// Delivery stamps that regressed against an earlier sample and were
  /// clamped up to it (a receiver clock stepping backwards).
  [[nodiscard]] std::uint64_t delay_samples_clamped() const noexcept {
    return delay_samples_clamped_;
  }
  /// Heap bytes the builder holds (the delay ring).
  [[nodiscard]] std::size_t heap_bytes() const noexcept {
    return delays_.heap_bytes();
  }

 private:
  ReportBuilderConfig config_;
  std::uint64_t next_seq_ = 1;
  std::uint64_t packets_delivered_ = 0;
  std::uint64_t reported_delivered_ = 0;  ///< packets_delivered_ at build()
  util::Ring<DelaySample> delays_;
  std::int64_t last_recv_time_ns_ = 0;
  std::uint64_t delay_samples_clamped_ = 0;
};

}  // namespace mcss::feedback
