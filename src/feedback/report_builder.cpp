#include "feedback/report_builder.hpp"

#include "util/ensure.hpp"

namespace mcss::feedback {

ReportBuilder::ReportBuilder(ReportBuilderConfig config)
    : config_(config), delays_(config.max_delay_samples) {
  MCSS_ENSURE(config_.sack_window_words >= 1 &&
                  config_.sack_window_words <= kMaxSackWords,
              "SACK window out of range");
  MCSS_ENSURE(config_.max_delay_samples <= kMaxDelaySamples,
              "delay ring exceeds the wire limit");
}

void ReportBuilder::on_delivered(std::uint64_t packet_id,
                                 std::int64_t recv_time_ns) {
  ++packets_delivered_;
  if (config_.max_delay_samples > 0) {
    // Receiver delivery stamps must be monotone — the sender-side join
    // rejects samples newer than the report's build time, so a clock
    // that stepped backwards would silently discard every later sample.
    // Clamp regressions up to the last stamp and count them instead.
    if (recv_time_ns < last_recv_time_ns_) {
      recv_time_ns = last_recv_time_ns_;
      ++delay_samples_clamped_;
    }
    last_recv_time_ns_ = recv_time_ns;
    if (delays_.full()) delays_.pop_front();
    delays_.push_back({packet_id, recv_time_ns});
  }
}

ReceiverReport ReportBuilder::build(std::int64_t now_ns,
                                    const util::IdWindow& delivered) {
  ReceiverReport report;
  report.seq = next_seq_++;
  report.receiver_time_ns = now_ns;
  report.packets_delivered = packets_delivered_;
  reported_delivered_ = packets_delivered_;
  report.sack.resize(config_.sack_window_words);
  report.sack_base = delivered.top_words(report.sack);
  report.delays.reserve(delays_.size());
  for (std::size_t i = 0; i < delays_.size(); ++i) {
    report.delays.push_back(delays_[i]);
  }
  delays_.clear();
  return report;
}

}  // namespace mcss::feedback
