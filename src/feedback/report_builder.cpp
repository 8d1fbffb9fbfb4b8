#include "feedback/report_builder.hpp"

#include <algorithm>

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
  if (sack_.empty()) sack_.assign(config_.sack_window_words, 0);
  if (packet_id >= sack_base_) {
    advance_window(packet_id);
    const std::uint64_t offset = packet_id - sack_base_;
    sack_[static_cast<std::size_t>(offset / 64)] |= std::uint64_t{1}
                                                    << (offset % 64);
  }
  // Ids below the base fell out of the window (a very late delivery);
  // the cumulative counter still records them.
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

void ReportBuilder::advance_window(std::uint64_t packet_id) {
  const std::uint64_t span = 64 * sack_.size();
  const std::uint64_t offset = packet_id - sack_base_;
  if (offset < span) return;
  // Slide by whole words so surviving bits move with memmove semantics.
  const std::uint64_t shift_words = (offset - span) / 64 + 1;
  if (shift_words >= sack_.size()) {
    std::fill(sack_.begin(), sack_.end(), 0);
  } else {
    const auto n = static_cast<std::ptrdiff_t>(shift_words);
    std::copy(sack_.begin() + n, sack_.end(), sack_.begin());
    std::fill(sack_.end() - n, sack_.end(), 0);
  }
  sack_base_ += 64 * shift_words;
}

ReceiverReport ReportBuilder::build(std::int64_t now_ns) {
  ReceiverReport report;
  report.seq = next_seq_++;
  report.receiver_time_ns = now_ns;
  report.packets_delivered = packets_delivered_;
  reported_delivered_ = packets_delivered_;
  report.sack_base = sack_base_;
  // Before the first delivery the window is still empty; the resize
  // fills in the all-zero window it stands for.
  report.sack = sack_;
  report.sack.resize(config_.sack_window_words);
  report.delays.reserve(delays_.size());
  for (std::size_t i = 0; i < delays_.size(); ++i) {
    report.delays.push_back(delays_[i]);
  }
  delays_.clear();
  return report;
}

bool ReportBuilder::acked(std::uint64_t packet_id) const noexcept {
  if (packet_id < sack_base_) return false;
  const std::uint64_t offset = packet_id - sack_base_;
  const std::size_t word = static_cast<std::size_t>(offset / 64);
  if (word >= sack_.size()) return false;  // also before any delivery
  return (sack_[word] >> (offset % 64)) & 1u;
}

}  // namespace mcss::feedback
