#include "feedback/retransmit.hpp"

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <string_view>
#include <utility>

#include "obs/metrics.hpp"
#include "util/ensure.hpp"

namespace mcss::feedback {

void publish(obs::Registry& registry, const RetransmitStats& stats) {
  const auto add = [&](std::string_view name, std::uint64_t value) {
    registry.add(registry.counter(name), value);
  };
  add("mcss_retransmit_packets_tracked", stats.packets_tracked);
  add("mcss_retransmit_packets_acked", stats.packets_acked);
  add("mcss_retransmit_packets_abandoned", stats.packets_abandoned);
  add("mcss_retransmit_packets_displaced", stats.packets_displaced);
  add("mcss_retransmit_retransmits", stats.retransmits);
  add("mcss_retransmit_reports_received", stats.reports_received);
  add("mcss_retransmit_reports_replayed", stats.reports_replayed);
  add("mcss_retransmit_reports_malformed", stats.reports_malformed);
  add("mcss_retransmit_reports_auth_failed", stats.reports_auth_failed);
  add("mcss_retransmit_rtt_samples", stats.rtt_samples);
  add("mcss_retransmit_delay_samples_clamped", stats.delay_samples_clamped);
  add("mcss_retransmit_initial_channel_sum", stats.initial_channel_sum);
  add("mcss_retransmit_exposure_channel_sum", stats.exposure_channel_sum);
  add("mcss_retransmit_initial_link_sum", stats.initial_link_sum);
  add("mcss_retransmit_exposure_link_sum", stats.exposure_link_sum);
  registry.set(registry.gauge("mcss_retransmit_ack_delay_seconds_mean"),
               stats.delay.mean());
}

RetransmitManager::RetransmitManager(RetransmitConfig config, Rng rng)
    : config_(config), rng_(rng) {
  MCSS_ENSURE(config_.max_retransmits >= 0, "budget must be non-negative");
  MCSS_ENSURE(config_.max_outstanding >= 1, "need room for one packet");
  MCSS_ENSURE(config_.min_rto_ns > 0 &&
                  config_.max_rto_ns >= config_.min_rto_ns,
              "RTO bounds inverted");
  rto_ns_ = std::clamp(config_.initial_rto_ns, config_.min_rto_ns,
                       config_.max_rto_ns);
}

void RetransmitManager::set_link_map(
    std::vector<std::uint64_t> channel_link_masks) {
  MCSS_ENSURE(outstanding_.empty(),
              "set_link_map requires no outstanding packets (their link "
              "unions would under-count)");
  channel_link_masks_ = std::move(channel_link_masks);
}

std::uint64_t RetransmitManager::links_of(
    std::span<const int> channels) const {
  std::uint64_t links = 0;
  for (int ch : channels) {
    if (static_cast<std::size_t>(ch) < channel_link_masks_.size()) {
      links |= channel_link_masks_[static_cast<std::size_t>(ch)];
    }
  }
  return links;
}

void RetransmitManager::on_packet_sent(std::uint64_t packet_id, int k,
                                       std::span<const std::uint8_t> payload,
                                       std::span<const int> channels,
                                       std::int64_t now_ns) {
  MCSS_ENSURE(k >= 1, "threshold must be positive");
  // Admission: displace the oldest tracked packet rather than refuse the
  // new one — recent packets are the ones feedback can still save.
  if (outstanding_.size() >= config_.max_outstanding) {
    const auto oldest = outstanding_.begin();
    close(oldest->first, oldest->second, false, &stats_.packets_displaced);
    outstanding_.erase(oldest);
  }
  Outstanding packet;
  packet.payload.assign(payload.begin(), payload.end());
  packet.k = k;
  packet.first_sent_ns = now_ns;
  packet.deadline_ns = now_ns + rto_ns_;
  for (int ch : channels) {
    MCSS_ENSURE(ch >= 0 && ch < 32, "channel index out of range");
    packet.initial_mask |= std::uint32_t{1} << ch;
  }
  packet.exposure_mask = packet.initial_mask;
  packet.initial_link_mask = links_of(channels);
  packet.link_exposure_mask = packet.initial_link_mask;
  ++stats_.packets_tracked;
  push_deadline(packet_id, packet.deadline_ns);
  outstanding_.emplace(packet_id, std::move(packet));
}

void RetransmitManager::note_exposure(std::uint64_t packet_id,
                                      std::span<const int> channels) {
  const auto it = outstanding_.find(packet_id);
  if (it != outstanding_.end()) {
    it->second.link_exposure_mask |= links_of(channels);
  }
  for (int ch : channels) {
    MCSS_ENSURE(ch >= 0 && ch < 32, "channel index out of range");
    if (it != outstanding_.end()) {
      it->second.exposure_mask |= std::uint32_t{1} << ch;
    }
  }
}

void RetransmitManager::on_report_datagram(std::span<const std::uint8_t> bytes,
                                           std::int64_t now_ns,
                                           const crypto::SipHashKey* key) {
  while (!bytes.empty()) {
    std::size_t consumed = 0;
    proto::DecodeStatus status = proto::DecodeStatus::Ok;
    const auto report = decode_report_prefix(bytes, &consumed, key, &status);
    if (!report) {
      // No resynchronization point inside a mangled datagram: count the
      // failure once and drop the rest.
      if (status == proto::DecodeStatus::AuthFailed) {
        ++stats_.reports_auth_failed;
      } else {
        ++stats_.reports_malformed;
      }
      return;
    }
    on_report(*report, now_ns);
    bytes = bytes.subspan(consumed);
  }
}

void RetransmitManager::on_report(const ReceiverReport& report,
                                  std::int64_t now_ns) {
  ++stats_.reports_received;
  // Reports are cumulative, so only the newest matters; replays and
  // reordered stragglers (or an attacker recycling a captured report)
  // are dropped wholesale.
  if (report.seq <= last_report_seq_) {
    ++stats_.reports_replayed;
    return;
  }
  last_report_seq_ = report.seq;

  // Delay samples join receiver delivery times with our send stamps.
  // Only never-retransmitted packets contribute (Karn's ambiguity
  // applies to one-way delay exactly as to RTT). Samples that claim a
  // delivery before the send or after the report's own build stamp are
  // physically impossible (clock regression or a mangled-but-authentic
  // sample); they are counted and excluded rather than clamped into the
  // estimator, where a silent zero would drag the mean.
  for (const DelaySample& sample : report.delays) {
    const auto it = outstanding_.find(sample.packet_id);
    if (it == outstanding_.end() || it->second.retransmitted) continue;
    // (The build stamp and recv_time_ns share the receiver's clock, so
    // that comparison needs no clock sync; a stamp of 0 means the
    // report was built without one and the bound cannot apply.)
    if (sample.recv_time_ns < it->second.first_sent_ns ||
        (report.receiver_time_ns > 0 &&
         sample.recv_time_ns > report.receiver_time_ns)) {
      ++stats_.delay_samples_clamped;
      continue;
    }
    stats_.delay.add(one_way_delay_seconds(it->second.first_sent_ns,
                                           sample.recv_time_ns));
  }

  // Ack everything the SACK window covers. The window is a range of
  // ids, so an ordered-map range scan touches only candidates.
  const std::uint64_t window_end =
      report.sack_base + 64 * static_cast<std::uint64_t>(report.sack.size());
  auto it = outstanding_.lower_bound(report.sack_base);
  while (it != outstanding_.end() && it->first < window_end) {
    if (!report.acked(it->first)) {
      ++it;
      continue;
    }
    if (!it->second.retransmitted) {
      on_rtt_sample(now_ns - it->second.first_sent_ns);
    }
    close(it->first, it->second, true, &stats_.packets_acked);
    it = outstanding_.erase(it);
  }
}

void RetransmitManager::on_rtt_sample(std::int64_t rtt_ns) {
  rtt_ns = std::max<std::int64_t>(rtt_ns, 0);
  ++stats_.rtt_samples;
  if (stats_.rtt_samples == 1) {
    srtt_ns_ = rtt_ns;
    rttvar_ns_ = rtt_ns / 2;
  } else {
    const std::int64_t err = std::abs(srtt_ns_ - rtt_ns);
    rttvar_ns_ = (3 * rttvar_ns_ + err) / 4;
    srtt_ns_ = (7 * srtt_ns_ + rtt_ns) / 8;
  }
  rto_ns_ = std::clamp(
      srtt_ns_ + std::max(config_.rto_granularity_ns, 4 * rttvar_ns_),
      config_.min_rto_ns, config_.max_rto_ns);
}

std::optional<std::int64_t> RetransmitManager::next_deadline() {
  // The heap may hold stale entries for rescheduled or closed packets;
  // prune them from the top until the earliest VALID deadline surfaces.
  while (!deadlines_.empty()) {
    const auto [deadline, id] = deadlines_.top();
    const auto it = outstanding_.find(id);
    if (it != outstanding_.end() && it->second.deadline_ns == deadline) {
      return deadline;
    }
    deadlines_.pop();
  }
  return std::nullopt;
}

void RetransmitManager::advance(std::int64_t now_ns) {
  while (!deadlines_.empty() && deadlines_.top().first <= now_ns) {
    const auto [deadline, id] = deadlines_.top();
    deadlines_.pop();
    const auto it = outstanding_.find(id);
    if (it == outstanding_.end() || it->second.deadline_ns != deadline) {
      continue;  // stale heap entry
    }
    Outstanding& packet = it->second;
    if (packet.retransmits >= config_.max_retransmits || !retransmit_) {
      close(id, packet, false, &stats_.packets_abandoned);
      outstanding_.erase(it);
      continue;
    }
    ++packet.retransmits;
    packet.retransmitted = true;
    // Generation 0 is reserved for originals; wrap 255 -> 1.
    packet.generation =
        packet.generation == 255
            ? std::uint8_t{1}
            : static_cast<std::uint8_t>(packet.generation + 1);
    ++stats_.retransmits;

    BackoffConfig backoff = config_.backoff;
    if (backoff.base_ns <= 0) backoff.base_ns = rto_ns_;
    backoff.cap_ns = std::max(backoff.cap_ns, backoff.base_ns);
    packet.backoff_prev_ns =
        Backoff::step(rng_, backoff, packet.backoff_prev_ns);
    packet.deadline_ns = now_ns + packet.backoff_prev_ns;
    push_deadline(id, packet.deadline_ns);

    retransmit_(id, packet.generation, packet.payload, packet.k);
  }
}

std::optional<std::uint32_t> RetransmitManager::exposure_mask(
    std::uint64_t packet_id) const {
  const auto it = outstanding_.find(packet_id);
  if (it == outstanding_.end()) return std::nullopt;
  return it->second.exposure_mask;
}

std::optional<std::uint64_t> RetransmitManager::link_exposure(
    std::uint64_t packet_id) const {
  const auto it = outstanding_.find(packet_id);
  if (it == outstanding_.end()) return std::nullopt;
  return it->second.link_exposure_mask;
}

int RetransmitManager::widest_exposure() const noexcept {
  int widest = 0;
  for (const auto& [id, packet] : outstanding_) {
    (void)id;
    widest = std::max(widest, std::popcount(packet.exposure_mask));
  }
  return widest;
}

std::vector<ClosedPacket> RetransmitManager::drain_closed() {
  return std::exchange(closed_, {});
}

std::vector<ClosedPacket> RetransmitManager::snapshot_open() const {
  std::vector<ClosedPacket> open;
  open.reserve(outstanding_.size());
  for (const auto& [id, packet] : outstanding_) {
    open.push_back({id, packet.k, packet.initial_mask, packet.exposure_mask,
                    packet.retransmits, false, packet.initial_link_mask,
                    packet.link_exposure_mask});
  }
  return open;
}

void RetransmitManager::close(std::uint64_t packet_id,
                              const Outstanding& packet, bool acked,
                              std::uint64_t* counter) {
  ++*counter;
  stats_.initial_channel_sum +=
      static_cast<std::uint64_t>(std::popcount(packet.initial_mask));
  stats_.exposure_channel_sum +=
      static_cast<std::uint64_t>(std::popcount(packet.exposure_mask));
  stats_.initial_link_sum +=
      static_cast<std::uint64_t>(std::popcount(packet.initial_link_mask));
  stats_.exposure_link_sum +=
      static_cast<std::uint64_t>(std::popcount(packet.link_exposure_mask));
  closed_.push_back({packet_id, packet.k, packet.initial_mask,
                     packet.exposure_mask, packet.retransmits, acked,
                     packet.initial_link_mask, packet.link_exposure_mask});
}

void RetransmitManager::push_deadline(std::uint64_t packet_id,
                                      std::int64_t deadline_ns) {
  deadlines_.emplace(deadline_ns, packet_id);
}

}  // namespace mcss::feedback
