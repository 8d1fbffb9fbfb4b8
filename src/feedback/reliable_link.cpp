#include "feedback/reliable_link.hpp"

#include <algorithm>
#include <bit>
#include <utility>

#include "protocol/wire.hpp"
#include "util/ensure.hpp"
#include "util/link_risk.hpp"

namespace mcss::feedback {

ReliableLink::ReliableLink(net::Simulator& sim, proto::Sender& sender,
                           proto::Receiver& receiver,
                           std::vector<net::ChannelPort*> forward,
                           net::ChannelPort& feedback,
                           ReliableLinkConfig config, Rng rng)
    : sim_(sim),
      sender_(sender),
      receiver_(receiver),
      forward_(std::move(forward)),
      feedback_(feedback),
      config_(std::move(config)),
      builder_({.num_channels = forward_.size(),
                .sack_window_words = config_.sack_window_words,
                .max_delay_samples = config_.max_delay_samples}),
      manager_(config_.retransmit, rng) {
  MCSS_ENSURE(!forward_.empty(), "need at least one forward channel");
  MCSS_ENSURE(config_.report_interval > 0, "report interval must be positive");
  MCSS_ENSURE(config_.retransmit_extra >= 0, "extra shares must be >= 0");
  if (!config_.channel_link_masks.empty()) {
    MCSS_ENSURE(config_.channel_link_masks.size() == forward_.size(),
                "link map must cover every forward channel");
    manager_.set_link_map(config_.channel_link_masks);
  }

  // Receiver side: tap each forward channel for per-channel counters,
  // then reassemble. Each frame is parsed and (keyed) authenticated once,
  // under the receiver's key, before it is counted: a forged frame is
  // undecodable, and the receiver takes the same verdict and view.
  for (std::size_t i = 0; i < forward_.size(); ++i) {
    MCSS_ENSURE(forward_[i] != nullptr, "null forward channel");
    forward_[i]->set_receiver([this, i](std::vector<std::uint8_t> frame) {
      const std::span<const std::uint8_t> raw(frame);
      proto::FrameView view;
      proto::DecodeStatus status = proto::DecodeStatus::Ok;
      proto::decode_views({&raw, 1}, receiver_.auth_key(), {&view, 1},
                          {&status, 1});
      builder_.on_channel_frame(i, status == proto::DecodeStatus::Ok);
      receiver_.on_frame(status, view);
    });
  }
  receiver_.set_deliver(
      [this](std::uint64_t id, std::vector<std::uint8_t> payload) {
        builder_.on_delivered(id, sim_.now());
        if (deliver_) deliver_(id, std::move(payload));
      });

  // Sender side: track dispatches, ingest reports, retransmit on RTO.
  sender_.set_dispatch_hook([this](std::uint64_t id, int k,
                                   std::span<const std::uint8_t> payload,
                                   std::span<const int> channels) {
    manager_.on_packet_sent(id, k, payload, channels, sim_.now());
    schedule_advance();
  });
  feedback_.set_receiver([this](std::vector<std::uint8_t> datagram) {
    manager_.on_report_datagram(
        datagram, sim_.now(),
        config_.report_auth_key ? &*config_.report_auth_key : nullptr);
    schedule_advance();
  });
  manager_.set_retransmit([this](std::uint64_t id, std::uint8_t generation,
                                 const std::vector<std::uint8_t>& payload,
                                 int k) {
    on_retransmit(id, generation, payload, k);
  });

  sim_.schedule_in(config_.report_interval, [this] { tick_report(); });
}

void ReliableLink::tick_report() {
  auto report = builder_.build(sim_.now());
  auto bytes = encode_report(
      report, config_.report_auth_key ? &*config_.report_auth_key : nullptr);
  ++stats_.reports_sent;
  if (!feedback_.try_send(std::move(bytes))) {
    ++stats_.reports_dropped_at_channel;
  }
  if (config_.stop_after == 0 || sim_.now() < config_.stop_after) {
    sim_.schedule_in(config_.report_interval, [this] { tick_report(); });
  }
}

void ReliableLink::schedule_advance() {
  const auto deadline = manager_.next_deadline();
  if (!deadline) return;
  if (advance_scheduled_ && *deadline >= scheduled_for_) return;
  advance_scheduled_ = true;
  scheduled_for_ = *deadline;
  sim_.schedule_at(*deadline, [this] {
    advance_scheduled_ = false;
    manager_.advance(sim_.now());
    schedule_advance();
  });
}

void ReliableLink::on_retransmit(std::uint64_t packet_id,
                                 std::uint8_t generation,
                                 const std::vector<std::uint8_t>& payload,
                                 int k) {
  const int n = static_cast<int>(forward_.size());
  const int m = std::min(n, k + config_.retransmit_extra);

  std::vector<int> order(forward_.size());
  for (int i = 0; i < n; ++i) order[static_cast<std::size_t>(i)] = i;

  if (!config_.channel_link_masks.empty()) {
    // Link mode: the adversary taps links, so "already exposed" means
    // the channel's path adds NO link beyond the packet's realized link
    // union — re-using a possibly-tapped link is free. Others are
    // ordered by the marginal risk of the links their path would add
    // (probability any of the NEW links is tapped), index tiebreak.
    const std::uint64_t exposed_links =
        manager_.link_exposure(packet_id).value_or(0);
    const auto added_risk = [&](int i) {
      std::uint64_t fresh =
          config_.channel_link_masks[static_cast<std::size_t>(i)] &
          ~exposed_links;
      double survive = 1.0;
      while (fresh != 0) {
        const int l = std::countr_zero(fresh);
        fresh &= fresh - 1;
        if (static_cast<std::size_t>(l) < config_.link_risks.size()) {
          survive *= 1.0 - config_.link_risks[static_cast<std::size_t>(l)];
        }
      }
      return 1.0 - survive;
    };
    std::sort(order.begin(), order.end(), [&](int a, int b) {
      const bool fa =
          (config_.channel_link_masks[static_cast<std::size_t>(a)] &
           ~exposed_links) == 0;
      const bool fb =
          (config_.channel_link_masks[static_cast<std::size_t>(b)] &
           ~exposed_links) == 0;
      if (fa != fb) return fa;
      const double ra = added_risk(a);
      const double rb = added_risk(b);
      if (ra != rb) return ra < rb;
      return a < b;
    });
  } else {
    // Privacy-aware ordering: already-exposed channels first (free),
    // then unexposed ones by ascending risk, index as the tiebreak.
    const std::uint32_t exposure =
        manager_.exposure_mask(packet_id).value_or(0);
    const auto risk = [&](int i) {
      return static_cast<std::size_t>(i) < config_.risks.size()
                 ? config_.risks[static_cast<std::size_t>(i)]
                 : 0.0;
    };
    std::sort(order.begin(), order.end(), [&](int a, int b) {
      const bool ea = (exposure >> a) & 1u;
      const bool eb = (exposure >> b) & 1u;
      if (ea != eb) return ea;
      if (risk(a) != risk(b)) return risk(a) < risk(b);
      return a < b;
    });
  }
  order.resize(static_cast<std::size_t>(m));

  sender_.resend(packet_id, generation, payload, k, order);
  manager_.note_exposure(packet_id, order);
}

}  // namespace mcss::feedback
