#include "feedback/reliable_link.hpp"

#include <utility>

#include "util/ensure.hpp"

namespace mcss::feedback {

ReliableLink::ReliableLink(net::Simulator& sim, proto::Sender& sender,
                           proto::Receiver& receiver,
                           std::vector<net::ChannelPort*> forward,
                           net::ChannelPort& feedback,
                           ReliableLinkConfig config, Rng rng)
    : sim_(sim),
      config_(std::move(config)),
      receiver_(receiver),
      feedback_(feedback),
      driver_{.timeline = sim,
              .num_channels = static_cast<int>(forward.size()),
              .retransmit_extra = config_.retransmit_extra,
              .risks = config_.risks,
              .report_key = config_.report_auth_key ? &*config_.report_auth_key
                                                    : nullptr,
              .resend =
                  [&sender](std::uint32_t, std::uint64_t id,
                            std::uint8_t generation,
                            std::span<const std::uint8_t> payload, int k,
                            std::span<const int> channels) {
                    sender.resend(id, generation, payload, k, channels);
                  }},
      arq_(driver_, /*cid=*/0, config_.retransmit,
           {.sack_window_words = config_.sack_window_words,
            .max_delay_samples = config_.max_delay_samples},
           rng) {
  MCSS_ENSURE(config_.report_interval > 0, "report interval must be positive");
  MCSS_ENSURE(receiver.delivered().width_words() >= config_.sack_window_words,
              "the receiver's completed_history must span the SACK window");

  // Receiver side: the receiver reassembles, the Arq hears deliveries.
  for (net::ChannelPort* ch : forward) {
    MCSS_ENSURE(ch != nullptr, "null forward channel");
    receiver.attach(*ch);
  }
  receiver.set_deliver(
      [this](std::uint64_t id, std::vector<std::uint8_t> payload) {
        if (arq_.on_delivered(id, sim_.now())) send_report();
        if (deliver_) deliver_(id, std::move(payload));
      });

  // Sender side: the Arq tracks dispatches and ingests reports.
  sender.set_dispatch_hook([this](std::uint64_t id, int k,
                                  std::span<const std::uint8_t> payload,
                                  std::span<const int> channels) {
    arq_.on_sent(id, k, payload, channels, sim_.now());
  });
  feedback_.set_receiver([this](std::vector<std::uint8_t> datagram) {
    arq_.on_report_datagram(datagram, sim_.now());
  });

  sim_.schedule_in(config_.report_interval, [this] { tick_report(); });
}

void ReliableLink::tick_report() {
  send_report();
  if (config_.stop_after == 0 || sim_.now() < config_.stop_after) {
    sim_.schedule_in(config_.report_interval, [this] { tick_report(); });
  }
}

void ReliableLink::send_report() {
  ++stats_.reports_sent;
  if (!feedback_.try_send(arq_.report(sim_.now(), receiver_.delivered()))) {
    ++stats_.reports_dropped_at_channel;
  }
}

}  // namespace mcss::feedback
