#include "topo/sim_link.hpp"

#include <utility>

namespace mcss::topo {

namespace {

net::ChannelConfig link_config(const LinkSpec& spec) {
  net::ChannelConfig config;
  config.rate_bps = spec.rate_bps;
  config.loss = spec.loss;
  config.queue_capacity_bytes = spec.queue_capacity_bytes;
  return config;
}

}  // namespace

SimLink::SimLink(net::Simulator& sim, const LinkSpec& spec, Rng rng)
    : sim_(sim), link_(link_config(spec), rng) {}

bool SimLink::try_send(int channel, std::vector<std::uint8_t> frame) {
  if (!link_.offer(frame.size(), sim_.now())) return false;
  was_ready_ = ready();
  queue_.push_back({channel, std::move(frame)});
  if (!transmitting_) start_transmission();
  return true;
}

void SimLink::start_transmission() {
  transmitting_ = head_started_ = !queue_.empty();
  if (!transmitting_) return;
  sim_.schedule_at(link_.head_departure(), [this] {
    QueuedFrame frame = std::move(queue_.front());
    queue_.pop_front();
    head_started_ = false;

    if (link_.depart(frame.bytes).copies > 0 && depart_) {
      depart_(frame.channel, std::move(frame.bytes));
    }

    if (!was_ready_ && ready()) {
      was_ready_ = true;
      for (const auto& fn : writable_) fn();
    } else {
      was_ready_ = ready();
    }
    start_transmission();
  });
}

}  // namespace mcss::topo
