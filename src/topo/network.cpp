#include "topo/network.hpp"

#include <string_view>
#include <utility>

#include "obs/metrics.hpp"
#include "util/ensure.hpp"

namespace mcss::topo {

bool RoutedChannel::try_send(std::vector<std::uint8_t> frame) {
  return ingress_->try_send(id_, std::move(frame));
}

bool RoutedChannel::ready() const noexcept { return ingress_->ready(); }

net::SimTime RoutedChannel::backlog_time() const noexcept {
  return ingress_->backlog_time();
}

Network::Network(net::Simulator& sim, Topology topo, Rng rng)
    : topo_(std::move(topo)), single_sim_(&sim) {
  topo_.validate();
  build(rng);
}

Network::Network(net::psim::PartitionedSimulator& psim,
                 std::vector<std::uint32_t> node_lp, Topology topo, Rng rng)
    : topo_(std::move(topo)), psim_(&psim), node_lp_(std::move(node_lp)) {
  topo_.validate();
  MCSS_ENSURE(node_lp_.size() == static_cast<std::size_t>(topo_.num_nodes),
              "node_lp must map every node");
  for (const std::uint32_t lp : node_lp_) {
    MCSS_ENSURE(lp < psim_->num_lps(), "node mapped to an unknown LP");
  }
  // The conservative-safety contract: a cross-LP link's propagation
  // delay is the latency of the LogicalProcess::send it becomes, so it
  // must cover the lookahead window.
  for (const LinkSpec& link : topo_.links) {
    const std::uint32_t src_lp = node_lp_[static_cast<std::size_t>(link.src)];
    const std::uint32_t dst_lp = node_lp_[static_cast<std::size_t>(link.dst)];
    if (src_lp != dst_lp) {
      MCSS_ENSURE(link.delay >= psim_->lookahead(),
                  "cross-LP link delay below the lookahead");
    }
  }
  build(rng);
}

net::Simulator& Network::sim_for_node(int node) {
  if (single_sim_ != nullptr) return *single_sim_;
  return psim_->lp(node_lp_[static_cast<std::size_t>(node)]).sim();
}

void Network::build(Rng rng) {
  // Per-link RNG forks in link-id order: the streams depend only on
  // the root seed and the topology, never on thread count.
  links_.reserve(topo_.links.size());
  for (std::size_t l = 0; l < topo_.links.size(); ++l) {
    const LinkSpec& spec = topo_.links[l];
    links_.push_back(
        std::make_unique<SimLink>(sim_for_node(spec.src), spec, rng.fork()));
    const int link_id = static_cast<int>(l);
    links_.back()->set_depart(
        [this, link_id](int channel, std::vector<std::uint8_t> frame) {
          on_depart(link_id, channel, std::move(frame));
        });
  }

  next_.assign(topo_.links.size(),
               std::vector<int>(topo_.paths.size(), kOffPath));
  channels_.reserve(topo_.paths.size());
  for (int c = 0; c < topo_.num_channels(); ++c) {
    const std::vector<int>& path = topo_.paths[static_cast<std::size_t>(c)];
    for (std::size_t hop = 0; hop < path.size(); ++hop) {
      const int link_id = path[hop];
      next_[static_cast<std::size_t>(link_id)][static_cast<std::size_t>(c)] =
          hop + 1 < path.size() ? path[hop + 1] : kDeliver;
    }
    SimLink* ingress = links_[static_cast<std::size_t>(path.front())].get();
    channels_.push_back(std::unique_ptr<RoutedChannel>(
        new RoutedChannel(c, ingress, topo_.path_delay(c))));
    RoutedChannel* channel = channels_.back().get();
    ingress->add_writable_subscriber([channel] {
      if (channel->writable_) channel->writable_();
    });
  }
}

RoutedChannel& Network::channel(int i) {
  MCSS_ENSURE(i >= 0 && i < num_channels(), "channel out of range");
  return *channels_[static_cast<std::size_t>(i)];
}

SimLink& Network::link(int id) {
  MCSS_ENSURE(id >= 0 && static_cast<std::size_t>(id) < links_.size(),
              "link out of range");
  return *links_[static_cast<std::size_t>(id)];
}

std::vector<net::ChannelPort*> Network::channel_ports() {
  std::vector<net::ChannelPort*> ports;
  ports.reserve(channels_.size());
  for (const auto& channel : channels_) ports.push_back(channel.get());
  return ports;
}

void Network::on_depart(int link_id, int channel,
                        std::vector<std::uint8_t> frame) {
  const LinkSpec& spec = topo_.links[static_cast<std::size_t>(link_id)];
  const int next =
      next_[static_cast<std::size_t>(link_id)][static_cast<std::size_t>(channel)];
  MCSS_INVARIANT(next != kOffPath, "frame departed a link off its path");

  if (single_sim_ != nullptr) {
    single_sim_->schedule_in(
        spec.delay,
        [this, next, channel, b = std::move(frame)]() mutable {
          arrive(next, channel, std::move(b));
        });
    return;
  }

  const std::uint32_t src_lp = node_lp_[static_cast<std::size_t>(spec.src)];
  const std::uint32_t dst_lp = node_lp_[static_cast<std::size_t>(spec.dst)];
  auto fn = [this, next, channel, b = std::move(frame)]() mutable {
    arrive(next, channel, std::move(b));
  };
  if (src_lp == dst_lp) {
    psim_->lp(src_lp).sim().schedule_in(spec.delay, std::move(fn));
  } else {
    psim_->lp(src_lp).send(dst_lp, spec.delay, std::move(fn));
  }
}

void Network::arrive(int next_link, int channel,
                     std::vector<std::uint8_t> frame) {
  if (next_link == kDeliver) {
    ++stats_.frames_delivered_end;
    RoutedChannel& ch = *channels_[static_cast<std::size_t>(channel)];
    if (ch.deliver_) ch.deliver_(std::move(frame));
    return;
  }
  ++stats_.frames_forwarded;
  if (!links_[static_cast<std::size_t>(next_link)]->try_send(
          channel, std::move(frame))) {
    ++stats_.frames_dropped_midpath;
  }
}

void Network::publish_metrics(obs::Registry& registry) const {
  const auto add = [&](std::string_view name, std::uint64_t value) {
    registry.add(registry.counter(name), value);
  };
  for (const auto& link : links_) {
    const net::ChannelStats& s = link->stats();
    add("mcss_topo_link_frames_offered", s.frames_offered);
    add("mcss_topo_link_frames_queued", s.frames_queued);
    add("mcss_topo_link_frames_dropped_queue", s.frames_dropped_queue);
    add("mcss_topo_link_frames_dropped_loss", s.frames_dropped_loss);
    add("mcss_topo_link_frames_delivered", s.frames_delivered);
    add("mcss_topo_link_bytes_delivered", s.bytes_delivered);
    add("mcss_topo_link_bytes_queued_total", s.bytes_queued_total);
  }
  add("mcss_topo_frames_forwarded", stats_.frames_forwarded);
  add("mcss_topo_frames_dropped_midpath", stats_.frames_dropped_midpath);
  add("mcss_topo_frames_delivered_end", stats_.frames_delivered_end);
  registry.set(registry.gauge("mcss_topo_links"),
               static_cast<double>(topo_.num_links()));
  registry.set(registry.gauge("mcss_topo_channels"),
               static_cast<double>(topo_.num_channels()));
  registry.set(registry.gauge("mcss_topo_shared_links"),
               static_cast<double>(link_mask_size(topo_.shared_links())));
}

}  // namespace mcss::topo
