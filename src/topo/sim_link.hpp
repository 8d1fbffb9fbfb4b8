// One simulated directed link of a routed topology: net::LinkModel
// driven on simulated time, as net::SimChannel drives it, with two
// differences a router needs:
//
//   - frames carry their logical channel id through the queue, so the
//     owning Network can route each departure to the next hop of THAT
//     channel's path (several channels multiplex one link, which is
//     exactly how shared links correlate loss: their frames contend
//     for the same serializer and the same queue),
//   - propagation is the owner's job: the model runs with delay 0, depart
//     fires at serializer exit (post-loss), and the Network applies the
//     link delay itself — schedule_in on the same LP,
//     LogicalProcess::send across LPs — so one SimLink type serves both
//     DES backends.
//
// Writability fans out: every channel whose path ENTERS the network on
// this link subscribes to the not-ready -> ready edge.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "net/link_model.hpp"
#include "net/sim_time.hpp"
#include "net/simulator.hpp"
#include "topo/topology.hpp"
#include "util/rng.hpp"

namespace mcss::topo {

class SimLink {
 public:
  /// Fired when a frame leaves the serializer and survived loss. The
  /// owner applies propagation delay and next-hop routing.
  using DepartFn = std::function<void(int channel, std::vector<std::uint8_t>)>;

  /// `rng` seeds this link's private loss stream.
  SimLink(net::Simulator& sim, const LinkSpec& spec, Rng rng);

  SimLink(const SimLink&) = delete;
  SimLink& operator=(const SimLink&) = delete;

  void set_depart(DepartFn fn) { depart_ = std::move(fn); }

  /// Subscribe to the not-ready -> ready writability edge. Several
  /// channels may enter the network on one link; each gets the edge.
  void add_writable_subscriber(std::function<void()> fn) {
    writable_.push_back(std::move(fn));
  }

  /// Offer a frame of logical channel `channel`. False = tail drop.
  bool try_send(int channel, std::vector<std::uint8_t> frame);

  /// epoll-style writability: backlog below half the queue capacity.
  [[nodiscard]] bool ready() const noexcept { return link_.ready(); }

  /// Serializer drain time for everything queued (propagation delay is
  /// the owner's).
  [[nodiscard]] net::SimTime backlog_time() const noexcept {
    return link_.backlog(sim_.now(), head_started_);
  }

  [[nodiscard]] const net::ChannelStats& stats() const noexcept {
    return link_.stats();
  }

 private:
  void start_transmission();

  net::Simulator& sim_;
  net::LinkModel link_;
  DepartFn depart_;
  std::vector<std::function<void()>> writable_;

  struct QueuedFrame {
    int channel = 0;
    std::vector<std::uint8_t> bytes;
  };

  std::deque<QueuedFrame> queue_;
  bool transmitting_ = false;  ///< as in net::SimChannel
  bool head_started_ = false;
  bool was_ready_ = true;
};

}  // namespace mcss::topo
