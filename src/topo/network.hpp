// Routed delivery over a Topology, on either DES backend.
//
// Network instantiates one SimLink per topology link and one
// RoutedChannel per path, then routes: when a frame leaves link
// l's serializer it propagates for l's delay and either enters the
// next link of its channel's path or, at the sink, fires the
// channel's receiver. RoutedChannel implements net::ChannelPort, so
// proto::Sender / proto::Receiver / feedback::ReliableLink drive a
// routed topology exactly as they drive flat SimChannels.
//
// Engines:
//
//   Network(Simulator&, ...)             every link schedules on one
//                                        sequential simulator.
//   Network(PartitionedSimulator&, node_lp, ...)
//     router per LP: node_lp[n] names the LP that owns node n; a link
//     lives on its SOURCE node's LP (its queue and serializer run
//     there). Propagation crosses LPs via LogicalProcess::send, so
//     every link whose endpoints map to different LPs must have
//     delay >= the engine's lookahead — link delay IS the lookahead,
//     which is what keeps MCSS_THREADS=N bitwise identical to =1
//     (validated at construction). Per-link loss RNGs fork from the
//     root in link-id order, so streams are thread-count independent.
//
// Endpoint placement contract: the Sender (and anything calling
// try_send on a RoutedChannel) must run on the source node's LP; the
// Receiver runs on the sink node's LP.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "net/channel_port.hpp"
#include "net/parallel_sim/partitioned_sim.hpp"
#include "net/sim_time.hpp"
#include "net/simulator.hpp"
#include "topo/sim_link.hpp"
#include "topo/topology.hpp"
#include "util/rng.hpp"

namespace mcss::obs {
class Registry;
}

namespace mcss::topo {

class Network;

/// One logical channel = one path through the Network. The ChannelPort
/// surface reflects the INGRESS link (the hop the sender contends on):
/// ready/backlog/writability are the first link's; downstream queueing
/// is invisible at the ingress, as on a real multihop path.
class RoutedChannel final : public net::ChannelPort {
 public:
  RoutedChannel(const RoutedChannel&) = delete;
  RoutedChannel& operator=(const RoutedChannel&) = delete;

  bool try_send(std::vector<std::uint8_t> frame) override;
  [[nodiscard]] bool ready() const noexcept override;
  [[nodiscard]] net::SimTime backlog_time() const noexcept override;
  void set_receiver(DeliverFn fn) override { deliver_ = std::move(fn); }
  void set_writable_callback(WritableFn fn) override {
    writable_ = std::move(fn);
  }

  [[nodiscard]] int id() const noexcept { return id_; }
  /// End-to-end propagation delay of the path (sum of link delays).
  [[nodiscard]] net::SimTime path_delay() const noexcept {
    return path_delay_;
  }

 private:
  friend class Network;
  RoutedChannel(int id, SimLink* ingress, net::SimTime path_delay)
      : id_(id), ingress_(ingress), path_delay_(path_delay) {}

  int id_ = 0;
  SimLink* ingress_ = nullptr;
  net::SimTime path_delay_ = 0;
  DeliverFn deliver_;
  WritableFn writable_;
};

struct NetworkStats {
  std::uint64_t frames_forwarded = 0;  ///< mid-path next-hop handoffs
  std::uint64_t frames_dropped_midpath = 0;  ///< next hop's queue refused
  std::uint64_t frames_delivered_end = 0;    ///< reached the sink
};

class Network {
 public:
  /// Sequential backend: all links on `sim`. `rng` seeds the per-link
  /// loss streams (forked in link-id order).
  Network(net::Simulator& sim, Topology topo, Rng rng);

  /// Partitioned backend: node_lp[n] is the LP owning node n (size
  /// num_nodes, values < psim.num_lps()). Cross-LP links must have
  /// delay >= psim.lookahead().
  Network(net::psim::PartitionedSimulator& psim,
          std::vector<std::uint32_t> node_lp, Topology topo, Rng rng);

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  [[nodiscard]] const Topology& topology() const noexcept { return topo_; }
  [[nodiscard]] RoutedChannel& channel(int i);
  [[nodiscard]] SimLink& link(int id);
  [[nodiscard]] int num_channels() const noexcept {
    return static_cast<int>(channels_.size());
  }

  /// The channels as ports, for Sender/ReliableLink construction.
  [[nodiscard]] std::vector<net::ChannelPort*> channel_ports();

  [[nodiscard]] const NetworkStats& stats() const noexcept { return stats_; }

  /// Aggregate every link's counters (mcss_topo_link_*) plus network
  /// totals and topology gauges into the registry under mcss_topo_* names.
  void publish_metrics(obs::Registry& registry) const;

 private:
  void build(Rng rng);
  [[nodiscard]] net::Simulator& sim_for_node(int node);
  void on_depart(int link_id, int channel, std::vector<std::uint8_t> frame);
  void arrive(int next_link, int channel, std::vector<std::uint8_t> frame);

  Topology topo_;
  net::Simulator* single_sim_ = nullptr;         // sequential backend
  net::psim::PartitionedSimulator* psim_ = nullptr;  // partitioned backend
  std::vector<std::uint32_t> node_lp_;
  std::vector<std::unique_ptr<SimLink>> links_;
  std::vector<std::unique_ptr<RoutedChannel>> channels_;
  /// next_[l][c]: link after l on channel c's path; kDeliver at the
  /// sink, kOffPath when c never crosses l.
  static constexpr int kDeliver = -1;
  static constexpr int kOffPath = -2;
  std::vector<std::vector<int>> next_;
  NetworkStats stats_;
};

}  // namespace mcss::topo
