// Routed multi-hop topologies: links, paths, and correlated risk.
//
// The paper models M channels as independent parallel point-to-point
// wires. This layer replaces that with an explicit graph (the shape of
// hansungk/netsim's router/topology split): directed links between
// nodes carry capacity/delay/loss/tap-risk, and each logical channel
// is a PATH — an ordered list of link ids from the source node to the
// sink node. Two consequences the flat model cannot express:
//
//   correlated loss      frames of different channels queue behind one
//                        another on a shared link's serializer and are
//                        dropped by the same queue,
//   correlated exposure  an adversary taps LINKS; one tapped shared
//                        link exposes every channel routed over it, so
//                        the subset risk z(k, M) is the correlated
//                        quantity of util/link_risk.hpp, not the
//                        Poisson binomial.
//
// Topology is pure data + math (no simulator); topo::Network drives it
// through the sequential and partitioned DES backends.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/sim_time.hpp"
#include "util/link_risk.hpp"

namespace mcss::topo {

/// One directed link (src node -> dst node).
struct LinkSpec {
  int src = 0;
  int dst = 0;
  double rate_bps = 100e6;  ///< serialization rate
  double loss = 0.0;        ///< per-frame Bernoulli loss in [0, 1)
  net::SimTime delay = 0;   ///< propagation delay
  std::size_t queue_capacity_bytes = 64 * 1024;
  /// P(the adversary taps this link), independent across links — the
  /// per-link generalization of the paper's per-channel z_i.
  double tap_risk = 0.0;
};

struct Topology {
  std::string name;
  int num_nodes = 0;
  int source = 0;  ///< every path starts here
  int sink = 0;    ///< every path ends here
  std::vector<LinkSpec> links;
  /// paths[i] = ordered link ids of channel i, source -> sink.
  std::vector<std::vector<int>> paths;

  [[nodiscard]] int num_channels() const noexcept {
    return static_cast<int>(paths.size());
  }
  [[nodiscard]] int num_links() const noexcept {
    return static_cast<int>(links.size());
  }

  /// Throws (MCSS_ENSURE) unless: >= 1 path, <= 32 paths, <= 64 links,
  /// every path is contiguous source -> sink, uses each link at most
  /// once, and all link parameters are in range.
  void validate() const;

  /// LinkMask of the links channel i traverses.
  [[nodiscard]] LinkMask channel_link_mask(int i) const;
  /// All channels' link masks, indexed by channel.
  [[nodiscard]] std::vector<std::uint64_t> channel_link_masks() const;
  /// Per-link tap risks, indexed by link id.
  [[nodiscard]] std::vector<double> link_tap_risks() const;
  /// Links traversed by more than one path — where correlation lives.
  [[nodiscard]] LinkMask shared_links() const;

  /// Sum of propagation delays along channel i's path.
  [[nodiscard]] net::SimTime path_delay(int i) const;
  /// Marginal exposure probability per channel (path survives iff no
  /// link on it is tapped) — the inputs an independent-channel model
  /// would see.
  [[nodiscard]] std::vector<double> marginal_risks() const;

  /// Exact z(k, all channels) under independent link taps — the
  /// correlated generalization of the paper's subset risk.
  [[nodiscard]] double correlated_z(int k) const;
  /// The independent-channel prediction for the same marginals
  /// (Poisson-binomial tail). correlated_z >= independent_z wherever
  /// paths overlap and k >= 2; equal when all paths are disjoint.
  [[nodiscard]] double independent_z(int k) const;
};

// Fig-style named setups for the correlation-gap bench. All expose
// m channels between one source and one sink with per-link tap risk
// `tap_risk` and identical per-link rate/delay/loss knobs.

/// Disjoint control: m two-hop paths source -> relay_i -> sink, no
/// shared links. correlated_z == independent_z here, exactly.
[[nodiscard]] Topology disjoint_control(int m = 4, double tap_risk = 0.05);

/// Diamond: m channels over 2 relays — channel i routes via relay
/// (i % 2), so channels sharing a relay share BOTH their links.
[[nodiscard]] Topology diamond(int m = 4, double tap_risk = 0.05);

/// Shared bottleneck: every path crosses one common source -> hub
/// link before fanning out over per-channel relays. One tapped link
/// exposes all m channels at once — the worst case.
[[nodiscard]] Topology shared_bottleneck(int m = 4, double tap_risk = 0.05);

/// Multihomed WAN: two provider cores; channel i enters provider
/// (i % 2) over a private access link, crosses that provider's shared
/// core link, and exits over a private egress link. Correlation in
/// groups, weaker than the bottleneck, absent across providers.
[[nodiscard]] Topology multihomed_wan(int m = 4, double tap_risk = 0.05);

}  // namespace mcss::topo
