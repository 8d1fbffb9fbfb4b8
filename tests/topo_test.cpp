// Tests for the routed topology layer (src/topo): Topology validation
// and link-mask math, the named factory setups, correlated vs
// independent subset risk, SimLink arithmetic, routed delivery through
// topo::Network on both DES backends, and the partitioned backend's
// thread-count determinism.
#include <gtest/gtest.h>

#include <cstdint>
#include <tuple>
#include <vector>

#include "net/parallel_sim/partitioned_sim.hpp"
#include "net/sim_time.hpp"
#include "net/simulator.hpp"
#include "obs/metrics.hpp"
#include "runtime/thread_pool.hpp"
#include "topo/network.hpp"
#include "topo/sim_link.hpp"
#include "topo/topology.hpp"
#include "util/ensure.hpp"
#include "util/link_risk.hpp"
#include "util/rng.hpp"

namespace mcss::topo {
namespace {

struct ThreadGuard {
  explicit ThreadGuard(unsigned n) { runtime::set_threads(n); }
  ~ThreadGuard() { runtime::set_threads(1); }
  ThreadGuard(const ThreadGuard&) = delete;
  ThreadGuard& operator=(const ThreadGuard&) = delete;
};

/// Two-hop chain source -> relay -> sink carrying every channel over
/// both links (the smallest fully-shared topology).
Topology chain(int channels, double tap_risk = 0.1) {
  Topology t;
  t.name = "chain";
  t.num_nodes = 3;
  t.source = 0;
  t.sink = 1;
  LinkSpec first;
  first.src = 0;
  first.dst = 2;
  first.delay = net::from_millis(1);
  first.tap_risk = tap_risk;
  LinkSpec second = first;
  second.src = 2;
  second.dst = 1;
  t.links = {first, second};
  for (int c = 0; c < channels; ++c) t.paths.push_back({0, 1});
  t.validate();
  return t;
}

// ------------------------------------------------------------ Topology

TEST(Topology, ValidateRejectsBrokenPaths) {
  Topology t = chain(1);
  t.paths[0] = {1, 0};  // not contiguous from the source
  EXPECT_THROW(t.validate(), PreconditionError);

  t = chain(1);
  t.paths[0] = {0};  // ends at the relay, not the sink
  EXPECT_THROW(t.validate(), PreconditionError);

  t = chain(1);
  t.paths[0] = {0, 0};  // reuses a link (and is not contiguous)
  EXPECT_THROW(t.validate(), PreconditionError);

  t = chain(1);
  t.links[0].loss = 1.0;
  EXPECT_THROW(t.validate(), PreconditionError);

  t = chain(1);
  t.links[1].tap_risk = 1.5;
  EXPECT_THROW(t.validate(), PreconditionError);
}

TEST(Topology, MasksDelaysAndSharedLinks) {
  const Topology t = shared_bottleneck(3, 0.05);
  EXPECT_EQ(t.num_channels(), 3);
  EXPECT_EQ(t.num_links(), 7);
  // Every path crosses link 0; private fan-out links are unshared.
  EXPECT_EQ(t.shared_links(), LinkMask{1});
  EXPECT_EQ(t.channel_link_mask(0), 0b0000111u);
  EXPECT_EQ(t.channel_link_mask(2), 0b1100001u);
  for (int c = 0; c < t.num_channels(); ++c) {
    EXPECT_EQ(t.path_delay(c), 3 * net::from_millis(5));
  }
  const auto marginals = t.marginal_risks();
  ASSERT_EQ(marginals.size(), 3u);
  for (const double z : marginals) {
    EXPECT_NEAR(z, 1.0 - 0.95 * 0.95 * 0.95, 1e-12);
  }

  EXPECT_EQ(disjoint_control(4).shared_links(), LinkMask{0});
  EXPECT_EQ(diamond(4).shared_links(), full_link_mask(4));
}

TEST(Topology, DisjointControlMatchesPoissonBinomialExactly) {
  const Topology t = disjoint_control(4, 0.07);
  for (int k = 1; k <= 4; ++k) {
    EXPECT_NEAR(t.correlated_z(k), t.independent_z(k), 1e-15) << "k=" << k;
  }
}

TEST(Topology, SharedLinksMakeTheCatastrophicTailStrictlyWorse) {
  for (const Topology& t :
       {diamond(4, 0.05), shared_bottleneck(4, 0.05),
        multihomed_wan(4, 0.05)}) {
    EXPECT_GT(t.correlated_z(4), t.independent_z(4)) << t.name;
  }
  // Fully shared chain: one tapped link exposes everything, so
  // z(k) is the same for every k and equals P(any link tapped).
  const Topology c = chain(3, 0.1);
  const double any = 1.0 - 0.9 * 0.9;
  for (int k = 1; k <= 3; ++k) EXPECT_NEAR(c.correlated_z(k), any, 1e-15);
  EXPECT_LT(c.independent_z(3), c.correlated_z(3));
}

// ------------------------------------------------------------- SimLink

TEST(SimLink, SerializesTagsChannelsAndTailDrops) {
  net::Simulator sim;
  LinkSpec spec;
  spec.src = 0;
  spec.dst = 1;
  spec.rate_bps = 8e6;  // 1000 bytes = 1 ms on the serializer
  spec.delay = 0;
  spec.queue_capacity_bytes = 2500;
  SimLink link(sim, spec, Rng(3));
  std::vector<std::tuple<int, net::SimTime>> departures;
  link.set_depart([&](int channel, std::vector<std::uint8_t>) {
    departures.emplace_back(channel, sim.now());
  });
  EXPECT_TRUE(link.try_send(4, std::vector<std::uint8_t>(1000, 1)));
  EXPECT_TRUE(link.try_send(9, std::vector<std::uint8_t>(1000, 2)));
  EXPECT_FALSE(link.try_send(4, std::vector<std::uint8_t>(1000, 3)));
  EXPECT_EQ(link.stats().frames_dropped_queue, 1u);
  sim.run();
  ASSERT_EQ(departures.size(), 2u);
  EXPECT_EQ(departures[0], (std::tuple{4, net::SimTime{1'000'000}}));
  EXPECT_EQ(departures[1], (std::tuple{9, net::SimTime{2'000'000}}));
  EXPECT_EQ(link.stats().frames_delivered, 2u);
}

TEST(SimLink, WritableEdgeFansOutToEverySubscriber) {
  net::Simulator sim;
  LinkSpec spec;
  spec.src = 0;
  spec.dst = 1;
  spec.rate_bps = 8e6;
  spec.queue_capacity_bytes = 2000;  // watermark = 1000
  SimLink link(sim, spec, Rng(3));
  link.set_depart([](int, std::vector<std::uint8_t>) {});
  int edges = 0;
  link.add_writable_subscriber([&] { ++edges; });
  link.add_writable_subscriber([&] { ++edges; });
  ASSERT_TRUE(link.try_send(0, std::vector<std::uint8_t>(1500, 0)));
  EXPECT_FALSE(link.ready());
  sim.run();
  EXPECT_TRUE(link.ready());
  EXPECT_EQ(edges, 2);  // both subscribers saw the one edge
}

// ------------------------------------------------------------- Network

TEST(Network, DeliversEveryFrameOnEveryNamedTopology) {
  for (Topology t : {disjoint_control(4), diamond(4), shared_bottleneck(4),
                     multihomed_wan(4)}) {
    net::Simulator sim;
    Network net(sim, t, Rng(11));
    std::vector<int> delivered(static_cast<std::size_t>(t.num_channels()), 0);
    for (int c = 0; c < net.num_channels(); ++c) {
      const net::SimTime floor = net.channel(c).path_delay();
      net.channel(c).set_receiver(
          [&delivered, &sim, c, floor](std::vector<std::uint8_t> frame) {
            ++delivered[static_cast<std::size_t>(c)];
            EXPECT_EQ(frame[0], static_cast<std::uint8_t>(c));
            EXPECT_GE(sim.now(), floor);
          });
      for (int seq = 0; seq < 8; ++seq) {
        std::vector<std::uint8_t> frame(128, 0);
        frame[0] = static_cast<std::uint8_t>(c);
        EXPECT_TRUE(net.channel(c).try_send(std::move(frame)));
      }
    }
    sim.run();
    for (const int n : delivered) EXPECT_EQ(n, 8) << t.name;
    EXPECT_EQ(net.stats().frames_delivered_end, 32u) << t.name;
    EXPECT_EQ(net.stats().frames_dropped_midpath, 0u) << t.name;
    EXPECT_GT(net.stats().frames_forwarded, 0u) << t.name;
  }
}

TEST(Network, MidpathQueueRefusalIsCountedNotFatal) {
  Topology t = chain(1);
  t.links[0].rate_bps = 80e6;  // fast first hop feeds...
  t.links[1].rate_bps = 8e6;   // ...a slow second hop
  t.links[1].queue_capacity_bytes = 1200;  // that can hold one frame
  net::Simulator sim;
  Network net(sim, t, Rng(5));
  int delivered = 0;
  net.channel(0).set_receiver(
      [&delivered](std::vector<std::uint8_t>) { ++delivered; });
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(net.channel(0).try_send(std::vector<std::uint8_t>(1000, 7)));
  }
  sim.run();
  EXPECT_GT(net.stats().frames_dropped_midpath, 0u);
  EXPECT_GT(delivered, 0);
  EXPECT_EQ(static_cast<std::uint64_t>(delivered),
            net.stats().frames_delivered_end);
}

TEST(Network, SharedIngressBacklogGatesEveryEnteringChannel) {
  // All channels of shared_bottleneck enter on link 0: once one channel
  // fills the bottleneck past its watermark, the OTHERS see not-ready
  // too — the correlated-queueing half of shared links.
  Topology t = shared_bottleneck(2);
  t.links[0].queue_capacity_bytes = 3000;  // watermark = 1500
  net::Simulator sim;
  Network net(sim, t, Rng(2));
  for (int c = 0; c < 2; ++c) {
    net.channel(c).set_receiver([](std::vector<std::uint8_t>) {});
  }
  int writable_edges = 0;
  net.channel(1).set_writable_callback([&] { ++writable_edges; });
  ASSERT_TRUE(net.channel(0).try_send(std::vector<std::uint8_t>(2000, 1)));
  EXPECT_FALSE(net.channel(1).ready());
  EXPECT_GT(net.channel(1).backlog_time(), 0);
  sim.run();
  EXPECT_TRUE(net.channel(1).ready());
  EXPECT_EQ(writable_edges, 1);
}

TEST(Network, PublishesTopoMetrics) {
  obs::Registry::global().reset();
  net::Simulator sim;
  const Topology t = shared_bottleneck(2);
  Network net(sim, t, Rng(4));
  for (int c = 0; c < 2; ++c) {
    net.channel(c).set_receiver([](std::vector<std::uint8_t>) {});
    ASSERT_TRUE(net.channel(c).try_send(std::vector<std::uint8_t>(64, 0)));
  }
  sim.run();
  net.publish_metrics(obs::Registry::global());
  const auto snap = obs::Registry::global().snapshot();
  EXPECT_EQ(snap.counter_value("mcss_topo_frames_delivered_end"), 2u);
  EXPECT_GT(snap.counter_value("mcss_topo_frames_forwarded"), 0u);
  // Each frame is offered once per hop: 3 hops x 2 frames.
  EXPECT_EQ(snap.counter_value("mcss_topo_link_frames_offered"), 6u);
  bool saw_links_gauge = false;
  for (const auto& gauge : snap.gauges) {
    if (gauge.name == "mcss_topo_links") {
      saw_links_gauge = true;
      // shared_bottleneck(2): the bottleneck plus two private links per
      // channel.
      EXPECT_EQ(gauge.value, 5.0);
    }
  }
  EXPECT_TRUE(saw_links_gauge);
  obs::Registry::global().reset();
}

// ------------------------------------------- Network on the partitioned sim

/// diamond() with one LP per node, 5% loss everywhere, staggered sends;
/// returns (delivered, arrival fingerprint, per-link loss counters).
std::tuple<std::uint64_t, std::uint64_t, std::vector<std::uint64_t>>
partitioned_run(unsigned threads) {
  ThreadGuard guard(threads);
  Topology t = diamond(4);
  for (LinkSpec& link : t.links) link.loss = 0.05;
  net::psim::PartitionedSimulator psim(4, net::from_millis(5));
  Network net(psim, {0, 1, 2, 3}, t, Rng(99));

  std::uint64_t delivered = 0;
  std::uint64_t fingerprint = 1469598103934665603ULL;
  net::Simulator& sink_sim = psim.lp(1).sim();
  for (int c = 0; c < net.num_channels(); ++c) {
    net.channel(c).set_receiver(
        [&, c](std::vector<std::uint8_t> frame) {
          ++delivered;
          fingerprint ^= static_cast<std::uint64_t>(sink_sim.now()) * 31u +
                         static_cast<std::uint64_t>(c) * 7u + frame[1];
          fingerprint *= 1099511628211ULL;
        });
  }
  net::Simulator& source_sim = psim.lp(0).sim();
  for (int c = 0; c < net.num_channels(); ++c) {
    for (int seq = 0; seq < 40; ++seq) {
      source_sim.schedule_at(net::from_millis(seq), [&net, c, seq] {
        std::vector<std::uint8_t> frame(200, 0);
        frame[0] = static_cast<std::uint8_t>(c);
        frame[1] = static_cast<std::uint8_t>(seq);
        (void)net.channel(c).try_send(std::move(frame));
      });
    }
  }
  psim.run();
  std::vector<std::uint64_t> losses;
  for (int l = 0; l < t.num_links(); ++l) {
    losses.push_back(net.link(l).stats().frames_dropped_loss);
  }
  return {delivered, fingerprint, losses};
}

TEST(NetworkPartitioned, BitwiseIdenticalAcrossThreadCounts) {
  const auto base = partitioned_run(1);
  EXPECT_GT(std::get<0>(base), 0u);
  EXPECT_EQ(partitioned_run(2), base);
  EXPECT_EQ(partitioned_run(8), base);
}

TEST(NetworkPartitioned, RejectsCrossLpLinkBelowLookahead) {
  Topology t = diamond(2);
  t.links[1].delay = net::from_millis(1);  // A -> sink crosses LPs
  net::psim::PartitionedSimulator psim(4, net::from_millis(5));
  EXPECT_THROW(Network(psim, {0, 1, 2, 3}, std::move(t), Rng(1)),
               PreconditionError);
}

TEST(NetworkPartitioned, ValidatesNodeLpMap) {
  net::psim::PartitionedSimulator psim(2, net::from_millis(5));
  EXPECT_THROW(Network(psim, {0, 1}, diamond(2), Rng(1)), PreconditionError);
  EXPECT_THROW(Network(psim, {0, 1, 0, 9}, diamond(2), Rng(1)),
               PreconditionError);
}

}  // namespace
}  // namespace mcss::topo
