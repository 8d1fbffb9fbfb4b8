// End-to-end tests for the ReMICSS protocol: schedulers, sender, receiver
// reassembly, loss tolerance, eviction, and the MICSS baseline.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <memory>
#include <vector>

#include "net/sim_channel.hpp"
#include "net/simulator.hpp"
#include "protocol/micss.hpp"
#include "protocol/receiver.hpp"
#include "protocol/scheduler.hpp"
#include "protocol/sender.hpp"
#include "protocol/wire.hpp"
#include "util/rng.hpp"

namespace mcss::proto {
namespace {

/// A one-way testbed: n channels from sender to receiver.
struct Testbed {
  net::Simulator sim;
  std::vector<std::unique_ptr<net::SimChannel>> channels;
  std::unique_ptr<Receiver> receiver;
  std::unique_ptr<Sender> sender;
  std::map<std::uint64_t, std::vector<std::uint8_t>> delivered;

  Testbed(std::vector<net::ChannelConfig> configs,
          std::unique_ptr<ShareScheduler> scheduler,
          ReceiverConfig rx_config = {}, SenderConfig tx_config = {},
          std::uint64_t seed = 1) {
    Rng seeder(seed);
    std::vector<net::SimChannel*> raw;
    for (auto& cfg : configs) {
      channels.push_back(
          std::make_unique<net::SimChannel>(sim, cfg, seeder.fork()));
      raw.push_back(channels.back().get());
    }
    receiver = std::make_unique<Receiver>(sim, rx_config);
    for (auto* ch : raw) receiver->attach(*ch);
    receiver->set_deliver([this](std::uint64_t id, std::vector<std::uint8_t> p) {
      delivered[id] = std::move(p);
    });
    sender = std::make_unique<Sender>(sim, raw, std::move(scheduler),
                                      seeder.fork(), nullptr, tx_config);
  }
};

std::vector<net::ChannelConfig> uniform_channels(int n, double rate_bps,
                                                 double loss = 0.0) {
  net::ChannelConfig cfg;
  cfg.rate_bps = rate_bps;
  cfg.loss = loss;
  cfg.delay = net::from_micros(100);
  cfg.queue_capacity_bytes = 64 * 1024;
  std::vector<net::ChannelConfig> v(static_cast<std::size_t>(n), cfg);
  return v;
}

std::vector<std::uint8_t> pattern_payload(std::size_t len, std::uint8_t seed) {
  std::vector<std::uint8_t> p(len);
  for (std::size_t i = 0; i < len; ++i) {
    p[i] = static_cast<std::uint8_t>(seed + i * 31);
  }
  return p;
}

// ---------------------------------------------------------------- schedulers

TEST(DynamicScheduler, PicksLeastBackloggedReadyChannels) {
  DynamicScheduler sched(2.0, 2.0, 4);
  const std::vector<ChannelView> view{{true, 400}, {true, 100}, {false, 0}, {true, 200}};
  const auto d = sched.next(view);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->k, 2);
  EXPECT_EQ(d->channels, (std::vector<int>{1, 3}));  // two least-backlogged ready
}

TEST(DynamicScheduler, EqualBacklogTiesBreakByChannelIndex) {
  // Regression: with every backlog equal (the startup state of every
  // sweep), the selected M must be the lowest channel indices — an
  // explicit total order, not an artifact of one stdlib's sort. A
  // divergent tiebreak here changes which channels carry shares and
  // fans out into every downstream measurement.
  DynamicScheduler sched(2.0, 3.0, 5);
  const std::vector<ChannelView> all_equal{
      {true, 700}, {true, 700}, {true, 700}, {true, 700}, {true, 700}};
  const auto d = sched.next(all_equal);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->channels, (std::vector<int>{0, 1, 2}));

  // Partial ties: channel 4's smaller backlog wins, then the tied pair
  // 1 < 3 fills the remaining slots.
  DynamicScheduler sched2(2.0, 3.0, 5);
  const std::vector<ChannelView> partial{
      {true, 900}, {true, 500}, {false, 0}, {true, 500}, {true, 100}};
  const auto d2 = sched2.next(partial);
  ASSERT_TRUE(d2.has_value());
  EXPECT_EQ(d2->channels, (std::vector<int>{4, 1, 3}));
}

TEST(DynamicScheduler, DefersWhenTooFewReady) {
  DynamicScheduler sched(3.0, 3.0, 4);
  const std::vector<ChannelView> only_two{{true, 0}, {true, 0}, {false, 0}, {false, 0}};
  EXPECT_FALSE(sched.next(only_two).has_value());
  // Once enough channels free up, the SAME (k, m) decision is offered.
  const std::vector<ChannelView> three{{true, 0}, {true, 0}, {true, 0}, {false, 0}};
  const auto d = sched.next(three);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->channels.size(), 3u);
}

TEST(DynamicScheduler, DeferralDoesNotSkewAverages) {
  // Alternate readiness so every other call defers; kappa/mu of ACCEPTED
  // decisions must still match the targets.
  DynamicScheduler sched(1.5, 2.5, 4);
  const std::vector<ChannelView> all{{true, 0}, {true, 0}, {true, 0}, {true, 0}};
  const std::vector<ChannelView> none{{false, 0}, {false, 0}, {false, 0}, {false, 0}};
  double sum_k = 0, sum_m = 0;
  int accepted = 0;
  for (int i = 0; i < 20000; ++i) {
    EXPECT_FALSE(sched.next(none).has_value());
    const auto d = sched.next(all);
    ASSERT_TRUE(d.has_value());
    sum_k += d->k;
    sum_m += static_cast<double>(d->channels.size());
    ++accepted;
  }
  EXPECT_NEAR(sum_k / accepted, 1.5, 0.01);
  EXPECT_NEAR(sum_m / accepted, 2.5, 0.01);
}

TEST(StaticScheduler, WaitsForItsSampledSubset) {
  const ChannelSet cs{{0, 0, 0, 1}, {0, 0, 0, 1}};
  // Deterministic schedule: always (2, {0, 1}).
  StaticScheduler sched(ShareSchedule(cs, {{2, 0b11, 1.0}}), Rng(1));
  const std::vector<ChannelView> ch0_busy{{false, 0}, {true, 0}};
  EXPECT_FALSE(sched.next(ch0_busy).has_value());
  const std::vector<ChannelView> both{{true, 0}, {true, 0}};
  const auto d = sched.next(both);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->k, 2);
  EXPECT_EQ(d->channels, (std::vector<int>{0, 1}));
}

TEST(StaticScheduler, FullParkedPoolEvictsOldestInsteadOfWedging) {
  // Regression: once pool_limit_ undispatchable decisions were parked,
  // next() returned nullopt forever — even though the schedule could
  // still sample subsets that ARE writable. With channel 0 stuck busy,
  // the dominant (1, {0}) entry quickly fills the pool; the scheduler
  // must keep drawing (evicting stale parked entries) until it samples
  // the rare (1, {1}) entry that channel 1 can take.
  const ChannelSet cs{{0, 0, 0, 1}, {0, 0, 0, 1}};
  StaticScheduler sched(
      ShareSchedule(cs, {{1, 0b01, 0.999}, {1, 0b10, 0.001}}), Rng(7),
      /*pool_limit=*/4);
  const std::vector<ChannelView> ch0_busy{{false, 0}, {true, 0}};

  std::optional<ShareDecision> d;
  int calls = 0;
  for (; calls < 10000 && !d; ++calls) d = sched.next(ch0_busy);
  ASSERT_TRUE(d.has_value()) << "scheduler wedged after " << calls << " calls";
  EXPECT_EQ(d->channels, (std::vector<int>{1}));
  // The pool filled long before the rare entry came up, so progress
  // required evicting parked decisions.
  EXPECT_GT(sched.stats().parked_evicted, 0u);

  // Recovery: once channel 0 frees up, parked (1, {0}) work dispatches.
  const std::vector<ChannelView> both{{true, 0}, {true, 0}};
  const auto parked = sched.next(both);
  ASSERT_TRUE(parked.has_value());
  EXPECT_EQ(parked->channels, (std::vector<int>{0}));
  EXPECT_GT(sched.stats().parked_dispatched, 0u);
}

TEST(FixedScheduler, RequiresAllChannels) {
  FixedScheduler sched(3, 3);
  const std::vector<ChannelView> missing_one{{true, 0}, {true, 0}, {false, 0}};
  EXPECT_FALSE(sched.next(missing_one).has_value());
  const std::vector<ChannelView> all{{true, 0}, {true, 0}, {true, 0}};
  const auto d = sched.next(all);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->k, 3);
  EXPECT_EQ(d->channels, (std::vector<int>{0, 1, 2}));
}

// ---------------------------------------------------------------- end to end

TEST(EndToEnd, SinglePacketRoundtrip) {
  Testbed t(uniform_channels(3, 10e6),
            std::make_unique<DynamicScheduler>(2.0, 3.0, 3));
  const auto payload = pattern_payload(1000, 7);
  ASSERT_TRUE(t.sender->send(payload));
  t.sim.run();
  ASSERT_EQ(t.delivered.size(), 1u);
  EXPECT_EQ(t.delivered.begin()->second, payload);
}

TEST(EndToEnd, ManyPacketsAllDeliveredInLosslessNetwork) {
  Testbed t(uniform_channels(5, 100e6),
            std::make_unique<DynamicScheduler>(2.5, 3.5, 5));
  const int count = 500;
  std::map<std::uint64_t, std::vector<std::uint8_t>> sent;
  std::uint64_t id = 1;  // sender assigns ids 1..count in order
  for (int i = 0; i < count; ++i) {
    auto payload = pattern_payload(1200, static_cast<std::uint8_t>(i));
    // Pace offers so the bounded sender queue never rejects.
    t.sim.schedule_at(net::from_micros(static_cast<double>(i) * 200),
                      [&t, p = payload] { ASSERT_TRUE(t.sender->send(p)); });
    sent[id++] = std::move(payload);
  }
  t.sim.run();
  EXPECT_EQ(t.delivered.size(), static_cast<std::size_t>(count));
  for (const auto& [pid, payload] : sent) {
    ASSERT_TRUE(t.delivered.contains(pid)) << "packet " << pid;
    EXPECT_EQ(t.delivered.at(pid), payload) << "packet " << pid;
  }
  EXPECT_EQ(t.receiver->stats().packets_delivered, static_cast<std::uint64_t>(count));
  EXPECT_EQ(t.receiver->stats().malformed_frames, 0u);
  EXPECT_EQ(t.sender->stats().shares_dropped_at_channel, 0u);
}

TEST(EndToEnd, AchievedKappaMuMatchTargets) {
  Testbed t(uniform_channels(5, 100e6),
            std::make_unique<DynamicScheduler>(1.7, 3.3, 5));
  for (int i = 0; i < 2000; ++i) {
    t.sim.schedule_at(net::from_micros(static_cast<double>(i) * 150),
                      [&t] { (void)t.sender->send(pattern_payload(500, 1)); });
  }
  t.sim.run();
  EXPECT_NEAR(t.sender->stats().achieved_kappa(), 1.7, 0.01);
  EXPECT_NEAR(t.sender->stats().achieved_mu(), 3.3, 0.01);
}

TEST(EndToEnd, ToleratesMMinusKLosses) {
  // k=2, m=5 on channels with 20% loss: a packet dies only if 4+ of its 5
  // shares die. Over 1000 packets expect ~(loss cases) per subset loss
  // formula; verify the measured rate is close.
  auto configs = uniform_channels(5, 100e6, 0.2);
  Testbed t(configs, std::make_unique<DynamicScheduler>(2.0, 5.0, 5),
            ReceiverConfig{}, SenderConfig{}, /*seed=*/42);
  const int count = 4000;
  for (int i = 0; i < count; ++i) {
    t.sim.schedule_at(net::from_micros(static_cast<double>(i) * 200),
                      [&t] { (void)t.sender->send(pattern_payload(800, 3)); });
  }
  t.sim.run();
  // l(2, M) for 5 iid channels at 0.2: P(fewer than 2 arrive)
  //   = 0.2^5 + 5 * 0.8 * 0.2^4 = 0.00672.
  const double loss_rate =
      1.0 - static_cast<double>(t.delivered.size()) / count;
  EXPECT_NEAR(loss_rate, 0.00672, 0.006);
  // Every delivered packet is intact despite lost shares.
  for (const auto& [id, payload] : t.delivered) {
    EXPECT_EQ(payload, pattern_payload(800, 3));
  }
}

TEST(EndToEnd, HigherKappaIsMoreFragile) {
  // Same channels, kappa = mu = 5 (need every share): loss should be
  // 1 - 0.8^5 = 67%.
  Testbed t(uniform_channels(5, 100e6, 0.2),
            std::make_unique<DynamicScheduler>(5.0, 5.0, 5),
            ReceiverConfig{}, SenderConfig{}, 43);
  const int count = 3000;
  for (int i = 0; i < count; ++i) {
    t.sim.schedule_at(net::from_micros(static_cast<double>(i) * 300),
                      [&t] { (void)t.sender->send(pattern_payload(400, 5)); });
  }
  t.sim.run();
  const double loss_rate =
      1.0 - static_cast<double>(t.delivered.size()) / count;
  EXPECT_NEAR(loss_rate, 1.0 - std::pow(0.8, 5), 0.03);
}

TEST(EndToEnd, BackpressureWhenQueueFull) {
  SenderConfig small;
  small.max_queue_packets = 4;
  // One very slow channel: the queue must fill.
  Testbed t(uniform_channels(1, 1e4),
            std::make_unique<DynamicScheduler>(1.0, 1.0, 1), ReceiverConfig{},
            small);
  int accepted = 0;
  for (int i = 0; i < 100; ++i) {
    accepted += t.sender->send(pattern_payload(1000, 1));
  }
  EXPECT_LT(accepted, 100);
  EXPECT_EQ(t.sender->stats().packets_rejected,
            static_cast<std::uint64_t>(100 - accepted));
  t.sim.run();
}

TEST(EndToEnd, SenderRejectsOversizedPacket) {
  Testbed t(uniform_channels(2, 10e6),
            std::make_unique<DynamicScheduler>(1.0, 1.0, 2));
  EXPECT_THROW((void)t.sender->send(std::vector<std::uint8_t>(kMaxPayload + 1, 0)),
               PreconditionError);
}

// ---------------------------------------------------------------- receiver

TEST(Receiver, EvictsStalePartialsOnTimeout) {
  net::Simulator sim;
  ReceiverConfig cfg;
  cfg.reassembly_timeout = net::from_millis(10);
  Receiver rx(sim, cfg);
  int delivered = 0;
  rx.set_deliver([&](std::uint64_t, std::vector<std::uint8_t>) { ++delivered; });

  // One share of a k=2 packet; the second never arrives.
  ShareFrame f;
  f.packet_id = 99;
  f.k = 2;
  f.share_index = 1;
  f.payload = {1, 2, 3};
  rx.on_frame(encode(f));
  EXPECT_EQ(rx.pending_packets(), 1u);
  sim.run();
  EXPECT_EQ(rx.pending_packets(), 0u);
  EXPECT_EQ(rx.stats().packets_evicted_timeout, 1u);
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(rx.buffered_bytes(), 0u);
}

TEST(Receiver, LateShareAfterTimeoutDoesNotResurrect) {
  net::Simulator sim;
  ReceiverConfig cfg;
  cfg.reassembly_timeout = net::from_millis(10);
  Receiver rx(sim, cfg);
  int delivered = 0;
  rx.set_deliver([&](std::uint64_t, std::vector<std::uint8_t>) { ++delivered; });

  ShareFrame f;
  f.packet_id = 7;
  f.k = 2;
  f.share_index = 1;
  f.payload = {1};
  rx.on_frame(encode(f));
  sim.run_until(net::from_millis(20));  // timeout fires
  EXPECT_EQ(rx.stats().packets_evicted_timeout, 1u);
  // The second share arrives late: starts a NEW partial, times out again.
  f.share_index = 2;
  rx.on_frame(encode(f));
  sim.run();
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(rx.stats().packets_evicted_timeout, 2u);
}

TEST(Receiver, MemoryCapEvictsOldestFirst) {
  net::Simulator sim;
  ReceiverConfig cfg;
  cfg.memory_limit_bytes = 3000;
  cfg.reassembly_timeout = net::from_seconds(100);
  Receiver rx(sim, cfg);

  // Three k=2 partials of 1000 bytes each fill the budget.
  for (std::uint64_t id = 1; id <= 3; ++id) {
    ShareFrame f;
    f.packet_id = id;
    f.k = 2;
    f.share_index = 1;
    f.payload.assign(1000, static_cast<std::uint8_t>(id));
    sim.schedule_in(net::from_millis(static_cast<double>(id)),
                    [&rx, f] { rx.on_frame(encode(f)); });
  }
  // run_until, not run(): run() would also fire the (distant) reassembly
  // timers and evict everything before we can assert on the memory cap.
  sim.run_until(net::from_millis(5));
  EXPECT_EQ(rx.pending_packets(), 3u);
  // A fourth forces out the oldest (id 1).
  ShareFrame f;
  f.packet_id = 4;
  f.k = 2;
  f.share_index = 1;
  f.payload.assign(1000, 4);
  rx.on_frame(encode(f));
  EXPECT_EQ(rx.pending_packets(), 3u);
  EXPECT_EQ(rx.stats().packets_evicted_memory, 1u);

  // Completing id 2 still works (it was not evicted).
  int delivered = 0;
  rx.set_deliver([&](std::uint64_t id2, std::vector<std::uint8_t>) {
    EXPECT_EQ(id2, 2u);
    ++delivered;
  });
  f.packet_id = 2;
  f.share_index = 2;
  f.payload.assign(1000, 2);
  rx.on_frame(encode(f));
  EXPECT_EQ(delivered, 1);
}

TEST(Receiver, AppendsRespectMemoryCap) {
  // Regression: the cap used to be enforced only when a NEW partial was
  // created; appends to existing partials grew buffered_bytes_ past the
  // limit unchecked. Two k=3 partials plus appends drive usage to 4x the
  // share size — above the old cap of 3x.
  net::Simulator sim;
  ReceiverConfig cfg;
  cfg.memory_limit_bytes = 3000;
  cfg.reassembly_timeout = net::from_seconds(100);
  Receiver rx(sim, cfg);

  ShareFrame f;
  f.k = 3;
  f.payload.assign(1000, 0xab);
  f.packet_id = 1;
  f.share_index = 1;
  rx.on_frame(encode(f));
  f.packet_id = 2;
  rx.on_frame(encode(f));
  f.packet_id = 1;
  f.share_index = 2;
  rx.on_frame(encode(f));  // 3000 bytes buffered: exactly at the cap
  EXPECT_EQ(rx.buffered_bytes(), 3000u);
  EXPECT_EQ(rx.stats().packets_evicted_memory, 0u);

  // A third share for id 1 must evict id 2 (the only other partial),
  // never id 1 itself, and must keep the cap invariant.
  f.share_index = 3;
  int delivered = 0;
  rx.set_deliver([&](std::uint64_t id, std::vector<std::uint8_t>) {
    EXPECT_EQ(id, 1u);
    ++delivered;
  });
  rx.on_frame(encode(f));  // completes id 1 with its three shares
  EXPECT_LE(rx.buffered_bytes(), cfg.memory_limit_bytes);
  EXPECT_EQ(rx.stats().packets_evicted_memory, 1u);
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(rx.pending_packets(), 0u);
}

TEST(Receiver, UnfittableShareIsDroppedNotBuffered) {
  net::Simulator sim;
  ReceiverConfig cfg;
  cfg.memory_limit_bytes = 1500;
  cfg.reassembly_timeout = net::from_seconds(100);
  Receiver rx(sim, cfg);

  // An oversized first share can never fit: dropped, nothing tracked.
  ShareFrame f;
  f.packet_id = 1;
  f.k = 3;
  f.share_index = 1;
  f.payload.assign(2000, 1);
  rx.on_frame(encode(f));
  EXPECT_EQ(rx.stats().shares_dropped_memory, 1u);
  EXPECT_EQ(rx.pending_packets(), 0u);
  EXPECT_EQ(rx.buffered_bytes(), 0u);

  // An append that cannot fit even after evicting every OTHER partial
  // (there are none) is dropped; the partial it extends survives intact.
  f.payload.assign(1000, 2);
  rx.on_frame(encode(f));
  EXPECT_EQ(rx.buffered_bytes(), 1000u);
  f.share_index = 2;
  rx.on_frame(encode(f));
  EXPECT_EQ(rx.stats().shares_dropped_memory, 2u);
  EXPECT_EQ(rx.buffered_bytes(), 1000u);
  EXPECT_EQ(rx.pending_packets(), 1u);
}

TEST(Receiver, CreationOrderIsPrunedOnCompletionAndEviction) {
  // Regression: creation_order_ used to leak one entry per completed or
  // timeout-evicted packet, so the eviction scan degraded over time.
  net::Simulator sim;
  ReceiverConfig cfg;
  cfg.reassembly_timeout = net::from_millis(10);
  Receiver rx(sim, cfg);
  rx.set_deliver([](std::uint64_t, std::vector<std::uint8_t>) {});

  ShareFrame f;
  f.k = 1;  // single share completes immediately
  f.payload = {42};
  for (std::uint64_t id = 1; id <= 100; ++id) {
    f.packet_id = id;
    f.share_index = 1;
    rx.on_frame(encode(f));
  }
  EXPECT_EQ(rx.stats().packets_delivered, 100u);
  EXPECT_EQ(rx.pending_packets(), 0u);
  EXPECT_EQ(rx.tracked_partials(), 0u);

  // Timeout evictions must prune their entries too.
  f.k = 2;
  f.packet_id = 200;
  rx.on_frame(encode(f));
  EXPECT_EQ(rx.tracked_partials(), 1u);
  sim.run();
  EXPECT_EQ(rx.stats().packets_evicted_timeout, 1u);
  EXPECT_EQ(rx.tracked_partials(), 0u);
}

/// One share of packet `id` (k shares needed, generation `gen`).
std::vector<std::uint8_t> share_of(std::uint64_t id, std::uint8_t k,
                                   std::uint8_t index, std::uint8_t gen = 0,
                                   std::size_t bytes = 4) {
  ShareFrame f;
  f.packet_id = id;
  f.k = k;
  f.share_index = index;
  f.generation = gen;
  f.payload.assign(bytes, static_cast<std::uint8_t>(id));
  return encode(f);
}

TEST(Receiver, CompletedPacketsLeaveNoTimerBehind) {
  // Each partial's reassembly timer leaves the timeline when the packet
  // completes: the timeline carries pending partials, not one dead timer
  // per packet of the last reassembly timeout.
  net::Simulator sim;
  Receiver rx(sim);
  rx.set_deliver([](std::uint64_t, std::vector<std::uint8_t>) {});
  constexpr std::uint64_t kPackets = 50;
  for (std::uint64_t id = 1; id <= kPackets; ++id) {
    rx.on_frame(share_of(id, 2, 1));
    EXPECT_EQ(sim.pending(), 1u);
    rx.on_frame(share_of(id, 2, 2));
  }
  EXPECT_EQ(rx.stats().packets_delivered, kPackets);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(Receiver, MemoryEvictedPartialLeavesNoTimerBehind) {
  net::Simulator sim;
  ReceiverConfig cfg;
  cfg.memory_limit_bytes = 2000;
  Receiver rx(sim, cfg);
  rx.on_frame(share_of(1, 2, 1, 0, 1000));
  rx.on_frame(share_of(2, 2, 1, 0, 1000));
  ASSERT_EQ(sim.pending(), 2u);
  rx.on_frame(share_of(3, 2, 1, 0, 1000));  // pushes out id 1
  EXPECT_EQ(rx.stats().packets_evicted_memory, 1u);
  EXPECT_EQ(rx.pending_packets(), 2u);
  EXPECT_EQ(sim.pending(), 2u);
}

TEST(Receiver, DestructionLeavesNoTimerOnASharedTimeline) {
  // A session flow's receiver dies while the endpoint's timeline lives
  // on: its pending eviction timers go with it.
  net::Simulator sim;
  {
    Receiver rx(sim);
    for (std::uint64_t id = 1; id <= 5; ++id) rx.on_frame(share_of(id, 3, 1));
    ASSERT_EQ(sim.pending(), 5u);
  }
  EXPECT_EQ(sim.pending(), 0u);
  sim.run();
}

TEST(Receiver, SupersedeLeavesExactlyOneTimerWithAFreshLease) {
  net::Simulator sim;
  ReceiverConfig cfg;
  cfg.reassembly_timeout = net::from_millis(10);
  Receiver rx(sim, cfg);
  rx.on_frame(share_of(7, 2, 1, /*gen=*/1));
  sim.run_until(net::from_millis(6));
  rx.on_frame(share_of(7, 2, 1, /*gen=*/2));  // a retransmission re-split
  EXPECT_EQ(rx.stats().partials_superseded, 1u);
  EXPECT_EQ(sim.pending(), 1u);
  // The first lease (due at 10 ms) is gone; the new one runs to 16 ms.
  sim.run_until(net::from_millis(12));
  EXPECT_EQ(rx.pending_packets(), 1u);
  sim.run_until(net::from_millis(16));
  EXPECT_EQ(rx.pending_packets(), 0u);
  EXPECT_EQ(rx.stats().packets_evicted_timeout, 1u);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(Receiver, TimeoutAndMemoryEvictionInterplay) {
  net::Simulator sim;
  ReceiverConfig cfg;
  cfg.memory_limit_bytes = 2500;
  cfg.reassembly_timeout = net::from_millis(10);
  Receiver rx(sim, cfg);

  const auto share = [](std::uint64_t id) {
    ShareFrame f;
    f.packet_id = id;
    f.k = 2;
    f.share_index = 1;
    f.payload.assign(1000, static_cast<std::uint8_t>(id));
    return encode(f);
  };
  rx.on_frame(share(1));
  sim.schedule_in(net::from_millis(5), [&] { rx.on_frame(share(2)); });
  // At 12 ms packet 1 has timed out; 2 is alive. Packets 3 and 4 then
  // arrive back to back: 3 fits next to 2, 4 must evict 2 (the oldest
  // SURVIVOR — the timeout already reclaimed 1's bytes).
  sim.schedule_in(net::from_millis(12), [&] {
    EXPECT_EQ(rx.stats().packets_evicted_timeout, 1u);
    EXPECT_EQ(rx.buffered_bytes(), 1000u);
    rx.on_frame(share(3));
    rx.on_frame(share(4));
    EXPECT_EQ(rx.stats().packets_evicted_memory, 1u);
    EXPECT_EQ(rx.pending_packets(), 2u);
    EXPECT_LE(rx.buffered_bytes(), cfg.memory_limit_bytes);
  });
  sim.run();
  // Everything eventually times out; bookkeeping must drain to zero.
  EXPECT_EQ(rx.pending_packets(), 0u);
  EXPECT_EQ(rx.tracked_partials(), 0u);
  EXPECT_EQ(rx.buffered_bytes(), 0u);
}

TEST(Receiver, CompletedHistoryIsBounded) {
  net::Simulator sim;
  ReceiverConfig cfg;
  cfg.completed_history = 4;
  Receiver rx(sim, cfg);
  rx.set_deliver([](std::uint64_t, std::vector<std::uint8_t>) {});

  ShareFrame f;
  f.k = 1;
  f.payload = {7};
  f.share_index = 1;
  for (std::uint64_t id = 1; id <= 6; ++id) {
    f.packet_id = id;
    rx.on_frame(encode(f));
  }
  // Id 6 is still remembered: its replay is a late share. Id 1 has
  // fallen out of the 4-deep history: its replay starts a new partial
  // (delivered again immediately since k = 1 — duplicate delivery is
  // the documented cost of the bounded history).
  f.packet_id = 6;
  rx.on_frame(encode(f));
  EXPECT_EQ(rx.stats().late_shares, 1u);
  f.packet_id = 1;
  rx.on_frame(encode(f));
  EXPECT_EQ(rx.stats().late_shares, 1u);
  EXPECT_EQ(rx.stats().packets_delivered, 7u);
}

TEST(Receiver, DuplicateAndLateShareAccounting) {
  net::Simulator sim;
  Receiver rx(sim);
  int delivered = 0;
  rx.set_deliver([&](std::uint64_t, std::vector<std::uint8_t>) { ++delivered; });

  ShareFrame f;
  f.packet_id = 5;
  f.k = 2;
  f.share_index = 1;
  f.payload = {1, 1};
  rx.on_frame(encode(f));
  rx.on_frame(encode(f));  // duplicate (same id, same index)
  EXPECT_EQ(rx.stats().duplicate_shares, 1u);

  f.share_index = 2;
  f.payload = {2, 2};
  rx.on_frame(encode(f));  // completes
  EXPECT_EQ(delivered, 1);

  f.share_index = 3;
  f.payload = {3, 3};
  rx.on_frame(encode(f));  // share for a completed packet
  EXPECT_EQ(rx.stats().late_shares, 1u);
  EXPECT_EQ(delivered, 1);
}

TEST(Receiver, ConflictingMetadataIsRejected) {
  net::Simulator sim;
  Receiver rx(sim);
  ShareFrame f;
  f.packet_id = 6;
  f.k = 3;
  f.share_index = 1;
  f.payload = {1, 2};
  rx.on_frame(encode(f));
  // Same packet id with a different threshold.
  f.k = 2;
  f.share_index = 2;
  rx.on_frame(encode(f));
  EXPECT_EQ(rx.stats().conflicting_metadata, 1u);
  // Same packet id with a different share size.
  f.k = 3;
  f.share_index = 3;
  f.payload = {1, 2, 3};
  rx.on_frame(encode(f));
  EXPECT_EQ(rx.stats().conflicting_metadata, 2u);
}

TEST(Receiver, MalformedFramesAreCounted) {
  net::Simulator sim;
  Receiver rx(sim);
  rx.on_frame({1, 2, 3});
  EXPECT_EQ(rx.stats().malformed_frames, 1u);
  EXPECT_EQ(rx.pending_packets(), 0u);
}

// ---------------------------------------------------------------- MICSS

struct MicssTestbed {
  net::Simulator sim;
  std::vector<std::unique_ptr<net::SimChannel>> forward;
  std::vector<std::unique_ptr<net::SimChannel>> reverse;
  std::unique_ptr<MicssReceiver> receiver;
  std::unique_ptr<MicssSender> sender;
  std::map<std::uint64_t, std::vector<std::uint8_t>> delivered;

  explicit MicssTestbed(int n, double loss, std::uint64_t seed = 1,
                        MicssConfig cfg = {}) {
    Rng seeder(seed);
    std::vector<net::SimChannel*> fwd, rev;
    for (int i = 0; i < n; ++i) {
      net::ChannelConfig c;
      c.rate_bps = 50e6;
      c.loss = loss;
      c.delay = net::from_millis(1);
      forward.push_back(std::make_unique<net::SimChannel>(sim, c, seeder.fork()));
      fwd.push_back(forward.back().get());
      c.loss = loss;  // acks can be lost too
      reverse.push_back(std::make_unique<net::SimChannel>(sim, c, seeder.fork()));
      rev.push_back(reverse.back().get());
    }
    receiver = std::make_unique<MicssReceiver>(sim, fwd, rev);
    receiver->set_deliver([this](std::uint64_t id, std::vector<std::uint8_t> p) {
      delivered[id] = std::move(p);
    });
    sender = std::make_unique<MicssSender>(sim, fwd, rev, seeder.fork(), cfg);
  }
};

TEST(Micss, DeliversWithoutLoss) {
  MicssTestbed t(3, 0.0);
  const auto payload = pattern_payload(500, 9);
  ASSERT_TRUE(t.sender->send(payload));
  t.sim.run();
  ASSERT_EQ(t.delivered.size(), 1u);
  EXPECT_EQ(t.delivered.begin()->second, payload);
  EXPECT_EQ(t.sender->stats().retransmissions, 0u);
  EXPECT_EQ(t.sender->stats().packets_completed, 1u);
  EXPECT_EQ(t.sender->in_flight(), 0u);
}

TEST(Micss, RecoversFromLossViaRetransmission) {
  MicssConfig cfg;
  cfg.window_packets = 1024;  // ample: no sends bounce off the window
  MicssTestbed t(4, 0.15, 7, cfg);
  const int count = 200;
  for (int i = 0; i < count; ++i) {
    t.sim.schedule_at(net::from_millis(static_cast<double>(i)),
                      [&t] { ASSERT_TRUE(t.sender->send(pattern_payload(300, 2))); });
  }
  t.sim.run();
  // Reliable: EVERYTHING is eventually delivered, at the cost of
  // retransmissions (15% share loss + ack loss guarantees many).
  EXPECT_EQ(t.delivered.size(), static_cast<std::size_t>(count));
  EXPECT_GT(t.sender->stats().retransmissions, 50u);
  for (const auto& [id, payload] : t.delivered) {
    EXPECT_EQ(payload, pattern_payload(300, 2));
  }
}

TEST(Micss, WindowStallsUnderLoss) {
  MicssConfig cfg;
  cfg.window_packets = 2;
  cfg.rto = net::from_millis(100);
  MicssTestbed t(3, 0.5, 11, cfg);
  int accepted = 0;
  for (int i = 0; i < 50; ++i) {
    accepted += t.sender->send(pattern_payload(100, 1));
  }
  // With a 2-packet window and heavy loss, most immediate sends bounce.
  EXPECT_LE(accepted, 2);
  EXPECT_GT(t.sender->stats().packets_rejected, 0u);
  t.sim.run();
}

}  // namespace
}  // namespace mcss::proto
