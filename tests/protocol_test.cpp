// End-to-end tests for the ReMICSS protocol: schedulers, sender, receiver
// reassembly, loss tolerance and eviction.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "net/sim_channel.hpp"
#include "net/simulator.hpp"
#include "protocol/receiver.hpp"
#include "protocol/scheduler.hpp"
#include "protocol/sender.hpp"
#include "protocol/wire.hpp"
#include "sss/shamir.hpp"
#include "util/ensure.hpp"
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
  FixedScheduler sched(3, std::vector<int>{0, 1, 2});
  const std::vector<ChannelView> missing_one{{true, 0}, {true, 0}, {false, 0}};
  EXPECT_FALSE(sched.next(missing_one).has_value());
  const std::vector<ChannelView> all{{true, 0}, {true, 0}, {true, 0}};
  const auto d = sched.next(all);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->k, 3);
  EXPECT_EQ(d->channels, (std::vector<int>{0, 1, 2}));
}

TEST(FixedScheduler, WaitsUntilEveryPlanChannelIsReady) {
  // A proactive redundancy plan: k = 2 over channels {0, 2, 3} of four.
  FixedScheduler sched(2, std::vector<int>{0, 2, 3});
  std::vector<ChannelView> view{{true, 0}, {true, 0}, {false, 0}, {true, 0}};
  EXPECT_FALSE(sched.next(view).has_value());  // channel 2 not ready
  view[2].ready = true;
  view[1].ready = false;  // non-plan channel may be busy
  const auto d = sched.next(view);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->k, 2);
  EXPECT_EQ(d->channels, (std::vector<int>{0, 2, 3}));
  // Every listed channel is bounds-checked against the view.
  const std::vector<ChannelView> three(3, ChannelView{true, 0});
  EXPECT_THROW((void)sched.next(three), PreconditionError);
}

TEST(ChannelList, HoldsUpToThirtyTwoChannelsInline) {
  // A decision over every one of 32 channels (the exposure-mask width)
  // fits inline; a 33rd is refused rather than spilled to the heap.
  std::vector<ChannelView> views(32, ChannelView{true, 0});
  for (std::size_t i = 0; i < views.size(); ++i) {
    views[i].backlog = static_cast<net::SimTime>(32 - i);
  }
  DynamicScheduler sched(32.0, 32.0, 32);
  const auto d = sched.next(views);
  ASSERT_TRUE(d.has_value());
  ASSERT_EQ(d->channels.size(), 32u);
  EXPECT_EQ(d->channels[0], 31);  // least backlog first
  EXPECT_EQ(d->channels[31], 0);

  ChannelList list = d->channels;
  EXPECT_THROW(list.push_back(32), PreconditionError);
  list.truncate(2);
  EXPECT_EQ(list, (std::vector<int>{31, 30}));
  EXPECT_FALSE(list == (std::vector<int>{31}));
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

// ------------------------------------------------------------ wire bytes

std::string to_hex(std::span<const std::uint8_t> frame) {
  std::string hex;
  for (std::uint8_t b : frame) {
    hex += "0123456789abcdef"[b >> 4];
    hex += "0123456789abcdef"[b & 0xF];
  }
  return hex;
}

/// Every frame a seeded Sender hands its three channels for one packet
/// (k = 2 over all three), as hex in arrival order, then one
/// retransmission of it (generation 3, two shares) that write_shares
/// writes from a twin of the sender's Rng, advanced past the first send.
std::vector<std::string> emitted_frames(
    std::optional<crypto::SipHashKey> key) {
  net::Simulator sim;
  Rng seeder(2016);
  std::vector<std::unique_ptr<net::SimChannel>> channels;
  std::vector<net::SimChannel*> raw;
  std::vector<std::string> frames;
  for (int i = 0; i < 3; ++i) {
    channels.push_back(std::make_unique<net::SimChannel>(
        sim, net::ChannelConfig{.rate_bps = 10e6}, seeder.fork()));
    raw.push_back(channels.back().get());
    raw.back()->set_receiver([&frames](std::vector<std::uint8_t> frame) {
      frames.push_back(to_hex(frame));
    });
  }
  const Rng sender_rng = seeder.fork();
  Sender sender(sim, raw,
                std::make_unique<FixedScheduler>(2, std::vector<int>{0, 1, 2}),
                sender_rng, nullptr, SenderConfig{.auth_key = key});
  const std::vector<std::uint8_t> payload{0xDE, 0xAD, 0xBE, 0xEF, 0x42};
  EXPECT_TRUE(sender.send(payload));
  sim.run();

  Rng twin = sender_rng;
  const crypto::SipHashKey* k = key ? &*key : nullptr;
  std::vector<std::uint8_t> scratch;
  const auto write = [&](std::uint8_t generation, std::size_t m) {
    std::vector<std::vector<std::uint8_t>> out(
        m, std::vector<std::uint8_t>(
               encoded_size(payload.size(), generation, k != nullptr)));
    std::vector<std::span<std::uint8_t>> spans(out.begin(), out.end());
    write_shares({.packet_id = 1, .k = 2, .generation = generation}, payload,
                 spans, k, scratch, twin);
    return out;
  };
  // The twin writes the sender's frames first: same bytes, same draws.
  const auto first = write(0, 3);
  EXPECT_EQ(frames.size(), first.size());
  for (std::size_t j = 0; j < first.size() && j < frames.size(); ++j) {
    EXPECT_EQ(frames[j], to_hex(first[j])) << "share " << j + 1;
  }
  for (const auto& frame : write(3, 2)) frames.push_back(to_hex(frame));
  return frames;
}

TEST(SenderWire, UnkeyedFramesAreGolden) {
  // Pins the share bytes, the header layout and the Rng draw order:
  // any change to how the sender writes shares must leave these intact.
  EXPECT_EQ(emitted_frames(std::nullopt),
            (std::vector<std::string>{
                "4d520102010000000000000001000500e8e2e87b68",
                "4d520102010000000000000002000500b23312dc16",
                "4d520102010000000000000003000500847c44483c",
                "4d52010201000000000000000102050003203daeb948",
                "4d5201020100000000000000020205000339969e4356"}));
}

TEST(SenderWire, KeyedFramesAreGolden) {
  const crypto::SipHashKey key{1, 2,  3,  4,  5,  6,  7,  8,
                               9, 10, 11, 12, 13, 14, 15, 16};
  EXPECT_EQ(emitted_frames(key),
            (std::vector<std::string>{
                "4d520102010000000000000001010500e8e2e87b68b3734756dc79c2e7",
                "4d520102010000000000000002010500b23312dc16d9b034b8e277f05e",
                "4d520102010000000000000003010500847c44483c02c449d37e754df4",
                "4d52010201000000000000000103050003203daeb948885c51682db45376",
                "4d5201020100000000000000020305000339969e43565659ceea8eb24786"}));
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
  // completed_history = 4 rounds up to one 64-id word: the window's
  // memory stays one word however many ids complete, and an id that
  // slid below its floor is refused as late, never delivered again.
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
  // Ids 1..6 share the one word: replays of the newest and the oldest
  // are both late shares.
  f.packet_id = 6;
  rx.on_frame(encode(f));
  f.packet_id = 1;
  rx.on_frame(encode(f));
  EXPECT_EQ(rx.stats().late_shares, 2u);
  EXPECT_EQ(rx.stats().packets_delivered, 6u);

  // Id 65 opens the next word, so the window slides past ids 1..64.
  f.packet_id = 65;
  rx.on_frame(encode(f));
  EXPECT_EQ(rx.delivered().floor(), 65u);
  f.packet_id = 1;
  rx.on_frame(encode(f));
  f.packet_id = 7;  // never delivered, but below the floor now
  rx.on_frame(encode(f));
  EXPECT_EQ(rx.stats().late_shares, 4u);
  EXPECT_EQ(rx.stats().packets_delivered, 7u);
  EXPECT_EQ(rx.delivered().heap_bytes(), sizeof(std::uint64_t));
}

TEST(Receiver, CompletedHistoryGrowsWithUseNotWithItsCap) {
  // A 65,536-id window is 1,024 words, but it holds only the words its
  // ids span.
  net::Simulator sim;
  ReceiverConfig cfg;
  cfg.completed_history = 65'536;
  Receiver rx(sim, cfg);
  rx.set_deliver([](std::uint64_t, std::vector<std::uint8_t>) {});
  EXPECT_EQ(rx.delivered().width_words(), 1024u);
  EXPECT_EQ(rx.delivered().heap_bytes(), 0u);

  ShareFrame f;
  f.k = 1;
  f.payload = {7};
  f.share_index = 1;
  for (std::uint64_t id = 1; id <= 3; ++id) {
    f.packet_id = id;
    rx.on_frame(encode(f));
  }
  EXPECT_EQ(rx.delivered().heap_bytes(), sizeof(std::uint64_t));
  f.packet_id = 200;  // the fourth word
  rx.on_frame(encode(f));
  EXPECT_EQ(rx.delivered().heap_bytes(), 4 * sizeof(std::uint64_t));
  f.packet_id = 2;
  rx.on_frame(encode(f));
  EXPECT_EQ(rx.stats().late_shares, 1u);
}

TEST(Receiver, ZeroCompletedHistoryIsRefused) {
  // Without a window every late share would resurrect its packet.
  net::Simulator sim;
  ReceiverConfig cfg;
  cfg.completed_history = 0;
  EXPECT_THROW(Receiver(sim, cfg), PreconditionError);
}

TEST(Receiver, ResendOfAnIdAWindowBehindIsNotDeliveredAgain) {
  // Id 1 completes, then the flow moves more than one window past it.
  // A retransmission of id 1 (a fresh generation, as the ARQ sends it)
  // must not bring the finished packet back.
  net::Simulator sim;
  ReceiverConfig cfg;
  cfg.completed_history = 128;
  Receiver rx(sim, cfg);
  std::map<std::uint64_t, int> delivered;
  rx.set_deliver(
      [&](std::uint64_t id, std::vector<std::uint8_t>) { ++delivered[id]; });
  for (std::uint64_t id = 1; id <= 300; ++id) rx.on_frame(share_of(id, 1, 1));
  ASSERT_EQ(delivered.size(), 300u);
  ASSERT_GT(rx.delivered().floor(), 1u + 128u);

  rx.on_frame(share_of(1, 1, 1, /*gen=*/1));
  rx.on_frame(share_of(2, 2, 1, /*gen=*/3));
  rx.on_frame(share_of(2, 2, 2, /*gen=*/3));
  EXPECT_EQ(delivered[1], 1);
  EXPECT_EQ(delivered[2], 1);
  EXPECT_EQ(rx.stats().packets_delivered, 300u);
  EXPECT_EQ(rx.stats().late_shares, 3u);
  EXPECT_EQ(rx.pending_packets(), 0u);
}

const crypto::SipHashKey kReplayKey{9, 8, 7, 6, 5, 4, 3, 2,
                                    1, 0, 1, 2, 3, 4, 5, 6};

/// Frames of packet `id` split under k = 2 and tagged under kReplayKey.
std::vector<std::vector<std::uint8_t>> tagged_packet(std::uint64_t id,
                                                     Rng& rng) {
  const std::vector<std::uint8_t> payload{1, 2, 3, 4, 5};
  std::vector<std::vector<std::uint8_t>> frames;
  for (const auto& share : sss::split(payload, 2, 2, rng)) {
    ShareFrame f;
    f.packet_id = id;
    f.k = 2;
    f.share_index = share.index;
    f.payload = share.data;
    frames.push_back(encode(f, &kReplayKey));
  }
  return frames;
}

TEST(Receiver, ReplayedTaggedPacketIsNotDeliveredAfterItsWindowPassed) {
  // An eavesdropper records id 1's correctly tagged share set and plays
  // it back once 8,192 later ids were delivered: the tags verify, but
  // the id sits below the window's floor.
  net::Simulator sim;
  ReceiverConfig cfg;
  cfg.auth_key = kReplayKey;
  Receiver rx(sim, cfg);
  std::uint64_t delivered = 0;
  std::uint64_t last_id = 0;
  rx.set_deliver([&](std::uint64_t id, std::vector<std::uint8_t>) {
    ++delivered;
    last_id = id;
  });
  Rng rng(91);
  const auto recorded = tagged_packet(1, rng);
  for (const auto& frame : recorded) rx.on_frame(frame);
  ASSERT_EQ(delivered, 1u);

  ShareFrame f;
  f.k = 1;
  f.share_index = 1;
  f.payload = {3};
  for (std::uint64_t id = 2; id <= 8193; ++id) {
    f.packet_id = id;
    rx.on_frame(encode(f, &kReplayKey));
  }
  ASSERT_EQ(delivered, 8193u);

  for (const auto& frame : recorded) rx.on_frame(frame);
  EXPECT_EQ(delivered, 8193u);
  EXPECT_EQ(last_id, 8193u);
  EXPECT_EQ(rx.stats().late_shares, 2u);
  EXPECT_EQ(rx.stats().auth_failures, 0u);
  EXPECT_EQ(rx.pending_packets(), 0u);
}

TEST(Receiver, ForgedFarAheadIdDoesNotMoveAKeyedFloor) {
  // Only authenticated packets complete, so a forged frame claiming an
  // id far ahead cannot slide the window past genuine ids.
  net::Simulator sim;
  ReceiverConfig cfg;
  cfg.auth_key = kReplayKey;
  cfg.completed_history = 64;
  Receiver rx(sim, cfg);
  std::uint64_t delivered = 0;
  rx.set_deliver([&](std::uint64_t, std::vector<std::uint8_t>) { ++delivered; });
  Rng rng(92);
  for (std::uint64_t id = 1; id <= 5; ++id) {
    for (const auto& frame : tagged_packet(id, rng)) rx.on_frame(frame);
  }
  ASSERT_EQ(delivered, 5u);

  ShareFrame forged;
  forged.packet_id = 1'000'000;
  forged.k = 1;
  forged.share_index = 1;
  forged.payload = {6};
  const crypto::SipHashKey wrong{};
  rx.on_frame(encode(forged));          // untagged
  rx.on_frame(encode(forged, &wrong));  // tagged under another key
  auto mutated = tagged_packet(6, rng)[0];
  mutated[8] ^= 0x40;  // a packet-id byte under a once-valid tag
  rx.on_frame(mutated);
  EXPECT_EQ(rx.stats().auth_failures, 3u);
  EXPECT_EQ(rx.delivered().floor(), 1u);
  EXPECT_EQ(rx.delivered().highest(), 5u);

  for (const auto& frame : tagged_packet(6, rng)) rx.on_frame(frame);
  EXPECT_EQ(delivered, 6u);
  EXPECT_EQ(rx.stats().late_shares, 0u);
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
  rx.on_frame(std::vector<std::uint8_t>{1, 2, 3});
  EXPECT_EQ(rx.stats().malformed_frames, 1u);
  EXPECT_EQ(rx.pending_packets(), 0u);
}

}  // namespace
}  // namespace mcss::proto
