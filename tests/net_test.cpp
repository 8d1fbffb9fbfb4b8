// Tests for the discrete-event simulator, channel model, and CPU model.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "net/cpu_model.hpp"
#include "net/outage.hpp"
#include "net/sim_channel.hpp"
#include "net/sim_time.hpp"
#include "net/simulator.hpp"
#include "util/ensure.hpp"

namespace mcss::net {
namespace {

// ---------------------------------------------------------------- SimTime

TEST(SimTime, Conversions) {
  EXPECT_EQ(from_seconds(1.0), 1'000'000'000);
  EXPECT_EQ(from_millis(2.5), 2'500'000);
  EXPECT_EQ(from_micros(3.0), 3'000);
  EXPECT_DOUBLE_EQ(to_seconds(500'000'000), 0.5);
  EXPECT_DOUBLE_EQ(to_millis(1'000'000), 1.0);
}

TEST(SimTime, RoundsHalfwayCasesCorrectly) {
  // 0.49999999999999994 ns is the largest double below 0.5 ns: adding
  // 0.5 to it rounds UP to 1.0 under round-to-even (the old
  // `cast(x + 0.5)` idiom truncated that to 1 — off by one); llround
  // returns 0.
  EXPECT_EQ(from_seconds(0.49999999999999994e-9), 0);
  // Halfway cases round away from zero, negatives included (the +0.5
  // idiom rounded -2.5 ns toward zero instead).
  EXPECT_EQ(from_seconds(2.5e-9), 3);
  EXPECT_EQ(from_seconds(-2.5e-9), -3);
  EXPECT_EQ(from_millis(2.5e-6), 3);
  EXPECT_EQ(from_millis(-2.5e-6), -3);
  EXPECT_EQ(from_micros(2.5e-3), 3);
  EXPECT_EQ(from_micros(-2.5e-3), -3);
}

TEST(SimTime, SecondsRoundTripIsExact) {
  // from_seconds(to_seconds(t)) == t whenever t / 1e9 is exactly
  // representable relative to half-ULP of the product — guaranteed for
  // |t| <= 2^51 ns (~26 days). Deterministic xorshift sweep plus edges.
  const auto check = [](SimTime t) {
    EXPECT_EQ(from_seconds(to_seconds(t)), t) << "t = " << t;
  };
  check(0);
  check(1);
  check(-1);
  check((SimTime{1} << 51));
  check(-(SimTime{1} << 51));
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (int i = 0; i < 10'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    const auto t = static_cast<SimTime>(x & ((std::uint64_t{1} << 51) - 1));
    check(t);
    check(-t);
  }
}

TEST(SimTime, MillisAndMicrosAvoidDoubleRounding) {
  // from_millis/from_micros scale by a single exact power of ten; the
  // old implementation chained through from_seconds (ms / 1e3 first),
  // rounding twice. 1e-4 ms is exactly 100 ns.
  EXPECT_EQ(from_millis(1e-4), 100);
  EXPECT_EQ(from_micros(0.1), 100);
  for (int i = -1000; i <= 1000; ++i) {
    EXPECT_EQ(from_millis(static_cast<double>(i)), i * 1'000'000);
    EXPECT_EQ(from_micros(static_cast<double>(i)), i * 1'000);
  }
}

// ---------------------------------------------------------------- Simulator

TEST(Simulator, EventsFireInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(30, [&] { order.push_back(3); });
  sim.schedule_at(10, [&] { order.push_back(1); });
  sim.schedule_at(20, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 30);
}

TEST(Simulator, TiesBreakInSchedulingOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(5, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulator, NowAdvancesDuringDispatch) {
  Simulator sim;
  SimTime seen = -1;
  sim.schedule_at(42, [&] { seen = sim.now(); });
  sim.run();
  EXPECT_EQ(seen, 42);
}

TEST(Simulator, EventsCanScheduleMoreEvents) {
  Simulator sim;
  int fired = 0;
  std::function<void()> chain = [&] {
    if (++fired < 5) sim.schedule_in(10, chain);
  };
  sim.schedule_at(0, chain);
  sim.run();
  EXPECT_EQ(fired, 5);
  EXPECT_EQ(sim.now(), 40);
}

TEST(Simulator, RunUntilStopsAtBoundary) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(10, [&] { ++fired; });
  sim.schedule_at(20, [&] { ++fired; });
  sim.schedule_at(30, [&] { ++fired; });
  sim.run_until(20);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now(), 20);
  EXPECT_EQ(sim.pending(), 1u);
  sim.run();
  EXPECT_EQ(fired, 3);
}

TEST(Simulator, StepProcessesOneEvent) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(1, [&] { ++fired; });
  sim.schedule_at(2, [&] { ++fired; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, RejectsPastEvents) {
  Simulator sim;
  sim.schedule_at(10, [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(5, [] {}), PreconditionError);
  EXPECT_THROW(sim.schedule_in(-1, [] {}), PreconditionError);
}

TEST(Simulator, ProcessedCounter) {
  Simulator sim;
  for (int i = 0; i < 7; ++i) sim.schedule_at(i, [] {});
  sim.run();
  EXPECT_EQ(sim.processed(), 7u);
}

// ------------------------------------------------- Simulator timer handles
//
// The live endpoints use the simulator as their only timer queue, so the
// timer contract they rely on is pinned here: deadline order, same-pass
// chains, an exact O(1) next deadline, and cancel-by-handle.

TEST(SimulatorTimers, FiresInDeadlineOrderWithTiesInScheduleOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(5'000'000, [&] { order.push_back(1); });
  sim.schedule_at(3'000'000, [&] { order.push_back(2); });
  sim.schedule_at(5'000'000, [&] { order.push_back(3); });
  EXPECT_EQ(sim.pending(), 3u);
  sim.run_until(10'000'000);
  EXPECT_EQ(order, (std::vector<int>{2, 1, 3}));
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(SimulatorTimers, CallbackScheduledDueTimerFiresWithinTheSameAdvance) {
  Simulator sim;
  bool chained = false;
  sim.schedule_at(2'000'000, [&] {
    sim.schedule_at(3'000'000, [&] { chained = true; });  // already due
  });
  const std::uint64_t before = sim.processed();
  sim.run_until(5'000'000);
  EXPECT_TRUE(chained);
  EXPECT_EQ(sim.processed() - before, 2u);
}

TEST(SimulatorTimers, NextDeadlineIsExact) {
  Simulator sim;
  EXPECT_FALSE(sim.next_event_time().has_value());
  sim.schedule_at(7'300'000, [] {});
  sim.schedule_at(2'100'000, [] {});
  ASSERT_TRUE(sim.next_event_time().has_value());
  EXPECT_EQ(*sim.next_event_time(), 2'100'000);
  sim.run_until(3'000'000);
  EXPECT_EQ(*sim.next_event_time(), 7'300'000);
}

TEST(SimulatorTimers, CancelPreventsFiringAndIsIdempotent) {
  Simulator sim;
  bool fired = false;
  const EventHandle id = sim.schedule_at(2'000'000, [&] { fired = true; });
  EXPECT_TRUE(id);
  EXPECT_EQ(sim.pending(), 1u);
  EXPECT_TRUE(sim.cancel(id));
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_FALSE(sim.next_event_time().has_value());
  sim.run_until(5'000'000);
  EXPECT_FALSE(fired);
  // Double-cancel, cancel-after-fire, and empty handles are safe no-ops.
  EXPECT_FALSE(sim.cancel(id));
  const EventHandle id2 = sim.schedule_at(6'000'000, [] {});
  sim.run_until(7'000'000);
  EXPECT_FALSE(sim.cancel(id2));
  EXPECT_FALSE(sim.cancel(EventHandle{}));
  // A stale handle never cancels the event that reused its slot.
  bool reused_fired = false;
  const EventHandle reuse =
      sim.schedule_at(8'000'000, [&] { reused_fired = true; });
  EXPECT_EQ(reuse.slot, id2.slot);
  EXPECT_FALSE(sim.cancel(id2));
  sim.run_until(9'000'000);
  EXPECT_TRUE(reused_fired);
}

TEST(SimulatorTimers, CancelledTimerDoesNotMaskLaterDeadlines) {
  // next_event_time() must not report a cancelled timer's deadline: the
  // pump loop would wake early and fire nothing.
  Simulator sim;
  const EventHandle early = sim.schedule_at(2'000'000, [] {});
  int fired = 0;
  sim.schedule_at(5'000'000, [&] { ++fired; });
  EXPECT_TRUE(sim.cancel(early));
  ASSERT_TRUE(sim.next_event_time().has_value());
  EXPECT_EQ(*sim.next_event_time(), 5'000'000);
  sim.run_until(5'000'000);
  EXPECT_EQ(fired, 1);
}

TEST(SimulatorTimers, TeardownBetweenArmAndFireDoesNotTouchFreedState) {
  // A flow torn down with a pending retransmit timer must not have the
  // callback fire against its freed state. The callback dereferences
  // the flow's memory — without cancel() this test dies under ASan as
  // heap-use-after-free.
  Simulator sim;
  struct FlowState {
    int rto_count = 0;
  };
  auto flow = std::make_unique<FlowState>();
  FlowState* raw = flow.get();
  const EventHandle id =
      sim.schedule_at(2'000'000, [raw] { ++raw->rto_count; });
  flow.reset();  // teardown: free the flow, cancel its armed timer
  EXPECT_TRUE(sim.cancel(id));
  const std::uint64_t before = sim.processed();
  sim.run_until(10'000'000);
  EXPECT_EQ(sim.processed(), before);
}

TEST(SimulatorTimers, CancelFromCallbackSuppressesLaterEntryInSameBatch) {
  // Both timers are due in ONE run_until(): the first callback tears the
  // "flow" down and cancels the second timer. The second callback must
  // not run (it touches the freed state — ASan-visible if it did).
  Simulator sim;
  auto flow = std::make_unique<int>(0);
  int* raw = flow.get();
  EventHandle second;
  sim.schedule_at(2'000'000, [&] {
    flow.reset();
    EXPECT_TRUE(sim.cancel(second));
  });
  second = sim.schedule_at(3'000'000, [raw] { *raw = 99; });
  const std::uint64_t before = sim.processed();
  sim.run_until(5'000'000);
  EXPECT_EQ(sim.processed() - before, 1u);  // only the teardown fired
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(SimulatorTimers, CancelKeepsTheRestInTimeThenSequenceOrder) {
  // Cancelling from the middle of a large heap re-sifts the moved key;
  // every survivor must still pop in (time, seq) order.
  Simulator sim;
  std::vector<EventHandle> handles;
  std::vector<std::pair<SimTime, int>> fired;
  for (int i = 0; i < 500; ++i) {
    const SimTime t = (i * 7919) % 251;
    handles.push_back(sim.schedule_at(t, [&fired, &sim, i] {
      fired.emplace_back(sim.now(), i);
    }));
  }
  for (int i = 0; i < 500; i += 3) {
    EXPECT_TRUE(sim.cancel(handles[static_cast<std::size_t>(i)]));
  }
  sim.run();
  ASSERT_EQ(fired.size(), 500u - 167u);
  for (std::size_t j = 1; j < fired.size(); ++j) {
    EXPECT_TRUE(fired[j - 1].first < fired[j].first ||
                (fired[j - 1].first == fired[j].first &&
                 fired[j - 1].second < fired[j].second));
  }
  for (const auto& [t, i] : fired) EXPECT_NE(i % 3, 0);
}

// ---------------------------------------------------------------- SimChannel

ChannelConfig basic_config() {
  ChannelConfig cfg;
  cfg.rate_bps = 8e6;  // 1 byte per microsecond: easy arithmetic
  cfg.loss = 0.0;
  cfg.delay = from_micros(100);
  cfg.queue_capacity_bytes = 10000;
  return cfg;
}

TEST(SimChannel, DeliversWithSerializationPlusPropagation) {
  Simulator sim;
  SimChannel ch(sim, basic_config(), Rng(1));
  SimTime arrival = -1;
  ch.set_receiver([&](std::vector<std::uint8_t>) { arrival = sim.now(); });
  ASSERT_TRUE(ch.try_send(std::vector<std::uint8_t>(1000, 0xAA)));
  sim.run();
  // 1000 bytes at 1 B/us = 1 ms serialization, + 100 us propagation.
  EXPECT_EQ(arrival, from_micros(1100));
}

TEST(SimChannel, PayloadArrivesIntact) {
  Simulator sim;
  SimChannel ch(sim, basic_config(), Rng(2));
  const std::vector<std::uint8_t> sent{1, 2, 3, 4, 5};
  std::vector<std::uint8_t> got;
  ch.set_receiver([&](std::vector<std::uint8_t> f) { got = std::move(f); });
  ASSERT_TRUE(ch.try_send(sent));
  sim.run();
  EXPECT_EQ(got, sent);
}

TEST(SimChannel, FramesQueueFifoAndBackToBack) {
  Simulator sim;
  SimChannel ch(sim, basic_config(), Rng(3));
  std::vector<SimTime> arrivals;
  std::vector<std::uint8_t> first_bytes;
  ch.set_receiver([&](std::vector<std::uint8_t> f) {
    arrivals.push_back(sim.now());
    first_bytes.push_back(f[0]);
  });
  ASSERT_TRUE(ch.try_send(std::vector<std::uint8_t>(500, 1)));
  ASSERT_TRUE(ch.try_send(std::vector<std::uint8_t>(500, 2)));
  sim.run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_EQ(first_bytes, (std::vector<std::uint8_t>{1, 2}));
  EXPECT_EQ(arrivals[0], from_micros(600));   // 500 us serialize + 100 us
  EXPECT_EQ(arrivals[1], from_micros(1100));  // queued behind the first
}

TEST(SimChannel, AchievesConfiguredThroughput) {
  Simulator sim;
  ChannelConfig cfg;
  cfg.rate_bps = 100e6;
  cfg.queue_capacity_bytes = 1 << 20;
  SimChannel ch(sim, cfg, Rng(4));
  std::uint64_t received_bytes = 0;
  ch.set_receiver([&](std::vector<std::uint8_t> f) {
    if (sim.now() <= from_seconds(1.0)) received_bytes += f.size();
  });
  // Offer 2x the capacity for one second via a paced source.
  const std::size_t frame = 1470;
  std::function<void()> pump = [&] {
    (void)ch.try_send(std::vector<std::uint8_t>(frame, 0));
    if (sim.now() < from_seconds(1.0)) sim.schedule_in(from_micros(58), pump);
  };
  sim.schedule_at(0, pump);
  sim.run();
  const double achieved_bps = static_cast<double>(received_bytes) * 8.0 /
                              to_seconds(from_seconds(1.0));
  EXPECT_NEAR(achieved_bps, 100e6, 2e6);  // within 2% of the htb-style cap
}

TEST(SimChannel, TailDropsWhenQueueFull) {
  Simulator sim;
  ChannelConfig cfg = basic_config();
  cfg.queue_capacity_bytes = 1000;
  SimChannel ch(sim, cfg, Rng(5));
  int delivered = 0;
  ch.set_receiver([&](std::vector<std::uint8_t>) { ++delivered; });
  EXPECT_TRUE(ch.try_send(std::vector<std::uint8_t>(600, 0)));
  EXPECT_TRUE(ch.try_send(std::vector<std::uint8_t>(400, 0)));
  EXPECT_FALSE(ch.try_send(std::vector<std::uint8_t>(1, 0)));  // full
  sim.run();
  EXPECT_EQ(delivered, 2);
  EXPECT_EQ(ch.stats().frames_dropped_queue, 1u);
  // After draining there is room again.
  EXPECT_TRUE(ch.try_send(std::vector<std::uint8_t>(1000, 0)));
}

TEST(SimChannel, LossRateIsStatisticallyCorrect) {
  Simulator sim;
  ChannelConfig cfg = basic_config();
  cfg.loss = 0.03;
  cfg.queue_capacity_bytes = 1 << 24;
  SimChannel ch(sim, cfg, Rng(6));
  int delivered = 0;
  ch.set_receiver([&](std::vector<std::uint8_t>) { ++delivered; });
  const int total = 100000;
  for (int i = 0; i < total; ++i) {
    ASSERT_TRUE(ch.try_send(std::vector<std::uint8_t>(10, 0)));
  }
  sim.run();
  EXPECT_NEAR(static_cast<double>(total - delivered) / total, 0.03, 0.003);
  EXPECT_EQ(ch.stats().frames_dropped_loss + ch.stats().frames_delivered,
            static_cast<std::uint64_t>(total));
}

TEST(SimChannel, LossIsDeterministicPerSeed) {
  auto run_once = [](std::uint64_t seed) {
    Simulator sim;
    ChannelConfig cfg = basic_config();
    cfg.loss = 0.5;
    cfg.queue_capacity_bytes = 1 << 22;
    SimChannel ch(sim, cfg, Rng(seed));
    std::vector<int> pattern;
    ch.set_receiver([&](std::vector<std::uint8_t> f) { pattern.push_back(f[0]); });
    for (int i = 0; i < 100; ++i) {
      (void)ch.try_send(std::vector<std::uint8_t>(1, static_cast<std::uint8_t>(i)));
    }
    sim.run();
    return pattern;
  };
  EXPECT_EQ(run_once(7), run_once(7));
  EXPECT_NE(run_once(7), run_once(8));
}

TEST(SimChannel, ReadinessFollowsWatermark) {
  Simulator sim;
  ChannelConfig cfg = basic_config();
  cfg.queue_capacity_bytes = 1000;
  cfg.ready_watermark_bytes = 500;
  SimChannel ch(sim, cfg, Rng(9));
  ch.set_receiver([](std::vector<std::uint8_t>) {});
  EXPECT_TRUE(ch.ready());
  ASSERT_TRUE(ch.try_send(std::vector<std::uint8_t>(600, 0)));
  EXPECT_FALSE(ch.ready());  // 600 >= 500
  sim.run();
  EXPECT_TRUE(ch.ready());
}

TEST(SimChannel, WritableCallbackFiresOnTransition) {
  Simulator sim;
  ChannelConfig cfg = basic_config();
  cfg.queue_capacity_bytes = 2000;
  cfg.ready_watermark_bytes = 1000;
  SimChannel ch(sim, cfg, Rng(10));
  ch.set_receiver([](std::vector<std::uint8_t>) {});
  int wakeups = 0;
  ch.set_writable_callback([&] { ++wakeups; });
  ASSERT_TRUE(ch.try_send(std::vector<std::uint8_t>(800, 0)));
  ASSERT_TRUE(ch.try_send(std::vector<std::uint8_t>(800, 0)));  // now not ready
  EXPECT_FALSE(ch.ready());
  sim.run();
  EXPECT_TRUE(ch.ready());
  EXPECT_EQ(wakeups, 1);  // exactly one not-ready -> ready transition
}

TEST(SimChannel, BacklogTimeTracksQueue) {
  Simulator sim;
  SimChannel ch(sim, basic_config(), Rng(11));  // 1 byte/us
  ch.set_receiver([](std::vector<std::uint8_t>) {});
  EXPECT_EQ(ch.backlog_time(), 0);
  ASSERT_TRUE(ch.try_send(std::vector<std::uint8_t>(1000, 0)));
  // Head frame is on the serializer (free in 1000 us), queue empty.
  EXPECT_EQ(ch.backlog_time(), from_micros(1000));
  ASSERT_TRUE(ch.try_send(std::vector<std::uint8_t>(2000, 0)));
  EXPECT_EQ(ch.backlog_time(), from_micros(3000));
}

TEST(SimChannel, RejectsInvalidConfigAndFrames) {
  Simulator sim;
  ChannelConfig bad = basic_config();
  bad.rate_bps = 0;
  EXPECT_THROW(SimChannel(sim, bad, Rng(0)), PreconditionError);
  bad = basic_config();
  bad.loss = 1.0;
  EXPECT_THROW(SimChannel(sim, bad, Rng(0)), PreconditionError);
  bad = basic_config();
  bad.delay = -1;
  EXPECT_THROW(SimChannel(sim, bad, Rng(0)), PreconditionError);

  SimChannel ok(sim, basic_config(), Rng(0));
  EXPECT_THROW((void)ok.try_send({}), PreconditionError);
}

// ------------------------------------------------------- netem extensions

TEST(SimChannel, JitterSpreadsAndReordersDeliveries) {
  Simulator sim;
  ChannelConfig cfg = basic_config();
  cfg.delay = from_millis(1);
  cfg.jitter = from_millis(5);
  cfg.queue_capacity_bytes = 1 << 22;
  SimChannel ch(sim, cfg, Rng(21));
  std::vector<std::uint8_t> order;
  ch.set_receiver([&](std::vector<std::uint8_t> f) { order.push_back(f[0]); });
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(ch.try_send(std::vector<std::uint8_t>(1, static_cast<std::uint8_t>(i))));
  }
  sim.run();
  ASSERT_EQ(order.size(), 200u);
  // With 5 ms jitter over back-to-back 1 us frames, reordering is certain.
  bool reordered = false;
  for (std::size_t i = 1; i < order.size(); ++i) {
    if (order[i] < order[i - 1]) reordered = true;
  }
  EXPECT_TRUE(reordered);
}

TEST(SimChannel, JitterDelayBounds) {
  Simulator sim;
  ChannelConfig cfg = basic_config();
  cfg.delay = from_millis(2);
  cfg.jitter = from_millis(3);
  SimChannel ch(sim, cfg, Rng(22));
  SimTime sent_serialized = from_micros(100);  // 100-byte frame at 1 B/us
  std::vector<SimTime> arrivals;
  ch.set_receiver([&](std::vector<std::uint8_t>) { arrivals.push_back(sim.now()); });
  ASSERT_TRUE(ch.try_send(std::vector<std::uint8_t>(100, 0)));
  sim.run();
  ASSERT_EQ(arrivals.size(), 1u);
  EXPECT_GE(arrivals[0], sent_serialized + from_millis(2));
  EXPECT_LE(arrivals[0], sent_serialized + from_millis(5));
}

TEST(SimChannel, CorruptionFlipsExactlyOneBit) {
  Simulator sim;
  ChannelConfig cfg = basic_config();
  cfg.corrupt = 1.0 - 1e-9;  // effectively always (must stay < 1)
  SimChannel ch(sim, cfg, Rng(23));
  const std::vector<std::uint8_t> sent(64, 0x00);
  std::vector<std::uint8_t> got;
  ch.set_receiver([&](std::vector<std::uint8_t> f) { got = std::move(f); });
  ASSERT_TRUE(ch.try_send(sent));
  sim.run();
  ASSERT_EQ(got.size(), sent.size());
  int flipped_bits = 0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    flipped_bits += std::popcount(static_cast<unsigned>(got[i] ^ sent[i]));
  }
  EXPECT_EQ(flipped_bits, 1);
  EXPECT_EQ(ch.stats().frames_corrupted, 1u);
}

TEST(SimChannel, CorruptionRateIsStatistical) {
  Simulator sim;
  ChannelConfig cfg = basic_config();
  cfg.corrupt = 0.10;
  cfg.queue_capacity_bytes = 1 << 24;
  SimChannel ch(sim, cfg, Rng(24));
  ch.set_receiver([](std::vector<std::uint8_t>) {});
  for (int i = 0; i < 20000; ++i) {
    ASSERT_TRUE(ch.try_send(std::vector<std::uint8_t>(4, 0)));
  }
  sim.run();
  EXPECT_NEAR(static_cast<double>(ch.stats().frames_corrupted) / 20000, 0.10,
              0.01);
}

TEST(SimChannel, DuplicationDeliversTwice) {
  Simulator sim;
  ChannelConfig cfg = basic_config();
  cfg.duplicate = 0.5;
  cfg.queue_capacity_bytes = 1 << 24;
  SimChannel ch(sim, cfg, Rng(25));
  int deliveries = 0;
  ch.set_receiver([&](std::vector<std::uint8_t>) { ++deliveries; });
  const int frames = 20000;
  for (int i = 0; i < frames; ++i) {
    ASSERT_TRUE(ch.try_send(std::vector<std::uint8_t>(4, 0)));
  }
  sim.run();
  EXPECT_NEAR(static_cast<double>(deliveries) / frames, 1.5, 0.02);
  EXPECT_NEAR(static_cast<double>(ch.stats().frames_duplicated) / frames, 0.5,
              0.02);
}

TEST(SimChannel, RejectsInvalidNetemExtensions) {
  Simulator sim;
  ChannelConfig bad = basic_config();
  bad.jitter = -1;
  EXPECT_THROW(SimChannel(sim, bad, Rng(0)), PreconditionError);
  bad = basic_config();
  bad.corrupt = 1.0;
  EXPECT_THROW(SimChannel(sim, bad, Rng(0)), PreconditionError);
  bad = basic_config();
  bad.duplicate = -0.1;
  EXPECT_THROW(SimChannel(sim, bad, Rng(0)), PreconditionError);
}

// ---------------------------------------------------------------- outages

TEST(Outage, DownChannelSilentlyDropsFrames) {
  Simulator sim;
  SimChannel ch(sim, basic_config(), Rng(41));
  int delivered = 0;
  ch.set_receiver([&](std::vector<std::uint8_t>) { ++delivered; });
  ch.set_down(true);
  EXPECT_TRUE(ch.ready());  // silent: the sender can't tell
  EXPECT_TRUE(ch.try_send(std::vector<std::uint8_t>(100, 0)));
  sim.run();
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(ch.stats().frames_dropped_outage, 1u);
  ch.set_down(false);
  EXPECT_TRUE(ch.try_send(std::vector<std::uint8_t>(100, 0)));
  sim.run();
  EXPECT_EQ(delivered, 1);
}

TEST(Outage, ProcessTogglesWithConfiguredDutyCycle) {
  Simulator sim;
  SimChannel ch(sim, basic_config(), Rng(42));
  ch.set_receiver([](std::vector<std::uint8_t>) {});
  OutageConfig cfg;
  cfg.mean_up_s = 1.0;
  cfg.mean_down_s = 0.25;
  OutageProcess outage(sim, ch, cfg, Rng(43));
  sim.schedule_at(from_seconds(200.0), [&] { outage.stop(); });
  sim.run_until(from_seconds(200.0));
  // Expected downtime fraction 0.25 / 1.25 = 20%.
  const double fraction = to_seconds(outage.downtime()) / 200.0;
  EXPECT_NEAR(fraction, 0.2, 0.05);
  EXPECT_GT(outage.transitions(), 100u);  // ~160 two-way transitions
}

TEST(Outage, StartDownAndStop) {
  Simulator sim;
  SimChannel ch(sim, basic_config(), Rng(44));
  OutageConfig cfg;
  cfg.start_down = true;
  cfg.mean_up_s = 1.0;
  cfg.mean_down_s = 1.0;
  OutageProcess outage(sim, ch, cfg, Rng(45));
  EXPECT_TRUE(ch.is_down());
  outage.stop();
  sim.run();  // pending toggle is a no-op; queue drains
  EXPECT_TRUE(ch.is_down());  // state frozen by stop()
}

TEST(Outage, RejectsBadConfig) {
  Simulator sim;
  SimChannel ch(sim, basic_config(), Rng(46));
  OutageConfig bad;
  bad.mean_up_s = 0.0;
  EXPECT_THROW(OutageProcess(sim, ch, bad, Rng(0)), PreconditionError);
}

// ---------------------------------------------------------------- CpuModel

TEST(CpuModel, UnlimitedCompletesInstantly) {
  Simulator sim;
  CpuModel cpu(sim, CpuConfig{.unlimited = true});
  EXPECT_EQ(cpu.submit(1e9), sim.now());
}

TEST(CpuModel, SerializesWork) {
  Simulator sim;
  CpuConfig cfg;
  cfg.ops_per_sec = 1e6;  // 1 op = 1 us
  cfg.unlimited = false;
  CpuModel cpu(sim, cfg);
  EXPECT_EQ(cpu.submit(100), from_micros(100));
  EXPECT_EQ(cpu.submit(100), from_micros(200));  // queued behind the first
}

TEST(CpuModel, IdleGapsAreNotBanked) {
  Simulator sim;
  CpuConfig cfg;
  cfg.ops_per_sec = 1e6;
  cfg.unlimited = false;
  CpuModel cpu(sim, cfg);
  (void)cpu.submit(10);
  sim.schedule_at(from_micros(1000), [&] {
    // CPU has been idle; new work starts now, not at busy_until.
    EXPECT_EQ(cpu.submit(10), from_micros(1010));
  });
  sim.run();
}

TEST(CpuModel, CostFormulasScaleWithParameters) {
  Simulator sim;
  CpuModel cpu(sim, CpuConfig{});
  // Split cost grows with m and with k*m.
  EXPECT_LT(cpu.split_ops(1, 1), cpu.split_ops(1, 5));
  EXPECT_LT(cpu.split_ops(1, 5), cpu.split_ops(5, 5));
  // Reconstruct cost grows quadratically in k.
  const double c1 = cpu.reconstruct_ops(1);
  const double c2 = cpu.reconstruct_ops(2);
  const double c4 = cpu.reconstruct_ops(4);
  EXPECT_GT(c4 - c2, c2 - c1);
}

}  // namespace
}  // namespace mcss::net
