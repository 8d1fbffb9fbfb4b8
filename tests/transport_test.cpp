// Live transport tests: the live timeline, the epoll poller, sockets,
// the frame pool, the userspace impairment shim, and UdpChannel batching
// — all on unprivileged loopback, no netem, no fixed ports (everything
// binds ephemeral so suites can run in parallel). End-to-end runs of the
// endpoint built on them live in session_test.cpp.
#include <gtest/gtest.h>
#include <poll.h>

#include <algorithm>
#include <atomic>
#include <climits>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <cstring>
#include <new>
#include <optional>
#include <utility>
#include <vector>

#include "net/sim_channel.hpp"
#include "net/simulator.hpp"
#include "obs/metrics.hpp"
#include "protocol/receiver.hpp"
#include "protocol/wire.hpp"
#include "sss/shamir.hpp"
#include "transport/impairment.hpp"
#include "transport/poller.hpp"
#include "transport/udp_channel.hpp"
#include "transport/udp_socket.hpp"
#include "udp_test_util.hpp"
#include "transport/wall_clock.hpp"
#include "util/ensure.hpp"
#include "util/frame_pool.hpp"
#include "util/rng.hpp"

// ---- allocation-counting hook ----------------------------------------
//
// Replacing the global allocator is binary-wide, so counting is gated on
// a flag that SteadyStateFastPathDoesNotAllocateAfterWarmup flips around
// its measured region. Everything else pays one relaxed load per new.
namespace {
std::atomic<bool> g_count_allocs{false};
std::atomic<std::uint64_t> g_allocs{0};
std::atomic<std::uint64_t> g_alloc_bytes{0};  ///< bytes those calls asked for
}  // namespace

// noinline keeps GCC from pairing an inlined free() against new
// expressions elsewhere and warning about a mismatch that is not one
// (this new IS malloc-based).
#define MCSS_TEST_NOINLINE __attribute__((noinline))

MCSS_TEST_NOINLINE void* operator new(std::size_t size) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size != 0 ? size : 1)) return p;
  throw std::bad_alloc();
}
MCSS_TEST_NOINLINE void* operator new[](std::size_t size) {
  return ::operator new(size);
}
MCSS_TEST_NOINLINE void operator delete(void* p) noexcept { std::free(p); }
MCSS_TEST_NOINLINE void operator delete[](void* p) noexcept { std::free(p); }
MCSS_TEST_NOINLINE void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
MCSS_TEST_NOINLINE void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace mcss::transport {
namespace {

using net::ChannelConfig;
using util::FramePool;
using util::FrameRef;

/// Pool-backed frame full of `fill`. Tests size their pools so that
/// acquisition cannot fail.
FrameRef make_frame(FramePool& pool, std::size_t size, std::uint8_t fill) {
  FrameRef f = pool.acquire();
  MCSS_ENSURE(f, "test pool exhausted");
  f.resize(size);
  std::memset(f.data(), fill, size);
  return f;
}

// ------------------------------------------------------- live timeline

TEST(LiveTimeline, PastDeadlineFiresOnNextAdvanceWithoutThrowing) {
  // Live deadlines are derived from wall stamps that can trail the
  // timeline (a stale offer time, a retry backoff from the last send, an
  // overdue RTO). schedule_wall clamps them to now(): no throw, and the
  // timer fires on the very next advance.
  net::Simulator timeline;
  timeline.run_until(10'000'000);
  bool fired = false;
  const auto handle =
      schedule_wall(timeline, 1'000'000, [&] { fired = true; });  // long past
  EXPECT_TRUE(handle);
  ASSERT_TRUE(timeline.next_event_time().has_value());
  EXPECT_EQ(*timeline.next_event_time(), 10'000'000);
  EXPECT_FALSE(fired);
  timeline.run_until(10'000'000);
  EXPECT_TRUE(fired);
  EXPECT_EQ(timeline.pending(), 0u);
  // Simulation callers keep the precondition: schedule_at still rejects
  // the same past deadline.
  EXPECT_THROW(timeline.schedule_at(1'000'000, [] {}), PreconditionError);
}

TEST(LiveTimeline, TimerDueBeforeTheFreshReadYieldsTimeoutZero) {
  // The loop advanced to 10 ms, then its pump armed a serializer
  // departure 1.2 us later. Measured from the stale loop-top time the
  // wait rounds up to a whole millisecond; from a fresh read taken after
  // the departure came due it does not wait at all.
  net::Simulator timeline;
  timeline.run_until(10'000'000);
  timeline.schedule_at(10'001'200, [] {});
  const std::int64_t deadline = 500'000'000;
  const PollWait stale =
      plan_wait(timeline, 10'000'000, deadline, std::nullopt);
  EXPECT_EQ(stale.timeout_ns, 1'000'000);
  const PollWait fresh =
      plan_wait(timeline, 10'002'000, deadline, std::nullopt);
  EXPECT_EQ(fresh.timeout_ns, 0);
  EXPECT_EQ(fresh.wake_ns, 10'001'200);
  // A timer still in the future keeps whole-millisecond rounding, and
  // the run deadline bounds the wake when it comes first.
  EXPECT_EQ(plan_wait(timeline, 9'000'000, deadline, std::nullopt).timeout_ns,
            2'000'000);
  const PollWait by_deadline =
      plan_wait(timeline, 10'000'000, 10'000'500, std::nullopt);
  EXPECT_EQ(by_deadline.wake_ns, 10'000'500);
  EXPECT_EQ(by_deadline.timeout_ns, 1'000'000);
  // Nothing pending: the 100 ms cap keeps the deadline re-checked.
  net::Simulator idle;
  const PollWait capped = plan_wait(idle, 0, deadline, std::nullopt);
  EXPECT_EQ(capped.wake_ns, deadline);
  EXPECT_EQ(capped.timeout_ns, kMaxWaitNs);
}

TEST(LiveTimeline, IdlePlanRoundsUpToWholeMilliseconds) {
  // No blocked work: every future timer rounds up to the next whole
  // millisecond, however close it is, so light load costs one wake-up
  // per millisecond rather than one per serializer departure.
  net::Simulator timeline;
  timeline.schedule_at(1'234'567, [] {});
  const PollWait w = plan_wait(timeline, 1'000, 50'000'000, std::nullopt);
  EXPECT_EQ(w.wake_ns, 1'234'567);
  EXPECT_EQ(w.timeout_ns, 2'000'000);
  EXPECT_EQ(w.timeout_ns % 1'000'000, 0);
  EXPECT_EQ(plan_wait(timeline, 1'234'000, 50'000'000, std::nullopt).timeout_ns,
            1'000'000);
  // An unblock time later than the rounded timer changes nothing.
  const PollWait later = plan_wait(timeline, 1'000, 50'000'000, 9'000'000);
  EXPECT_EQ(later.wake_ns, 1'234'567);
  EXPECT_EQ(later.timeout_ns, 2'000'000);
}

/// A channel on a simulated timeline whose serializer holds five
/// 1000-byte frames offered at t = 0: at 8 Mbit/s they depart at 1..5 ms
/// (and release 10 ms later), and with a 2500-byte watermark the channel
/// is ready again once the third has left (2000 bytes queued).
struct BlockedChannel {
  net::Simulator timeline;
  FramePool pool{2048, 16};
  UdpChannel ch;
  static ChannelConfig config() {
    ChannelConfig c;
    c.rate_bps = 8e6;
    c.delay = 10'000'000;
    c.queue_capacity_bytes = 8000;
    c.ready_watermark_bytes = 2500;
    return c;
  }
  BlockedChannel() : ch(config(), Rng(3), timeline, pool, 0, "blocked") {
    for (int i = 0; i < 5; ++i) {
      EXPECT_TRUE(ch.try_send(make_frame(pool, 1000, 0x11), 0));
    }
  }
};

TEST(LiveTimeline, BlockedPlanEndsAtTheChannelReadyTimeToTheNanosecond) {
  BlockedChannel b;
  ASSERT_FALSE(b.ch.ready(0));
  // Ready once the third frame departs (3 ms); the serializer runs idle
  // at 5 ms. The wake is the later of the two, with the idle time moved
  // forward by the margin.
  EXPECT_EQ(b.ch.unblocks_at(3'000'000), 3'000'000);
  EXPECT_EQ(b.ch.unblocks_at(1'500'000), 3'500'000);
  EXPECT_EQ(b.ch.unblocks_at(1'000'000), 4'000'000);
  EXPECT_EQ(b.ch.unblocks_at(0), 5'000'000);

  // Mid-way through the second millisecond, with the third departure
  // the next timer: the wait ends exactly at the ready time, not at the
  // millisecond that timer would round up to.
  const std::int64_t now = 2'123'457;
  b.timeline.run_until(now);
  const auto unblock = b.ch.unblocks_at(3'000'000);
  ASSERT_EQ(unblock, 3'000'000);
  const PollWait w = plan_wait(b.timeline, now, 50'000'000, unblock);
  EXPECT_EQ(w.wake_ns, 3'000'000);
  EXPECT_EQ(w.timeout_ns, 876'543);
  // With a 1 ms margin the channel is left alone until 4 ms, so the
  // rounded departure timer ends the wait first.
  const PollWait margin =
      plan_wait(b.timeline, now, 50'000'000, b.ch.unblocks_at(1'000'000));
  EXPECT_EQ(margin.wake_ns, 3'000'000);
  EXPECT_EQ(margin.timeout_ns, 1'000'000);
  // A departure already due but not yet fired ends the wait at once.
  EXPECT_EQ(plan_wait(b.timeline, 3'100'000, 50'000'000, unblock).timeout_ns,
            0);
  // Stepping the timeline to the planned wake makes the channel ready.
  b.timeline.run_until(*unblock);
  EXPECT_TRUE(b.ch.ready(*unblock));
  EXPECT_FALSE(b.ch.unblocks_at(1'000'000).has_value());
}

TEST(LiveTimeline, ReadyChannelsAddNoPreciseWake) {
  // A block that no channel explains (pool or budget) must not turn
  // into a precise wake at `now`: ready channels report no unblock time,
  // so the plan keeps whole-ms rounding.
  net::Simulator timeline;
  FramePool pool(2048, 8);
  UdpChannel ch(BlockedChannel::config(), Rng(4), timeline, pool, 0, "idle");
  ASSERT_TRUE(ch.try_send(make_frame(pool, 1000, 0x22), 0));
  ASSERT_TRUE(ch.ready(0));
  EXPECT_FALSE(ch.unblocks_at(1'000'000).has_value());
  const PollWait w = plan_wait(timeline, 10'000, 50'000'000,
                               ch.unblocks_at(1'000'000));
  EXPECT_EQ(w.wake_ns, 1'000'000);  // the departure timer
  EXPECT_EQ(w.timeout_ns, 1'000'000);
}

// --------------------------------------------------------------- poller

TEST(Poller, ReportsReadinessAndHonorsInterest) {
  Poller poller;
  UdpSocket rx = UdpSocket::bound_loopback(0);
  UdpSocket tx = UdpSocket::bound_loopback(0);
  tx.connect_loopback(rx.local_port());

  poller.add(rx.fd(), /*want_read=*/true, /*want_write=*/false);
  std::vector<Poller::Event> events;
  EXPECT_EQ(poller.wait(0, events), 0u);  // nothing queued yet

  const std::vector<std::uint8_t> ping{1, 2, 3};
  ASSERT_EQ(test::send_one(tx, ping), UdpSocket::IoResult::Ok);
  // Loopback delivery is immediate, but give the kernel a timeout anyway.
  ASSERT_EQ(poller.wait(1'000'000'000, events), 1u);
  EXPECT_EQ(events[0].fd, rx.fd());
  EXPECT_TRUE(events[0].readable);
  EXPECT_FALSE(events[0].writable);

  // A UDP socket with write interest is immediately writable.
  poller.modify(rx.fd(), /*want_read=*/true, /*want_write=*/true);
  ASSERT_GE(poller.wait(1'000'000'000, events), 1u);
  EXPECT_TRUE(events[0].writable);

  poller.remove(rx.fd());
  std::uint8_t buf[16];
  std::size_t n = 0;
  ASSERT_EQ(test::recv_one(rx, buf, &n), UdpSocket::IoResult::Ok);
  EXPECT_EQ(n, 3u);
  EXPECT_EQ(poller.wait(0, events), 0u);
}

TEST(Poller, NanosecondTimeoutWakesWithoutRoundingToMilliseconds) {
  Poller poller;
  UdpSocket rx = UdpSocket::bound_loopback(0);
  poller.add(rx.fd(), /*want_read=*/true, /*want_write=*/false);
  std::vector<Poller::Event> events;
  // Kernels since 5.11 take the timeout as a timespec. A 200 us wait on
  // an idle set then times out after 200 us or a little more; the best
  // of a few is well under the 1 ms a rounded-up epoll_wait would take.
  ASSERT_TRUE(poller.ns_timeouts()) << "epoll_pwait2 probe failed";
  std::int64_t best = INT64_MAX;
  for (int i = 0; i < 5; ++i) {
    const std::int64_t t0 = monotonic_ns();
    EXPECT_EQ(poller.wait(200'000, events), 0u);
    const std::int64_t took = monotonic_ns() - t0;
    EXPECT_GE(took, 200'000);
    best = std::min(best, took);
  }
  EXPECT_LT(best, 900'000);
}

TEST(Poller, EpollWaitFallbackRoundsUpAndReportsTheSameEvents) {
  UdpSocket rx = UdpSocket::bound_loopback(0);
  UdpSocket tx = UdpSocket::bound_loopback(0);
  tx.connect_loopback(rx.local_port());
  const auto events_of = [&](Poller& poller) {
    std::vector<Poller::Event> events;
    poller.add(rx.fd(), /*want_read=*/true, /*want_write=*/false);
    poller.add(tx.fd(), /*want_read=*/false, /*want_write=*/true);
    poller.wait(1'000'000'000, events);
    poller.remove(rx.fd());
    poller.remove(tx.fd());
    std::sort(events.begin(), events.end(),
              [](const Poller::Event& x, const Poller::Event& y) {
                return x.fd < y.fd;
              });
    return events;
  };
  ASSERT_EQ(test::send_one(tx, std::vector<std::uint8_t>{5, 6}),
            UdpSocket::IoResult::Ok);
  Poller precise;
  Poller fallback;
  fallback.inject_no_ns_timeouts();
  EXPECT_FALSE(fallback.ns_timeouts());
  const auto a = events_of(precise);
  const auto b = events_of(fallback);
  ASSERT_EQ(a.size(), 2u);
  ASSERT_EQ(b.size(), a.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(b[i].fd, a[i].fd);
    EXPECT_EQ(b[i].readable, a[i].readable);
    EXPECT_EQ(b[i].writable, a[i].writable);
    EXPECT_EQ(b[i].error, a[i].error);
  }
  // The fallback's timeout is epoll_wait's whole milliseconds, rounded
  // up: a 200 us wait on an idle set never ends early.
  std::vector<Poller::Event> events;
  Poller idle;
  idle.inject_no_ns_timeouts();
  const std::int64_t t0 = monotonic_ns();
  EXPECT_EQ(idle.wait(200'000, events), 0u);
  EXPECT_GE(monotonic_ns() - t0, 1'000'000);
}

// --------------------------------------------------------------- socket

TEST(UdpSocket, RoundTripAndDrainToWouldBlock) {
  UdpSocket rx = UdpSocket::bound_loopback(0);
  UdpSocket tx = UdpSocket::bound_loopback(0);
  tx.connect_loopback(rx.local_port());

  const std::vector<std::uint8_t> msg{9, 8, 7, 6};
  ASSERT_EQ(test::send_one(tx, msg), UdpSocket::IoResult::Ok);
  std::uint8_t buf[64];
  std::size_t n = 0;
  // recv may race loopback delivery; retry briefly.
  UdpSocket::IoResult r = UdpSocket::IoResult::WouldBlock;
  for (int i = 0; i < 1000 && r == UdpSocket::IoResult::WouldBlock; ++i) {
    r = test::recv_one(rx, buf, &n);
  }
  ASSERT_EQ(r, UdpSocket::IoResult::Ok);
  EXPECT_EQ(n, 4u);
  EXPECT_TRUE(std::equal(msg.begin(), msg.end(), buf));
  EXPECT_EQ(test::recv_one(rx, buf, &n), UdpSocket::IoResult::WouldBlock);
}

TEST(UdpSocket, InjectedWouldBlockIsDeterministic) {
  UdpSocket rx = UdpSocket::bound_loopback(0);
  UdpSocket tx = UdpSocket::bound_loopback(0);
  tx.connect_loopback(rx.local_port());
  tx.inject_wouldblock(2);
  const std::vector<std::uint8_t> msg{1};
  EXPECT_EQ(test::send_one(tx, msg), UdpSocket::IoResult::WouldBlock);
  EXPECT_EQ(test::send_one(tx, msg), UdpSocket::IoResult::WouldBlock);
  EXPECT_EQ(test::send_one(tx, msg), UdpSocket::IoResult::Ok);
}

TEST(UdpSocket, SendManyRecvManyMoveWholeBatchesInOneSyscallEach) {
  UdpSocket rx = UdpSocket::bound_loopback(0);
  UdpSocket tx = UdpSocket::bound_loopback(0);
  tx.connect_loopback(rx.local_port());

  // Three distinct datagrams, one sendmmsg.
  std::array<std::array<std::uint8_t, 8>, 3> out;
  std::array<iovec, 3> out_iov;
  std::array<mmsghdr, 3> out_msgs{};
  for (std::size_t i = 0; i < 3; ++i) {
    out[i].fill(static_cast<std::uint8_t>(0x40 + i));
    out_iov[i] = {out[i].data(), out[i].size()};
    out_msgs[i].msg_hdr.msg_iov = &out_iov[i];
    out_msgs[i].msg_hdr.msg_iovlen = 1;
  }
  const auto sent = tx.send_many(out_msgs);
  ASSERT_EQ(sent.result, UdpSocket::IoResult::Ok);
  EXPECT_EQ(sent.completed, 3u);
  EXPECT_EQ(tx.syscalls_send(), 1u);
  for (const auto& m : out_msgs) EXPECT_EQ(m.msg_len, 8u);

  // Drain with recvmmsg into four slots; loopback may deliver in pieces,
  // so accumulate until all three arrive.
  std::array<std::array<std::uint8_t, 64>, 4> in;
  std::array<iovec, 4> in_iov;
  std::array<mmsghdr, 4> in_msgs{};
  for (std::size_t i = 0; i < 4; ++i) {
    in_iov[i] = {in[i].data(), in[i].size()};
    in_msgs[i].msg_hdr.msg_iov = &in_iov[i];
    in_msgs[i].msg_hdr.msg_iovlen = 1;
  }
  std::vector<std::uint8_t> first_bytes;
  for (int spins = 0; spins < 5000 && first_bytes.size() < 3; ++spins) {
    const auto got = rx.recv_many(in_msgs);
    if (got.result != UdpSocket::IoResult::Ok) continue;
    for (unsigned i = 0; i < got.completed; ++i) {
      ASSERT_EQ(in_msgs[i].msg_len, 8u);
      first_bytes.push_back(in[i][0]);
    }
  }
  std::sort(first_bytes.begin(), first_bytes.end());
  EXPECT_EQ(first_bytes, (std::vector<std::uint8_t>{0x40, 0x41, 0x42}));
  EXPECT_GT(rx.syscalls_recv(), 0u);
}

TEST(UdpSocket, InjectedAcceptLimitShortensOneBatch) {
  UdpSocket rx = UdpSocket::bound_loopback(0);
  UdpSocket tx = UdpSocket::bound_loopback(0);
  tx.connect_loopback(rx.local_port());
  std::array<std::uint8_t, 4> payload{1, 2, 3, 4};
  std::array<iovec, 3> iov;
  std::array<mmsghdr, 3> msgs{};
  for (std::size_t i = 0; i < 3; ++i) {
    iov[i] = {payload.data(), payload.size()};
    msgs[i].msg_hdr.msg_iov = &iov[i];
    msgs[i].msg_hdr.msg_iovlen = 1;
  }
  tx.inject_accept_limit(2);
  auto batch = tx.send_many(msgs);
  EXPECT_EQ(batch.result, UdpSocket::IoResult::Ok);
  EXPECT_EQ(batch.completed, 2u);  // kernel "took" only the head
  batch = tx.send_many(msgs);      // hook is one-shot
  EXPECT_EQ(batch.result, UdpSocket::IoResult::Ok);
  EXPECT_EQ(batch.completed, 3u);
}

// ----------------------------------------------------------- frame pool

TEST(FramePool, AcquireRecycleAndHighWater) {
  FramePool pool(256, 4);
  EXPECT_EQ(pool.capacity(), 4u);
  EXPECT_EQ(pool.available(), 4u);
  {
    FrameRef a = pool.acquire();
    FrameRef b = pool.acquire();
    ASSERT_TRUE(a);
    ASSERT_TRUE(b);
    EXPECT_NE(a.slot(), b.slot());
    a.resize(100);
    EXPECT_EQ(a.size(), 100u);
    EXPECT_EQ(pool.in_use(), 2u);
  }
  // Both refs dropped: slots recycled, high-water remembers the peak.
  EXPECT_EQ(pool.in_use(), 0u);
  EXPECT_EQ(pool.available(), 4u);
  EXPECT_EQ(pool.stats().acquired, 2u);
  EXPECT_EQ(pool.stats().high_water, 2u);
  // Data pointers are arena-stable: reacquiring reuses the same memory.
  FrameRef c = pool.acquire();
  ASSERT_TRUE(c);
  EXPECT_GE(c.data(), pool.arena_data());
  EXPECT_LT(c.data(), pool.arena_data() + pool.arena_bytes());
}

TEST(FramePool, CopiesShareTheSlotUntilTheLastRefDrops) {
  FramePool pool(128, 2);
  FrameRef a = pool.acquire();
  ASSERT_TRUE(a);
  a.resize(5);
  std::memcpy(a.data(), "hello", 5);
  FrameRef b = a;  // refcount bump, same slot
  EXPECT_EQ(pool.in_use(), 1u);
  EXPECT_EQ(a.data(), b.data());
  a.reset();
  EXPECT_EQ(pool.in_use(), 1u) << "slot must survive the first release";
  EXPECT_EQ(b.size(), 5u);
  EXPECT_EQ(std::memcmp(b.data(), "hello", 5), 0);
  b.reset();
  EXPECT_EQ(pool.in_use(), 0u);
}

TEST(FramePool, ExhaustionReturnsNullAndCounts) {
  FramePool pool(64, 2);
  FrameRef a = pool.acquire();
  FrameRef b = pool.acquire();
  ASSERT_TRUE(a && b);
  FrameRef c = pool.acquire();
  EXPECT_FALSE(c);
  EXPECT_EQ(pool.stats().exhausted, 1u);
  // Oversize copies can never be pooled; same degrade, same stat.
  const std::vector<std::uint8_t> big(65, 0xAA);
  a.reset();
  EXPECT_FALSE(pool.acquire_copy(big));
  EXPECT_EQ(pool.stats().exhausted, 2u);
  // A fitting copy lands byte-for-byte.
  const std::vector<std::uint8_t> ok(64, 0xBB);
  FrameRef d = pool.acquire_copy(ok);
  ASSERT_TRUE(d);
  EXPECT_EQ(d.size(), 64u);
  EXPECT_TRUE(std::equal(ok.begin(), ok.end(), d.data()));
}

// ----------------------------------------------------------- impairment

/// Steps the timeline in `step_ns` increments up to `until_ns`,
/// recording the advance-time at which each release lands.
struct ReleaseRecorder {
  std::vector<std::int64_t> at;
  std::int64_t now = 0;
  void step(net::Simulator& timeline, std::int64_t until_ns,
            std::int64_t step_ns) {
    for (; now <= until_ns; now += step_ns) timeline.run_until(now);
  }
};

TEST(Impairment, PacesFramesAtTheConfiguredRate) {
  net::Simulator timeline;
  ChannelConfig cfg;
  cfg.rate_bps = 8e6;  // 1000 bytes = 1 ms on the serializer
  cfg.delay = 0;
  ReleaseRecorder rec;
  FramePool pool(2048, 8);
  Impairment impair(cfg, Rng(1), timeline,
                    [&](FrameRef, std::int64_t) { rec.at.push_back(rec.now); });
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(impair.offer(make_frame(pool, 1000, 0xAB), 0));
  }
  EXPECT_EQ(impair.model().backlog(0), 5'000'000);
  rec.step(timeline, 10'000'000, 50'000);
  ASSERT_EQ(rec.at.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    const std::int64_t expected = (i + 1) * 1'000'000;
    EXPECT_NEAR(static_cast<double>(rec.at[static_cast<std::size_t>(i)]),
                static_cast<double>(expected), 200'000.0)
        << "frame " << i;
  }
  EXPECT_EQ(impair.stats().frames_delivered, 5u);
  EXPECT_EQ(impair.model().backlog(10'000'000), 0);
}

TEST(Impairment, DelayPlusJitterStaysInBounds) {
  net::Simulator timeline;
  ChannelConfig cfg;
  cfg.rate_bps = 1e12;  // serialization ~ 0
  cfg.delay = 5'000'000;
  cfg.jitter = 2'000'000;
  cfg.queue_capacity_bytes = 1 << 20;
  ReleaseRecorder rec;
  FramePool pool(256, 128);
  Impairment impair(cfg, Rng(7), timeline,
                    [&](FrameRef, std::int64_t) { rec.at.push_back(rec.now); });
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(impair.offer(make_frame(pool, 64, 1), 0));
  }
  rec.step(timeline, 9'000'000, 50'000);
  ASSERT_EQ(rec.at.size(), 100u);
  const auto [lo, hi] = std::minmax_element(rec.at.begin(), rec.at.end());
  EXPECT_GE(*lo, 5'000'000);
  EXPECT_LE(*hi, 7'000'000 + 200'000);
  EXPECT_GT(*hi - *lo, 500'000) << "jitter should actually spread releases";
}

TEST(Impairment, TailDropsAndReadyWatermark) {
  net::Simulator timeline;
  ChannelConfig cfg;
  cfg.rate_bps = 8e6;
  cfg.queue_capacity_bytes = 3000;  // watermark defaults to 1500
  int released = 0;
  FramePool pool(2048, 8);
  Impairment impair(cfg, Rng(1), timeline,
                    [&](FrameRef, std::int64_t) { ++released; });
  EXPECT_TRUE(impair.model().ready());
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(impair.offer(make_frame(pool, 1000, 2), 0));
  }
  EXPECT_FALSE(impair.model().ready());  // 3000 queued >= 1500 watermark
  EXPECT_FALSE(impair.offer(make_frame(pool, 1000, 2), 0));
  EXPECT_EQ(impair.stats().frames_dropped_queue, 1u);
  timeline.run_until(10'000'000);  // drain
  EXPECT_TRUE(impair.model().ready());
  EXPECT_EQ(released, 3);
}

TEST(Impairment, StaleOfferTimeReleasesOnTheNextAdvance) {
  // A live caller may offer with a stamp older than the timeline's now()
  // (it read the clock before the loop advanced). The departure and
  // release it computes are then already past: they must fire on the
  // next advance, keep their computed stamps, and never throw.
  net::Simulator timeline;
  timeline.run_until(10'000'000);
  ChannelConfig cfg;
  cfg.rate_bps = 8e6;  // 1000 bytes = 1 ms on the serializer
  cfg.delay = 2'000'000;
  std::vector<std::int64_t> stamps;
  FramePool pool(2048, 8);
  Impairment impair(cfg, Rng(1), timeline, [&](FrameRef, std::int64_t at) {
    stamps.push_back(at);
  });
  ASSERT_TRUE(impair.offer(make_frame(pool, 1000, 4), 0));
  EXPECT_TRUE(stamps.empty());
  timeline.run_until(10'000'000);
  ASSERT_EQ(stamps.size(), 1u);
  EXPECT_EQ(stamps[0], 3'000'000);  // departure 1 ms + delay 2 ms
  EXPECT_EQ(impair.stats().frames_delivered, 1u);
}

TEST(Impairment, SeededBernoulliLossLandsNearTheConfiguredRate) {
  net::Simulator timeline;
  ChannelConfig cfg;
  cfg.rate_bps = 8e9;  // 100 bytes = 100 ns; drains between offers
  cfg.loss = 0.3;
  FramePool pool(256, 8);
  Impairment impair(cfg, Rng(42), timeline, [](FrameRef, std::int64_t) {});
  const int kFrames = 2000;
  for (int i = 0; i < kFrames; ++i) {
    const std::int64_t t = static_cast<std::int64_t>(i) * 1000;
    ASSERT_TRUE(impair.offer(make_frame(pool, 100, 3), t));
    timeline.run_until(t + 1000);
  }
  timeline.run_until(kFrames * 1000 + 10'000'000);
  const auto& s = impair.stats();
  EXPECT_EQ(s.frames_dropped_loss + s.frames_delivered,
            static_cast<std::uint64_t>(kFrames));
  const double measured =
      static_cast<double>(s.frames_dropped_loss) / kFrames;
  EXPECT_NEAR(measured, 0.3, 0.05);
}

/// FNV-1a over one channel's release stream: each released frame's
/// offer index, release stamp and bytes, in release order.
struct ReleaseStream {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  std::uint64_t frames = 0;
  void mix(const void* p, std::size_t n) {
    const auto* b = static_cast<const std::uint8_t*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      hash = (hash ^ b[i]) * 0x100000001b3ULL;
    }
  }
  void on_release(const FrameRef& f, std::int64_t at) {
    ++frames;
    mix(&at, sizeof at);
    mix(f.data(), f.size());
  }
};

TEST(Impairment, SeededGoldenRunKeepsOrderStampsAndDraws) {
  // Two impaired channels on one timeline, every knob on: rate, delay,
  // jitter (channel a), loss, corrupt, duplicate, tail drop, and stale
  // offer stamps, advanced in coarse steps as a live loop does. The
  // per-channel release stream (order, stamps, bytes) and the draw
  // counts are pinned to the values the one-closure-per-frame shim
  // produced, so holding frames in the shim changed none of them.
  net::Simulator timeline;
  FramePool pool(2048, 1024);
  ChannelConfig a;
  a.rate_bps = 20e6;
  a.delay = 3'000'000;
  a.jitter = 2'000'000;
  a.loss = 0.05;
  a.corrupt = 0.02;
  a.duplicate = 0.03;
  a.queue_capacity_bytes = 16 * 1024;
  ChannelConfig b = a;
  b.rate_bps = 8e6;
  b.delay = 1'000'000;
  b.jitter = 0;
  b.loss = 0.1;
  b.corrupt = 0.05;
  b.duplicate = 0.05;
  ReleaseStream sa;
  ReleaseStream sb;
  Impairment ia(a, Rng(101), timeline,
                [&](FrameRef f, std::int64_t at) { sa.on_release(f, at); });
  Impairment ib(b, Rng(202), timeline,
                [&](FrameRef f, std::int64_t at) { sb.on_release(f, at); });
  Rng sizes(303);
  constexpr std::int64_t kStep = 400'000;
  std::int64_t advanced = 0;
  for (std::uint32_t i = 0; i < 600; ++i) {
    const std::int64_t t = static_cast<std::int64_t>(i) * 150'000;
    // Every seventh offer carries a stamp 0.5 ms stale.
    const std::int64_t stamp =
        i % 7 == 0 ? std::max<std::int64_t>(t - 500'000, 0) : t;
    for (Impairment* imp : {&ia, &ib}) {
      FrameRef f = make_frame(pool, 100 + sizes.uniform_int(1200),
                              static_cast<std::uint8_t>(i));
      std::memcpy(f.data(), &i, sizeof i);
      (void)imp->offer(std::move(f), stamp);
    }
    for (; advanced + kStep <= t; advanced += kStep) {
      timeline.run_until(advanced + kStep);
    }
  }
  timeline.run_until(advanced + 1'000'000'000);
  const auto& xa = ia.stats();
  const auto& xb = ib.stats();
  EXPECT_EQ(sa.frames, 391u);
  EXPECT_EQ(sa.hash, 480345876637012839ULL);
  EXPECT_EQ(sb.frames, 219u);
  EXPECT_EQ(sb.hash, 16797332648333078857ULL);
  EXPECT_EQ(xa.frames_dropped_queue, 200u);
  EXPECT_EQ(xa.frames_dropped_loss, 21u);
  EXPECT_EQ(xa.frames_corrupted, 6u);
  EXPECT_EQ(xa.frames_duplicated, 12u);
  EXPECT_EQ(xb.frames_dropped_queue, 369u);
  EXPECT_EQ(xb.frames_dropped_loss, 23u);
  EXPECT_EQ(xb.frames_corrupted, 11u);
  EXPECT_EQ(xb.frames_duplicated, 11u);
  EXPECT_EQ(pool.in_use(), 0u);
}

TEST(Impairment, MatchesSimChannelFrameForFrameOnOneSeededTrace) {
  // The same seeded offer trace, every knob on (rate, tail drop, loss,
  // corrupt, duplicate, delay + jitter), through the simulated channel
  // on its event queue and through the live shim on a timeline advanced
  // to each offer stamp. Both must accept and refuse the same frames and
  // release the same bytes at the same stamps in the same order, with
  // the same counters.
  ChannelConfig cfg;
  cfg.rate_bps = 10e6;  // 1200 B = 960 us on the serializer
  cfg.delay = 2'000'000;
  cfg.jitter = 1'500'000;
  cfg.loss = 0.08;
  cfg.corrupt = 0.05;
  cfg.duplicate = 0.06;
  cfg.queue_capacity_bytes = 8 * 1024;
  struct Offer {
    std::int64_t at;
    std::vector<std::uint8_t> bytes;
  };
  std::vector<Offer> trace;
  Rng gen(77);
  std::int64_t t = 0;
  for (std::uint32_t i = 0; i < 800; ++i) {
    // Bursts of back-to-back offers between idle gaps, so the queue both
    // fills (tail drops) and drains empty.
    t += i % 16 < 10 ? static_cast<std::int64_t>(gen.uniform_int(200'000))
                     : static_cast<std::int64_t>(gen.uniform_int(3'000'000));
    std::vector<std::uint8_t> bytes(64 + gen.uniform_int(1200),
                                    static_cast<std::uint8_t>(i));
    std::memcpy(bytes.data(), &i, sizeof i);
    trace.push_back({t, std::move(bytes)});
  }
  const std::int64_t end = t + 1'000'000'000;
  struct Release {
    std::int64_t at;
    std::vector<std::uint8_t> bytes;
    bool operator==(const Release&) const = default;
  };

  std::vector<bool> sim_accepted;
  std::vector<Release> sim_released;
  net::Simulator sim;
  net::SimChannel channel(sim, cfg, Rng(4242));
  channel.set_receiver([&](std::vector<std::uint8_t> frame) {
    sim_released.push_back({sim.now(), std::move(frame)});
  });
  for (const Offer& offer : trace) {
    sim.run_until(offer.at);
    sim_accepted.push_back(channel.try_send(offer.bytes));
  }
  sim.run_until(end);

  std::vector<bool> live_accepted;
  std::vector<Release> live_released;
  net::Simulator timeline;
  FramePool pool(2048, 512);
  Impairment impair(cfg, Rng(4242), timeline,
                    [&](FrameRef f, std::int64_t at) {
                      live_released.push_back(
                          {at, std::vector<std::uint8_t>(
                                   f.data(), f.data() + f.size())});
                    });
  for (const Offer& offer : trace) {
    timeline.run_until(offer.at);
    FrameRef f = pool.acquire_copy(offer.bytes);
    ASSERT_TRUE(f);
    live_accepted.push_back(impair.offer(std::move(f), offer.at));
  }
  timeline.run_until(end);

  EXPECT_EQ(live_accepted, sim_accepted);
  EXPECT_TRUE(live_released == sim_released);
  const net::ChannelStats& a = channel.stats();
  const net::ChannelStats& b = impair.stats();
  EXPECT_EQ(b.frames_offered, a.frames_offered);
  EXPECT_EQ(b.frames_queued, a.frames_queued);
  EXPECT_EQ(b.frames_dropped_queue, a.frames_dropped_queue);
  EXPECT_EQ(b.frames_dropped_loss, a.frames_dropped_loss);
  EXPECT_EQ(b.frames_dropped_outage, a.frames_dropped_outage);
  EXPECT_EQ(b.frames_delivered, a.frames_delivered);
  EXPECT_EQ(b.frames_corrupted, a.frames_corrupted);
  EXPECT_EQ(b.frames_duplicated, a.frames_duplicated);
  EXPECT_EQ(b.bytes_delivered, a.bytes_delivered);
  EXPECT_EQ(b.bytes_queued_total, a.bytes_queued_total);
  // Every knob actually fired on this trace.
  EXPECT_EQ(a.frames_offered, trace.size());
  EXPECT_GT(a.frames_dropped_queue, 0u);
  EXPECT_GT(a.frames_dropped_loss, 0u);
  EXPECT_GT(a.frames_corrupted, 0u);
  EXPECT_GT(a.frames_duplicated, 0u);
  EXPECT_EQ(sim_released.size(), a.frames_delivered);
  bool reordered = false;
  for (std::size_t i = 1; i < sim_released.size(); ++i) {
    std::uint32_t prev = 0;
    std::uint32_t cur = 0;
    std::memcpy(&prev, sim_released[i - 1].bytes.data(), sizeof prev);
    std::memcpy(&cur, sim_released[i].bytes.data(), sizeof cur);
    reordered = reordered || cur < prev;
  }
  EXPECT_TRUE(reordered) << "jitter should reorder some releases";
  EXPECT_EQ(pool.in_use(), 0u);
}

// ---------------------------------------------------------- udp channel

using FrameBatch = std::span<const std::span<const std::uint8_t>>;

/// Batch consumer that materializes each forwarded frame for comparison.
UdpChannel::BatchFn collect_into(std::vector<std::vector<std::uint8_t>>& got) {
  return [&got](FrameBatch frames) {
    for (const auto f : frames) got.emplace_back(f.begin(), f.end());
  };
}

TEST(UdpChannel, CoalescesOnBackpressureAndSplitsFramesOnReceive) {
  net::Simulator timeline;
  FramePool pool(2048, 64);
  ChannelConfig cfg;
  cfg.rate_bps = 1e12;
  UdpChannel ch(cfg, Rng(3), timeline, pool, /*rx_port=*/0, "test");
  std::vector<std::vector<std::uint8_t>> got;
  ch.set_on_batch(collect_into(got));

  std::vector<std::vector<std::uint8_t>> sent;
  for (std::uint8_t i = 1; i <= 3; ++i) {
    proto::ShareFrame frame;
    frame.packet_id = i;
    frame.k = 2;
    frame.share_index = i;
    frame.payload = std::vector<std::uint8_t>(40, i);
    sent.push_back(proto::encode(frame));
  }
  for (auto& f : sent) {
    ASSERT_TRUE(ch.try_send(std::span<const std::uint8_t>(f), 0));
  }
  timeline.run_until(1'000'000);  // all three land in the pending ring
  // Park deterministically: the first sendmmsg hits an injected EAGAIN.
  ch.tx_socket().inject_wouldblock(1);
  ch.flush(1'000'000);
  EXPECT_TRUE(ch.wants_write());
  EXPECT_EQ(ch.stats().send_wouldblock, 1u);
  ch.on_writable(1'000'000);  // kernel was never actually full
  EXPECT_FALSE(ch.wants_write());
  // All three frames fit one datagram: coalesced behind the head.
  EXPECT_EQ(ch.stats().datagrams_sent, 1u);
  EXPECT_GE(ch.stats().frames_coalesced, 2u);

  for (int spins = 0; spins < 2000 && got.size() < 3; ++spins) {
    ch.on_readable();
  }
  ASSERT_EQ(got.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(got[i], sent[i]) << "frame " << i;
  }
  EXPECT_EQ(ch.stats().frames_forwarded, 3u);
  EXPECT_EQ(ch.stats().unparsed_forwarded, 0u);
}

TEST(UdpChannel, UndecodableDatagramIsForwardedWholeForAccounting) {
  net::Simulator timeline;
  FramePool pool(2048, 40);
  ChannelConfig cfg;
  UdpChannel ch(cfg, Rng(3), timeline, pool, 0, "junk");
  std::vector<std::vector<std::uint8_t>> got;
  ch.set_on_batch(collect_into(got));

  UdpSocket attacker = UdpSocket::bound_loopback(0);
  attacker.connect_loopback(ch.rx_port());
  const std::vector<std::uint8_t> junk{'h', 'e', 'l', 'l', 'o'};
  ASSERT_EQ(test::send_one(attacker, junk), UdpSocket::IoResult::Ok);
  for (int spins = 0; spins < 2000 && got.empty(); ++spins) {
    ch.on_readable();
  }
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], junk);
  EXPECT_EQ(ch.stats().unparsed_forwarded, 1u);
  EXPECT_EQ(ch.stats().frames_forwarded, 0u);
}

/// One wire frame whose encoding is large enough that two never share a
/// 1400-byte datagram — each pending frame becomes its own datagram.
std::vector<std::uint8_t> big_frame_bytes(std::uint64_t id) {
  proto::ShareFrame frame;
  frame.packet_id = id;
  frame.k = 2;
  frame.share_index = 1;
  frame.payload = std::vector<std::uint8_t>(800, static_cast<std::uint8_t>(id));
  return proto::encode(frame);
}

TEST(UdpChannel, ShortSendmmsgRetiresTheHeadAndResendsTheTail) {
  net::Simulator timeline;
  FramePool pool(2048, 64);
  ChannelConfig cfg;
  cfg.rate_bps = 1e15;  // transparent: releases happen inside try_send
  UdpChannel ch(cfg, Rng(5), timeline, pool, 0, "short");
  // Five equal datagrams would share one segmented message; this test
  // pins the per-datagram short return, so model a kernel without it.
  ch.tx_socket().inject_no_segmentation();
  std::vector<std::vector<std::uint8_t>> got;
  ch.set_on_batch(collect_into(got));

  for (std::uint64_t i = 1; i <= 5; ++i) {
    ASSERT_TRUE(ch.try_send(
        std::span<const std::uint8_t>(big_frame_bytes(i)), 0));
  }
  // The kernel "takes" only 2 of the 5 datagrams from the first
  // sendmmsg; flush must retire exactly those and re-offer the tail in
  // a follow-up call, not drop or resend the head.
  ch.tx_socket().inject_accept_limit(2);
  ch.flush(0);
  EXPECT_EQ(ch.stats().datagrams_sent, 5u);
  EXPECT_EQ(ch.stats().sendmmsg_short, 1u);
  EXPECT_EQ(ch.syscalls_send(), 2u) << "short batch + one follow-up";
  EXPECT_FALSE(ch.wants_write());

  for (int spins = 0; spins < 5000 && got.size() < 5; ++spins) {
    ch.on_readable();
  }
  ASSERT_EQ(got.size(), 5u);
  for (std::uint64_t i = 1; i <= 5; ++i) {
    EXPECT_EQ(got[i - 1], big_frame_bytes(i)) << "frame " << i;
  }
}

TEST(UdpChannel, EagainOnSlotZeroParksTheWholeBatch) {
  net::Simulator timeline;
  FramePool pool(2048, 64);
  ChannelConfig cfg;
  cfg.rate_bps = 1e15;
  UdpChannel ch(cfg, Rng(5), timeline, pool, 0, "slot0");
  std::size_t frames_seen = 0;
  ch.set_on_batch([&](FrameBatch frames) { frames_seen += frames.size(); });

  for (std::uint64_t i = 1; i <= 4; ++i) {
    ASSERT_TRUE(ch.try_send(
        std::span<const std::uint8_t>(big_frame_bytes(i)), 0));
  }
  ch.tx_socket().inject_wouldblock(1);  // EAGAIN before any slot completes
  ch.flush(0);
  EXPECT_EQ(ch.stats().datagrams_sent, 0u);
  EXPECT_EQ(ch.stats().send_wouldblock, 1u);
  EXPECT_TRUE(ch.wants_write());
  ch.on_writable(0);
  EXPECT_EQ(ch.stats().datagrams_sent, 4u);
  EXPECT_FALSE(ch.wants_write());
}

TEST(UdpChannel, EagainMidBatchRetiresTheHeadAndParksTheTail) {
  net::Simulator timeline;
  FramePool pool(2048, 64);
  ChannelConfig cfg;
  cfg.rate_bps = 1e15;
  UdpChannel ch(cfg, Rng(5), timeline, pool, 0, "slotk");
  ch.tx_socket().inject_no_segmentation();  // one datagram per message
  ch.set_on_batch([](FrameBatch) {});

  for (std::uint64_t i = 1; i <= 5; ++i) {
    ASSERT_TRUE(ch.try_send(
        std::span<const std::uint8_t>(big_frame_bytes(i)), 0));
  }
  // sendmmsg semantics for a mid-batch EAGAIN: the call returns short
  // (the error surfaces at the head of the NEXT call). Model it as a
  // short accept followed by an injected EAGAIN.
  ch.tx_socket().inject_accept_limit(2);
  ch.tx_socket().inject_wouldblock(1);
  ch.flush(0);
  EXPECT_EQ(ch.stats().datagrams_sent, 2u) << "head must be retired";
  EXPECT_EQ(ch.stats().sendmmsg_short, 1u);
  EXPECT_EQ(ch.stats().send_wouldblock, 1u);
  EXPECT_TRUE(ch.wants_write()) << "tail parks until EPOLLOUT";
  ch.on_writable(0);
  EXPECT_EQ(ch.stats().datagrams_sent, 5u);
  EXPECT_FALSE(ch.wants_write());
}

/// A well-formed (unkeyed) share frame of exactly `bytes` on the wire.
std::vector<std::uint8_t> frame_of_size(std::uint64_t id, std::size_t bytes) {
  proto::ShareFrame frame;
  frame.packet_id = id;
  frame.k = 2;
  frame.share_index = 1;
  frame.payload.resize(bytes - proto::kHeaderSize);
  for (std::size_t i = 0; i < frame.payload.size(); ++i) {
    frame.payload[i] = static_cast<std::uint8_t>(id * 31 + i);
  }
  auto wire = proto::encode(frame);
  MCSS_ENSURE(wire.size() == bytes, "frame_of_size: unexpected overhead");
  return wire;
}

/// True when this kernel segments UDP_SEGMENT messages; tests of the
/// message layout skip elsewhere (the plain loop is covered regardless).
bool kernel_segments() {
  return UdpSocket::bound_loopback(0).max_segments() > 1;
}

/// True when this kernel delivers segmented bursts whole (UDP_GRO).
bool kernel_gro() {
  UdpSocket s = UdpSocket::bound_loopback(0);
  s.enable_receive_offload();
  return s.gro();
}

/// Offer every frame at t=0 through a transparent channel.
void offer_all(UdpChannel& ch,
               const std::vector<std::vector<std::uint8_t>>& frames) {
  for (const auto& f : frames) {
    ASSERT_TRUE(ch.try_send(std::span<const std::uint8_t>(f), 0));
  }
}

TEST(UdpChannel, SegmentedAndPlainSendsDeliverTheSameFramesInOrder) {
  // A mix that yields runs of equal datagrams, coalesced datagrams of
  // small frames, and lone odd sizes. The receiver must see the same
  // frames, in the same order, whether runs leave as segmented messages
  // or one datagram per message, and whether a segmented run arrives
  // whole (UDP_GRO) or cut back into datagrams by the kernel.
  std::vector<std::vector<std::uint8_t>> sent;
  const std::size_t sizes[] = {1494, 1494, 1494, 700, 700, 128, 128, 128,
                               1494, 1360, 1360, 1360, 1494, 90,  1494};
  std::uint64_t id = 1;
  for (int round = 0; round < 3; ++round) {
    for (const std::size_t size : sizes) sent.push_back(frame_of_size(id++, size));
  }

  const auto run = [&](bool segmentation, bool gro) {
    net::Simulator timeline;
    FramePool pool(2048, 96);
    ChannelConfig cfg;
    cfg.rate_bps = 1e15;
    UdpChannel ch(cfg, Rng(21), timeline, pool, 0, "mix");
    if (!segmentation) ch.tx_socket().inject_no_segmentation();
    if (!gro) ch.rx_socket().inject_no_gro();
    std::vector<std::vector<std::uint8_t>> got;
    ch.set_on_batch(collect_into(got));
    offer_all(ch, sent);
    ch.flush(0);
    EXPECT_FALSE(ch.wants_write());
    for (int spins = 0; spins < 5000 && got.size() < sent.size(); ++spins) {
      ch.on_readable();
    }
    EXPECT_EQ(got, sent) << (segmentation ? "segmented" : "plain")
                         << (gro ? " gro" : " kernel-cut");
    return ch.stats();
  };
  const UdpChannelStats plain = run(false, true);
  const UdpChannelStats cut = run(true, false);
  const UdpChannelStats segmented = run(true, true);
  EXPECT_EQ(plain.gso_messages, 0u);
  EXPECT_EQ(plain.gro_messages, 0u);
  EXPECT_EQ(cut.gro_messages, 0u);
  if (kernel_segments()) {
    EXPECT_GT(segmented.gso_messages, 0u);
    if (kernel_gro()) {
      // Each segmented message arrives as one entry.
      EXPECT_EQ(segmented.gro_messages, segmented.gso_messages);
      EXPECT_EQ(segmented.gro_segments, segmented.gso_segments);
    }
  }
  // Same datagrams on the wire, so the same wire counters.
  for (const UdpChannelStats& s : {cut, segmented}) {
    EXPECT_EQ(s.datagrams_sent, plain.datagrams_sent);
    EXPECT_EQ(s.bytes_sent, plain.bytes_sent);
    EXPECT_EQ(s.frames_coalesced, plain.frames_coalesced);
    EXPECT_EQ(s.datagrams_received, plain.datagrams_received);
    EXPECT_EQ(s.bytes_received, plain.bytes_received);
    EXPECT_EQ(s.frames_forwarded, plain.frames_forwarded);
    EXPECT_EQ(s.recv_truncated, 0u);
  }
  EXPECT_EQ(segmented.datagrams_received, segmented.datagrams_sent);
}

TEST(UdpChannel, DepthOneDeliversTheSameFramesOneDatagramPerSyscall) {
  // Depth is not a mode: at depth 1 the same code moves one datagram per
  // sendmmsg and takes one entry per recvmmsg. Seeded frames of mixed
  // sizes reach the receiver identical and in order at depth 1 and 32.
  Rng rng(29);
  std::vector<std::vector<std::uint8_t>> sent;
  for (std::uint64_t id = 1; id <= 60; ++id) {
    const std::size_t size = 40 + rng.uniform_int(1400 - 40 + 1);
    sent.push_back(frame_of_size(id, size));
  }

  const auto run = [&](std::size_t depth) {
    net::Simulator timeline;
    FramePool pool(2048, 96);
    ChannelConfig cfg;
    cfg.rate_bps = 1e15;
    UdpChannel ch(cfg, Rng(21), timeline, pool, 0, "depth",
                  /*max_datagram_bytes=*/1400, depth, depth);
    std::vector<std::vector<std::uint8_t>> got;
    ch.set_on_batch(collect_into(got));
    offer_all(ch, sent);
    timeline.run_until(1'000'000);
    ch.flush(1'000'000);
    EXPECT_FALSE(ch.wants_write());
    std::uint64_t drains = 0;
    for (; drains < 5000 && got.size() < sent.size(); ++drains) {
      ch.on_readable();
    }
    EXPECT_EQ(got, sent) << "depth " << depth;
    if (depth == 1) {
      EXPECT_EQ(ch.syscalls_send(), ch.stats().datagrams_sent);
      // Every drain ends on the one recvmmsg that finds the socket empty.
      EXPECT_EQ(ch.syscalls_recv(), ch.stats().datagrams_received + drains);
    }
    EXPECT_EQ(ch.stats().datagrams_received, ch.stats().datagrams_sent);
    return ch.stats();
  };
  const UdpChannelStats one = run(1);
  const UdpChannelStats deep = run(32);
  EXPECT_EQ(one.frames_forwarded, sent.size());
  EXPECT_EQ(deep.frames_forwarded, sent.size());
  EXPECT_EQ(one.gso_messages, 0u);
  EXPECT_EQ(one.gro_messages, 0u);
}

TEST(UdpChannel, ShorterDatagramEndsARunAndLongerNeverJoins) {
  if (!kernel_segments()) GTEST_SKIP() << "kernel lacks UDP_SEGMENT";
  net::Simulator timeline;
  FramePool pool(2048, 64);
  ChannelConfig cfg;
  cfg.rate_bps = 1e15;
  UdpChannel ch(cfg, Rng(23), timeline, pool, 0, "runs");
  std::vector<std::vector<std::uint8_t>> got;
  ch.set_on_batch(collect_into(got));

  // [1494, 1494, 800, 1494] -> {1494, 1494, 800} and {1494}: the 800 B
  // datagram is the first run's short tail, and the 1494 after it
  // starts a new message.
  const std::vector<std::vector<std::uint8_t>> sent = {
      frame_of_size(1, 1494), frame_of_size(2, 1494), frame_of_size(3, 800),
      frame_of_size(4, 1494)};
  offer_all(ch, sent);
  // Send only the head message, then park the tail: the counters then
  // show exactly what the head message carried.
  ch.tx_socket().inject_accept_limit(1);
  ch.tx_socket().inject_wouldblock(1);
  ch.flush(0);
  EXPECT_EQ(ch.syscalls_send(), 1u);
  EXPECT_EQ(ch.stats().datagrams_sent, 3u);
  EXPECT_EQ(ch.stats().bytes_sent, 1494u + 1494u + 800u);
  EXPECT_EQ(ch.stats().gso_messages, 1u);
  EXPECT_EQ(ch.stats().gso_segments, 3u);
  EXPECT_TRUE(ch.wants_write());
  ch.on_writable(0);
  EXPECT_EQ(ch.stats().datagrams_sent, 4u);
  EXPECT_EQ(ch.stats().gso_messages, 1u) << "{1494} is a plain datagram";

  // [800, 1494, 1494]: a longer datagram never joins the 800 B run.
  const std::vector<std::vector<std::uint8_t>> more = {
      frame_of_size(5, 800), frame_of_size(6, 1494), frame_of_size(7, 1494)};
  offer_all(ch, more);
  ch.tx_socket().inject_accept_limit(1);
  ch.flush(0);
  EXPECT_EQ(ch.stats().datagrams_sent, 7u);
  EXPECT_EQ(ch.stats().sendmmsg_short, 2u);
  EXPECT_EQ(ch.stats().gso_messages, 2u);
  EXPECT_EQ(ch.stats().gso_segments, 5u) << "{800} then {1494, 1494}";

  for (int spins = 0; spins < 5000 && got.size() < 7; ++spins) {
    ch.on_readable();
  }
  // The kernel cut every message at the coalescer's boundaries.
  EXPECT_EQ(ch.stats().datagrams_received, 7u);
  ASSERT_EQ(got.size(), 7u);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(got[i], sent[i]);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(got[4 + i], more[i]);
}

TEST(UdpChannel, SegmentedRunsStopAt64Segments65507BytesAndIovMax) {
  if (!kernel_segments()) GTEST_SKIP() << "kernel lacks UDP_SEGMENT";
  // `count` frames of `bytes` coalesced into datagrams of at most
  // `datagram` bytes, all built for one sendmmsg (send_batch exceeds the
  // frame count, so release() never flushes early).
  const auto send_equal = [](std::size_t bytes, std::size_t count,
                             std::size_t datagram) {
    net::Simulator timeline;
    FramePool pool(2048, count + 40);
    ChannelConfig cfg;
    cfg.rate_bps = 1e15;
    UdpChannel ch(cfg, Rng(25), timeline, pool, 0, "caps", datagram,
                  /*send_batch=*/count + 1, /*recv_batch=*/32);
    ch.set_on_batch([](FrameBatch) {});
    for (std::uint64_t i = 1; i <= count; ++i) {
      EXPECT_TRUE(ch.try_send(
          std::span<const std::uint8_t>(frame_of_size(i, bytes)), 0));
    }
    ch.flush(0);
    EXPECT_EQ(ch.syscalls_send(), 1u);
    EXPECT_EQ(ch.stats().send_errors, 0u);
    EXPECT_EQ(ch.stats().datagrams_sent, ch.stats().gso_segments);
    return ch.stats();
  };
  // 100 x 200 B, one per datagram: the segment cap splits the run 64 + 36.
  const UdpChannelStats small = send_equal(200, 100, 200);
  EXPECT_EQ(small.gso_messages, 2u);
  EXPECT_EQ(small.gso_segments, 100u);
  // 100 x 1400 B: 46 segments is the most under 65507 bytes, so 46 + 46 + 8.
  const UdpChannelStats large = send_equal(1400, 100, 1400);
  EXPECT_EQ(large.gso_messages, 3u);
  EXPECT_EQ(large.gso_segments, 100u);
  // 1120 x 40 B, 35 per datagram: 32 datagrams would gather 1120 iovecs,
  // past IOV_MAX (1024), so the run splits 29 + 3.
  const UdpChannelStats tiny = send_equal(40, 1120, 1400);
  EXPECT_EQ(tiny.datagrams_sent, 32u);
  EXPECT_EQ(tiny.gso_messages, 2u);
}

TEST(UdpChannel, SendBatchHistogramCountsWireDatagrams) {
  // Five equal datagrams leave as one segmented message where the
  // kernel supports it; the histogram must still read five datagrams
  // for that sendmmsg, not one message.
  const bool was = obs::metrics_enabled();
  obs::set_metrics_enabled(true);
  const auto batch_hist = [] {
    for (const auto& h : obs::Registry::global().snapshot().histograms) {
      if (h.name == "mcss_transport_send_batch_datagrams") {
        return std::pair{h.count, h.sum};
      }
    }
    return std::pair{std::uint64_t{0}, 0.0};
  };
  net::Simulator timeline;
  FramePool pool(2048, 64);
  ChannelConfig cfg;
  cfg.rate_bps = 1e15;
  UdpChannel ch(cfg, Rng(29), timeline, pool, 0, "hist");
  ch.set_on_batch([](FrameBatch) {});
  for (std::uint64_t i = 1; i <= 5; ++i) {
    ASSERT_TRUE(ch.try_send(
        std::span<const std::uint8_t>(frame_of_size(i, 1494)), 0));
  }
  const auto before = batch_hist();
  ch.flush(0);
  const auto after = batch_hist();
  obs::set_metrics_enabled(was);
  EXPECT_EQ(ch.syscalls_send(), 1u);
  EXPECT_EQ(after.first - before.first, 1u) << "one sendmmsg";
  EXPECT_EQ(after.second - before.second, 5.0) << "five wire datagrams";
}

TEST(UdpChannel, RefusedHeadMessageRetiresOnlyItsFrames) {
  if (!kernel_segments()) GTEST_SKIP() << "kernel lacks UDP_SEGMENT";
  net::Simulator timeline;
  FramePool pool(2048, 64);
  ChannelConfig cfg;
  cfg.rate_bps = 1e15;
  UdpChannel ch(cfg, Rng(27), timeline, pool, 0, "refused");
  // Close the receiver: the next datagram draws an ICMP port
  // unreachable, which the kernel charges to the following send.
  ch.rx_socket() = UdpSocket();
  ASSERT_TRUE(ch.try_send(
      std::span<const std::uint8_t>(frame_of_size(1, 600)), 0));
  ch.flush(0);
  ASSERT_EQ(ch.stats().datagrams_sent, 1u);
  pollfd pfd{ch.tx_fd(), POLLOUT, 0};
  ASSERT_EQ(::poll(&pfd, 1, 1000), 1);
  ASSERT_NE(pfd.revents & POLLERR, 0) << "no ICMP error pending";

  // {1000 x3} then {1200 x2}: the refusal lands on the head message.
  for (std::uint64_t i = 2; i <= 4; ++i) {
    ASSERT_TRUE(ch.try_send(
        std::span<const std::uint8_t>(frame_of_size(i, 1000)), 0));
  }
  for (std::uint64_t i = 5; i <= 6; ++i) {
    ASSERT_TRUE(ch.try_send(
        std::span<const std::uint8_t>(frame_of_size(i, 1200)), 0));
  }
  ch.flush(0);
  EXPECT_EQ(ch.stats().send_refused, 1u);
  EXPECT_EQ(ch.stats().datagrams_sent, 3u) << "the head's 3 frames are lost";
  EXPECT_EQ(ch.stats().gso_messages, 1u);
  EXPECT_EQ(ch.stats().gso_segments, 2u);
  EXPECT_FALSE(ch.wants_write());
  EXPECT_EQ(ch.stats().send_errors, 0u);
}

/// Send `pieces`, back to back, from `peer` as ONE UDP_SEGMENT message
/// the kernel cuts every `segment_bytes`.
void send_burst(UdpSocket& peer,
                const std::vector<std::vector<std::uint8_t>>& pieces,
                std::size_t segment_bytes) {
  std::vector<iovec> iovs;
  for (const auto& p : pieces) {
    iovs.push_back({const_cast<std::uint8_t*>(p.data()), p.size()});
  }
  mmsghdr msg{};
  msg.msg_hdr.msg_iov = iovs.data();
  msg.msg_hdr.msg_iovlen = iovs.size();
  UdpSocket::SegmentCmsg control{};
  UdpSocket::set_segment_size(msg.msg_hdr, control,
                              static_cast<std::uint16_t>(segment_bytes));
  const auto sent = peer.send_many({&msg, 1});
  ASSERT_EQ(sent.result, UdpSocket::IoResult::Ok);
  ASSERT_EQ(sent.completed, 1u);
}

TEST(UdpChannel, GarbageSegmentInABurstCountsAsWithoutGro) {
  if (!kernel_segments()) GTEST_SKIP() << "kernel lacks UDP_SEGMENT";
  // Segments of 600 B: {f1 f2} {garbage} {f3 f4} {f5}. The garbage
  // segment goes up whole as one unparsed tail, and the segments after
  // it still parse, whether the kernel or the channel cuts the burst.
  const std::vector<std::vector<std::uint8_t>> pieces = {
      frame_of_size(1, 300), frame_of_size(2, 300),
      std::vector<std::uint8_t>(600, 0xEE),
      frame_of_size(3, 300), frame_of_size(4, 300), frame_of_size(5, 300)};
  const auto run = [&](bool gro) {
    net::Simulator timeline;
    FramePool pool(2048, 64);
    ChannelConfig cfg;
    UdpChannel ch(cfg, Rng(33), timeline, pool, 0, "hostile");
    if (!gro) ch.rx_socket().inject_no_gro();
    std::vector<std::vector<std::uint8_t>> got;
    ch.set_on_batch(collect_into(got));
    UdpSocket peer = UdpSocket::bound_loopback(0);
    peer.connect_loopback(ch.rx_port());
    send_burst(peer, pieces, 600);
    for (int spins = 0; spins < 5000 && got.size() < pieces.size(); ++spins) {
      ch.on_readable();
    }
    EXPECT_EQ(got, pieces) << (gro ? "gro" : "kernel-segmented");
    return ch.stats();
  };
  const UdpChannelStats off = run(false);
  const UdpChannelStats on = run(true);
  for (const UdpChannelStats& s : {off, on}) {
    EXPECT_EQ(s.frames_forwarded, 5u);
    EXPECT_EQ(s.unparsed_forwarded, 1u);
    EXPECT_EQ(s.datagrams_received, 4u);
    EXPECT_EQ(s.bytes_received, 2100u);
  }
  EXPECT_EQ(off.gro_messages, 0u);
  if (kernel_gro()) {
    EXPECT_EQ(on.gro_messages, 1u);
    EXPECT_EQ(on.gro_segments, 4u);
  }
}

TEST(UdpChannel, Largest64SegmentBurstsAreReceivedWhole) {
  if (!kernel_segments() || !kernel_gro()) {
    GTEST_SKIP() << "kernel lacks UDP_SEGMENT or UDP_GRO";
  }
  // Each burst is sent alone and must come up whole and untruncated:
  // `entries` GRO entries holding its 64 segments.
  const auto receive_burst = [](const auto& pieces, std::size_t segment_bytes) {
    net::Simulator timeline;
    FramePool pool(2048, 64);
    ChannelConfig cfg;
    UdpChannel ch(cfg, Rng(35), timeline, pool, 0, "largest");
    std::vector<std::vector<std::uint8_t>> got;
    ch.set_on_batch(collect_into(got));
    UdpSocket peer = UdpSocket::bound_loopback(0);
    peer.connect_loopback(ch.rx_port());
    send_burst(peer, pieces, segment_bytes);
    for (int spins = 0; spins < 5000 && got.size() < pieces.size(); ++spins) {
      ch.on_readable();
    }
    EXPECT_EQ(got, pieces);
    EXPECT_EQ(ch.stats().recv_truncated, 0u);
    EXPECT_EQ(ch.stats().datagrams_received, 64u);
    return ch.stats();
  };
  // 64 x 1023 B = 65472 bytes: one entry.
  std::vector<std::vector<std::uint8_t>> fits;
  for (std::uint64_t i = 1; i <= 64; ++i) {
    fits.push_back(frame_of_size(i, 1023));
  }
  const UdpChannelStats one = receive_burst(fits, 1023);
  EXPECT_EQ(one.gro_messages, 1u);
  EXPECT_EQ(one.gro_segments, 64u);
  EXPECT_EQ(one.bytes_received, 65472u);
  // 63 x 1024 B + 995 B = 65507 bytes, the most one message may carry.
  // Loopback's 64 KiB GSO limit counts the link, IP and UDP headers, so
  // its kernel cuts bursts over 65493 bytes on send; elsewhere the burst
  // may arrive as one entry. Either way it comes up whole.
  std::vector<std::vector<std::uint8_t>> largest;
  for (std::uint64_t i = 1; i <= 63; ++i) {
    largest.push_back(frame_of_size(i, 1024));
  }
  largest.push_back(frame_of_size(64, 995));
  const UdpChannelStats most = receive_burst(largest, 1024);
  EXPECT_EQ(most.bytes_received, UdpSocket::kMaxMessageBytes);
  EXPECT_EQ(most.gro_segments, 64 * most.gro_messages);
}

TEST(UdpChannel, RecvBatchHistogramCountsWireDatagrams) {
  // Five equal datagrams arrive as one GRO entry where the kernel takes
  // UDP_GRO; the histogram must still read five datagrams for that
  // recvmmsg, as the send side does.
  const bool was = obs::metrics_enabled();
  obs::set_metrics_enabled(true);
  const auto batch_hist = [] {
    for (const auto& h : obs::Registry::global().snapshot().histograms) {
      if (h.name == "mcss_transport_recv_batch_datagrams") {
        return std::pair{h.count, h.sum};
      }
    }
    return std::pair{std::uint64_t{0}, 0.0};
  };
  net::Simulator timeline;
  FramePool pool(2048, 64);
  ChannelConfig cfg;
  cfg.rate_bps = 1e15;
  UdpChannel ch(cfg, Rng(39), timeline, pool, 0, "rxhist");
  std::size_t frames_seen = 0;
  ch.set_on_batch([&](FrameBatch frames) { frames_seen += frames.size(); });
  for (std::uint64_t i = 1; i <= 5; ++i) {
    ASSERT_TRUE(ch.try_send(
        std::span<const std::uint8_t>(frame_of_size(i, 1494)), 0));
  }
  ch.flush(0);
  const auto before = batch_hist();
  for (int spins = 0; spins < 5000 && frames_seen < 5; ++spins) {
    ch.on_readable();
  }
  const auto after = batch_hist();
  obs::set_metrics_enabled(was);
  ASSERT_EQ(frames_seen, 5u);
  EXPECT_EQ(after.second - before.second, 5.0) << "five wire datagrams";
  if (kernel_segments() && kernel_gro()) {
    EXPECT_EQ(after.first - before.first, 1u) << "one recvmmsg";
  }
}

TEST(UdpChannel, KernelDropCountMatchesWhatTheSocketLost) {
  net::Simulator timeline;
  FramePool pool(2048, 128);
  ChannelConfig cfg;
  cfg.rate_bps = 1e15;
  UdpChannel ch(cfg, Rng(37), timeline, pool, 0, "drops");
  // One datagram per message, into the smallest receive buffer the
  // kernel allows: most of a 64-datagram burst cannot be queued.
  ch.tx_socket().inject_no_segmentation();
  ch.rx_socket().set_recv_buffer(1);
  ch.set_on_batch([](FrameBatch) {});
  for (std::uint64_t i = 1; i <= 64; ++i) {
    ASSERT_TRUE(ch.try_send(
        std::span<const std::uint8_t>(big_frame_bytes(i)), 0));
  }
  ch.flush(0);
  ASSERT_EQ(ch.stats().datagrams_sent, 64u);
  for (int spins = 0; spins < 10; ++spins) ch.on_readable();
  // The kernel stamps its drop count on datagrams queued after the
  // drops, so one more datagram carries the total.
  const std::uint64_t before = ch.stats().datagrams_received;
  ASSERT_TRUE(ch.try_send(
      std::span<const std::uint8_t>(big_frame_bytes(65)), 0));
  ch.flush(0);
  for (int spins = 0; spins < 5000 && ch.stats().datagrams_received == before;
       ++spins) {
    ch.on_readable();
  }
  const UdpChannelStats& s = ch.stats();
  ASSERT_EQ(s.datagrams_received, before + 1);
  EXPECT_GT(s.recv_kernel_drops, 0u);
  EXPECT_EQ(s.recv_kernel_drops, s.datagrams_sent - s.datagrams_received);
}

TEST(UdpChannel, RecvmmsgDrainsBurstsLargerThanTheBatch) {
  net::Simulator timeline;
  FramePool pool(2048, 32);
  ChannelConfig cfg;
  UdpChannel ch(cfg, Rng(7), timeline, pool, 0, "burst", 1400,
                /*send_batch=*/32, /*recv_batch=*/4);
  std::vector<std::vector<std::uint8_t>> got;
  std::size_t batches = 0;
  ch.set_on_batch([&, collect = collect_into(got)](FrameBatch frames) {
    ++batches;
    collect(frames);
  });

  UdpSocket peer = UdpSocket::bound_loopback(0);
  peer.connect_loopback(ch.rx_port());
  for (std::uint64_t i = 1; i <= 10; ++i) {
    ASSERT_EQ(test::send_one(peer, big_frame_bytes(i)),
              UdpSocket::IoResult::Ok);
  }
  for (int spins = 0; spins < 5000 && got.size() < 10; ++spins) {
    ch.on_readable();
  }
  ASSERT_EQ(got.size(), 10u);
  EXPECT_EQ(ch.stats().datagrams_received, 10u);
  EXPECT_EQ(ch.stats().frames_forwarded, 10u);
  // 10 datagrams through 4-deep recvmmsg: at least three kernel visits,
  // far fewer than the 10 a depth-1 channel would make.
  EXPECT_GE(ch.syscalls_recv(), 3u);
  // One callback per recvmmsg that returned datagrams, not one per frame.
  EXPECT_GE(batches, 3u);
  EXPECT_LE(batches, ch.syscalls_recv());
}

TEST(UdpChannel, PoolExhaustionUnderStormDegradesToDropWithStat) {
  net::Simulator timeline;
  // 6 slots, all for TX: the channel receives into its own entries.
  FramePool pool(2048, 6);
  ChannelConfig cfg;
  cfg.rate_bps = 1e15;
  UdpChannel ch(cfg, Rng(9), timeline, pool, 0, "storm", 1400,
                /*send_batch=*/32, /*recv_batch=*/2);
  ch.set_on_batch([](FrameBatch) {});
  EXPECT_EQ(pool.available(), 6u);

  const auto frame = big_frame_bytes(1);
  std::size_t accepted = 0;
  for (int i = 0; i < 10; ++i) {
    if (ch.try_send(std::span<const std::uint8_t>(frame), 0)) ++accepted;
  }
  EXPECT_EQ(accepted, 6u) << "exactly the free slots";
  EXPECT_EQ(ch.stats().frames_dropped_pool, 4u);
  EXPECT_EQ(pool.stats().exhausted, 4u);
  EXPECT_EQ(pool.available(), 0u);

  // Flushing returns the slots; the channel recovers without help.
  ch.flush(0);
  EXPECT_EQ(ch.stats().datagrams_sent, 6u);
  EXPECT_EQ(pool.available(), 6u);
  EXPECT_TRUE(ch.try_send(std::span<const std::uint8_t>(frame), 0));
}

TEST(UdpChannel, WholeBatchDepartureKeepsPerFrameReleaseStamps) {
  net::Simulator timeline;
  FramePool pool(2048, 40);  // TX slots; receives use the channel's entries
  ChannelConfig cfg;
  cfg.rate_bps = 8e6;  // 1000 bytes = 1 ms on the serializer
  UdpChannel ch(cfg, Rng(11), timeline, pool, 0, "stamps");
  ch.set_on_batch([](FrameBatch) {});

  for (std::uint8_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(ch.try_send(make_frame(pool, 1000, i), 0));
  }
  timeline.run_until(10'000'000);  // serializer releases at 1, 2, 3 ms
  ch.flush(10'000'000);
  // 1000-byte frames do not share a 1400-byte datagram: three datagrams,
  // ONE sendmmsg — yet each retired frame keeps the release stamp the
  // serializer gave it, not one smeared batch-departure time.
  EXPECT_EQ(ch.stats().datagrams_sent, 3u);
  EXPECT_EQ(ch.syscalls_send(), 1u);
  const auto stamps = ch.last_flush_release_ns();
  ASSERT_EQ(stamps.size(), 3u);
  EXPECT_EQ(stamps[0], 1'000'000);
  EXPECT_EQ(stamps[1], 2'000'000);
  EXPECT_EQ(stamps[2], 3'000'000);
}

TEST(UdpChannel, SteadyStateFastPathDoesNotAllocateAfterWarmup) {
  net::Simulator timeline;
  FramePool pool(2048, 80);
  ChannelConfig cfg;
  cfg.rate_bps = 1e15;  // transparent channel: no timeline, no closures
  UdpChannel ch(cfg, Rng(13), timeline, pool, 0, "hot");
  std::size_t frames_seen = 0;
  ch.set_on_batch(
      [&frames_seen](FrameBatch frames) { frames_seen += frames.size(); });
  const auto frame = big_frame_bytes(42);

  // One round = stage 8 frames into pool slots, one sendmmsg out, drain
  // the RX socket through the channel's recvmmsg entries.
  const auto round = [&](std::int64_t t, std::size_t expect_seen) {
    for (int i = 0; i < 8; ++i) {
      (void)ch.try_send(std::span<const std::uint8_t>(frame), t);
    }
    ch.flush(t);
    for (int spins = 0; spins < 200000 && frames_seen < expect_seen;
         ++spins) {
      ch.on_readable();
    }
  };

  for (int r = 0; r < 3; ++r) {  // warmup: pools, freelists, socket bufs
    round(r * 1'000'000, static_cast<std::size_t>(r + 1) * 8);
  }
  ASSERT_EQ(frames_seen, 24u);

  g_allocs.store(0);
  g_count_allocs.store(true);
  for (int r = 3; r < 8; ++r) {
    round(r * 1'000'000, static_cast<std::size_t>(r + 1) * 8);
  }
  g_count_allocs.store(false);
  ASSERT_EQ(frames_seen, 64u);
  EXPECT_EQ(g_allocs.load(), 0u)
      << "the warmed-up pool/batch/split path must never touch the heap";
}

TEST(UdpChannel, WarmImpairedSendDepartReleaseDoesNotAllocate) {
  // A rate-limited, delayed and jittered channel holds every frame in
  // its serializer FIFO and delay line with one armed timeline event per
  // stage (a closure over `this` only). Once warm, try_send -> depart ->
  // release -> sendmmsg touches the heap for nothing.
  net::Simulator timeline;
  FramePool pool(2048, 256);
  ChannelConfig cfg;
  cfg.rate_bps = 50e6;  // 16 frames of ~830 B take ~2.1 ms to serialize
  cfg.delay = 2'000'000;
  cfg.jitter = 1'000'000;
  cfg.queue_capacity_bytes = 256 * 1024;
  UdpChannel ch(cfg, Rng(21), timeline, pool, 0, "impaired");
  std::size_t frames_seen = 0;
  ch.set_on_batch(
      [&frames_seen](FrameBatch frames) { frames_seen += frames.size(); });
  const auto frame = big_frame_bytes(7);

  // One round = 16 frames offered at once, the timeline stepped like a
  // live loop (flushing each step) until all have been released, then
  // the RX socket drained.
  constexpr std::int64_t kRound = 6'000'000;
  const auto round = [&](int r) {
    const std::int64_t t0 = r * kRound;
    for (int i = 0; i < 16; ++i) {
      ASSERT_TRUE(ch.try_send(std::span<const std::uint8_t>(frame), t0));
    }
    for (std::int64_t t = t0; t < t0 + kRound; t += 250'000) {
      timeline.run_until(t);
      ch.flush(t);
    }
    const auto expect = static_cast<std::size_t>(r + 1) * 16;
    for (int spins = 0; spins < 200000 && frames_seen < expect; ++spins) {
      ch.on_readable();
    }
    ASSERT_EQ(frames_seen, expect);
  };

  for (int r = 0; r < 4; ++r) round(r);  // warmup: rings, heaps, buffers
  g_allocs.store(0);
  g_count_allocs.store(true);
  for (int r = 4; r < 10; ++r) round(r);
  g_count_allocs.store(false);
  EXPECT_EQ(g_allocs.load(), 0u)
      << "a warm impaired channel must not allocate per share";
  EXPECT_EQ(ch.impair_stats().frames_delivered, 160u);
}

TEST(Receiver, ArenaReassemblyAppendsDoNotAllocate) {
  // Regression (ISSUE 7): partials used to heap-allocate a vector per
  // appended share. With an arena, the partial lives in one pool slot
  // (k index bytes + k share regions) and appends are a byte write plus
  // a memcpy — zero heap traffic.
  net::Simulator sim;
  FramePool pool(4096, 16);
  proto::ReceiverConfig rc;
  rc.arena = &pool;
  proto::Receiver receiver(sim, rc);

  // k = 8 shares of 256 bytes: 8 * (1 + 256) = 2056 bytes, fits a slot.
  Rng rng(7);
  std::vector<std::uint8_t> secret(256);
  rng.fill(secret);
  const auto shares = sss::split(secret, 8, 8, rng);
  std::vector<std::vector<std::uint8_t>> frames;
  for (const auto& s : shares) {
    proto::ShareFrame f;
    f.packet_id = 1;
    f.k = 8;
    f.share_index = s.index;
    f.payload = s.data;
    frames.push_back(proto::encode(f));
  }

  std::vector<std::uint8_t> delivered;
  receiver.set_deliver([&](std::uint64_t, std::vector<std::uint8_t> p) {
    delivered = std::move(p);
  });

  // First share creates the partial (map node, order node, slot acquire
  // — the "warmup" for this packet).
  receiver.on_frame(std::span<const std::uint8_t>(frames[0]));
  ASSERT_EQ(receiver.stats().partials_in_arena, 1u);
  ASSERT_EQ(receiver.stats().partials_on_heap, 0u);
  ASSERT_EQ(pool.in_use(), 1u);

  g_allocs.store(0);
  g_count_allocs.store(true);
  for (std::size_t i = 1; i < 7; ++i) {  // appends only; completion is separate
    receiver.on_frame(std::span<const std::uint8_t>(frames[i]));
  }
  g_count_allocs.store(false);
  EXPECT_EQ(g_allocs.load(), 0u)
      << "arena-backed reassembly appends must never touch the heap";
  EXPECT_EQ(receiver.pending_packets(), 1u);

  // The k-th share completes the packet and releases the slot.
  receiver.on_frame(std::span<const std::uint8_t>(frames[7]));
  EXPECT_EQ(delivered, secret);
  EXPECT_EQ(receiver.stats().packets_delivered, 1u);
  EXPECT_EQ(pool.in_use(), 0u);
}

TEST(Receiver, OversizePartialFallsBackToHeapAndStillDelivers) {
  // A partial that cannot fit one slot (k * (1 + share_size) too big)
  // degrades to a heap buffer — a policy change, never a drop. Same for
  // pool exhaustion.
  net::Simulator sim;
  FramePool pool(512, 2);  // 3 * (1 + 256) = 771 > 512 -> heap
  proto::ReceiverConfig rc;
  rc.arena = &pool;
  proto::Receiver receiver(sim, rc);

  Rng rng(11);
  std::vector<std::uint8_t> secret(256);
  rng.fill(secret);
  const auto shares = sss::split(secret, 3, 3, rng);

  std::vector<std::uint8_t> delivered;
  receiver.set_deliver([&](std::uint64_t, std::vector<std::uint8_t> p) {
    delivered = std::move(p);
  });
  for (const auto& s : shares) {
    proto::ShareFrame f;
    f.packet_id = 9;
    f.k = 3;
    f.share_index = s.index;
    f.payload = s.data;
    const auto bytes = proto::encode(f);
    receiver.on_frame(std::span<const std::uint8_t>(bytes));
  }
  EXPECT_EQ(delivered, secret);
  EXPECT_EQ(receiver.stats().partials_on_heap, 1u);
  EXPECT_EQ(receiver.stats().partials_in_arena, 0u);
  EXPECT_EQ(pool.in_use(), 0u);

  // Exhaustion: tiny pool with every slot taken -> heap fallback too.
  FrameRef hog1 = pool.acquire();
  FrameRef hog2 = pool.acquire();
  ASSERT_TRUE(hog1);
  ASSERT_TRUE(hog2);
  proto::ShareFrame small;
  small.packet_id = 10;
  small.k = 2;
  small.share_index = 1;
  small.payload = {1, 2, 3, 4};
  const auto bytes = proto::encode(small);
  receiver.on_frame(std::span<const std::uint8_t>(bytes));
  EXPECT_EQ(receiver.pending_packets(), 1u);
  EXPECT_EQ(receiver.stats().partials_on_heap, 2u);
}

TEST(Receiver, ForgedHugePartialTakesOnlyTheHeapItsBytesNeed) {
  // One frame claims k = 255 shares of 65,535 bytes. The memory cap
  // counts only bytes that arrived, so the heap buffer must grow with
  // them: reserving the whole partial (k * share_size, about 16 MiB)
  // up front would sit outside the cap.
  net::Simulator sim;
  proto::Receiver receiver(sim);  // no arena: every partial on the heap
  proto::ShareFrame f;
  f.packet_id = 1;
  f.k = 255;
  f.share_index = 1;
  f.payload.assign(proto::kMaxPayload, 0x5A);
  const auto bytes = proto::encode(f);

  g_alloc_bytes.store(0);
  g_count_allocs.store(true);
  receiver.on_frame(std::span<const std::uint8_t>(bytes));
  g_count_allocs.store(false);
  ASSERT_EQ(receiver.pending_packets(), 1u);
  ASSERT_EQ(receiver.buffered_bytes(), proto::kMaxPayload);
  EXPECT_EQ(receiver.stats().partials_on_heap, 1u);
  // 2x the bytes received plus the k index bytes, and 4 KiB for the
  // partial's table node, the table's buckets and its timer entry.
  EXPECT_LE(g_alloc_bytes.load(), 2 * proto::kMaxPayload + 255 + 4096);
}

}  // namespace
}  // namespace mcss::transport
