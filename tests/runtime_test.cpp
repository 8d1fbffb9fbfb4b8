// Tests for the deterministic parallel sweep substrate (src/runtime):
// ordered commits, full index coverage, the sequential fallback paths,
// exception propagation, bitwise determinism across thread counts, and
// the lockstep Team's member pinning, barrier and error handling.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "runtime/parallel.hpp"
#include "runtime/thread_pool.hpp"
#include "util/rng.hpp"

namespace mcss::runtime {
namespace {

/// Restores the thread override on scope exit so tests do not leak their
/// parallelism setting into each other.
struct ThreadGuard {
  explicit ThreadGuard(unsigned n) { set_threads(n); }
  ~ThreadGuard() { set_threads(1); }
};

TEST(ThreadPool, DestructionDrainsTheQueue) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(3);
    EXPECT_EQ(pool.size(), 3u);
    for (int i = 0; i < 100; ++i) {
      pool.submit([&ran] { ++ran; });
    }
  }  // joins after running every queued task
  EXPECT_EQ(ran.load(), 100);
}

TEST(ThreadPool, OnWorkerIsTrueOnlyOnPoolThreads) {
  EXPECT_FALSE(ThreadPool::on_worker());
  ThreadPool pool(1);
  std::atomic<bool> seen{false};
  std::atomic<bool> value{false};
  pool.submit([&] {
    value = ThreadPool::on_worker();
    seen = true;
  });
  while (!seen.load()) std::this_thread::yield();
  EXPECT_TRUE(value.load());
  EXPECT_FALSE(ThreadPool::on_worker());
}

TEST(ForEachOrdered, CommitsEveryIndexInOrder) {
  ThreadGuard guard(4);
  const std::size_t n = 200;
  std::vector<std::size_t> committed;
  for_each_ordered(
      n, [](std::size_t i) { return i * i; },
      [&](std::size_t i, std::size_t value) {
        EXPECT_EQ(value, i * i);
        committed.push_back(i);
      });
  ASSERT_EQ(committed.size(), n);
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(committed[i], i);
}

TEST(ForEachOrdered, CommitRunsOnCallingThread) {
  ThreadGuard guard(4);
  const auto caller = std::this_thread::get_id();
  for_each_ordered(
      64, [](std::size_t i) { return i; },
      [&](std::size_t, std::size_t) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
      });
}

TEST(ForEachOrdered, SingleThreadUsesInlineSequentialPath) {
  ThreadGuard guard(1);
  const auto caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  for_each_ordered(
      10,
      [&](std::size_t i) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        return i + 1;
      },
      [&](std::size_t i, std::size_t value) {
        EXPECT_EQ(value, i + 1);
        order.push_back(i);
      });
  EXPECT_EQ(order.size(), 10u);
  EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
}

TEST(ForEachOrdered, DeterministicAcrossThreadCounts) {
  // Every index owns its own seeded Rng — the sweep-point pattern. The
  // committed sequence must be identical for 1 and 8 threads.
  const auto run = [](unsigned threads) {
    ThreadGuard guard(threads);
    std::string transcript;
    for_each_ordered(
        50,
        [](std::size_t i) {
          Rng rng(1000 + static_cast<std::uint64_t>(i));
          return rng();
        },
        [&](std::size_t i, std::uint64_t v) {
          transcript += std::to_string(i) + ":" + std::to_string(v) + "\n";
        });
    return transcript;
  };
  EXPECT_EQ(run(1), run(8));
}

TEST(ForEachOrdered, ComputeExceptionPropagatesToCaller) {
  ThreadGuard guard(4);
  EXPECT_THROW(
      for_each_ordered(
          100,
          [](std::size_t i) -> int {
            if (i == 37) throw std::runtime_error("boom");
            return 0;
          },
          [](std::size_t, int) {}),
      std::runtime_error);
}

TEST(ForEachOrdered, CommitExceptionPropagatesToCaller) {
  ThreadGuard guard(4);
  std::size_t committed = 0;
  EXPECT_THROW(for_each_ordered(
                   100, [](std::size_t i) { return i; },
                   [&](std::size_t, std::size_t) {
                     if (++committed == 5) throw std::runtime_error("stop");
                   }),
               std::runtime_error);
  EXPECT_EQ(committed, 5u);
}

TEST(ForEachOrdered, NestedCallDegradesToSequential) {
  ThreadGuard guard(4);
  std::atomic<std::size_t> total{0};
  for_each_ordered(
      8,
      [&](std::size_t) {
        // Inside a pool worker the nested helper must not deadlock on
        // the same pool; it runs inline instead.
        std::size_t local = 0;
        for_each_ordered(
            4, [](std::size_t j) { return j; },
            [&](std::size_t, std::size_t v) { local += v; });
        return local;
      },
      [&](std::size_t, std::size_t v) { total += v; });
  EXPECT_EQ(total.load(), 8u * (0 + 1 + 2 + 3));
}

TEST(ForEachOrdered, SharedPoolTakesALaterWiderThreadCount) {
  // The shared pool is created by the first parallel loop, here at two
  // threads. A later, wider setting must still get its width: as many
  // pumps as the host has cores (up to four) must run at once, which a
  // pool sized at two would never allow — each pump would block in its
  // compute until the deadline.
  const unsigned parties =
      std::clamp(std::thread::hardware_concurrency(), 2u, 4u);
  ThreadGuard guard(2);
  for_each_ordered(
      8, [](std::size_t i) { return i; }, [](std::size_t, std::size_t) {});
  set_threads(parties);
  std::atomic<unsigned> arrived{0};
  std::vector<bool> met;
  for_each_ordered(
      parties,
      [&](std::size_t) {
        ++arrived;
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(5);
        while (arrived.load() < parties &&
               std::chrono::steady_clock::now() < deadline) {
          std::this_thread::yield();
        }
        return arrived.load() >= parties;
      },
      [&](std::size_t, bool all) { met.push_back(all); });
  ASSERT_EQ(met.size(), parties);
  for (const bool all : met) EXPECT_TRUE(all);
}

TEST(Team, IndexRunsOnTheSameMemberEveryRun) {
  Team team(3);
  EXPECT_EQ(team.size(), 3u);
  const std::size_t n = 10;
  std::vector<std::thread::id> first(n);
  team.run(n, [&](std::size_t i) { first[i] = std::this_thread::get_id(); });
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(first[i], first[i % 3]) << "index " << i;
  }
  EXPECT_EQ(first[0], std::this_thread::get_id());  // member 0 = caller
  EXPECT_NE(first[1], first[0]);
  EXPECT_NE(first[2], first[0]);
  EXPECT_NE(first[2], first[1]);
  for (int round = 0; round < 50; ++round) {
    std::vector<std::thread::id> again(n);
    team.run(n, [&](std::size_t i) { again[i] = std::this_thread::get_id(); });
    EXPECT_EQ(again, first);
  }
}

TEST(Team, OnWorkerIsTrueInEveryShareIncludingTheCaller) {
  Team team(4);
  std::vector<int> on_worker(9, -1);
  team.run(on_worker.size(), [&](std::size_t i) {
    on_worker[i] = ThreadPool::on_worker() ? 1 : 0;
  });
  for (const int v : on_worker) EXPECT_EQ(v, 1);
  EXPECT_FALSE(ThreadPool::on_worker());
}

TEST(Team, RethrowsTheLowestThrowingIndexThenRunsAgain) {
  Team team(4);
  // Members 1, 2 and 3 each throw, at indices 9, 6 and 3; the lowest
  // index wins whatever order the members finish in.
  for (int round = 0; round < 20; ++round) {
    try {
      team.run(12, [](std::size_t i) {
        if (i == 3 || i == 6 || i == 9) {
          throw std::runtime_error(std::to_string(i));
        }
      });
      ADD_FAILURE() << "no exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "3");
    }
  }
  std::vector<std::atomic<int>> hits(12);
  team.run(hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Team, SingleMemberRunsEverythingOnTheCaller) {
  Team team(1);
  const auto caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  team.run(5, [&](std::size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
  });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(Team, ReportsMemberAndBarrierTimes) {
  Team team(2);
  const Team::Timing timing = team.run(2, [](std::size_t i) {
    if (i == 1) std::this_thread::sleep_for(std::chrono::milliseconds(20));
  });
  EXPECT_GE(timing.busy_max, std::chrono::milliseconds(20));
  EXPECT_GE(timing.busy_sum, timing.busy_max);
  // Member 0's share is empty, so the caller waits out member 1's sleep.
  EXPECT_GE(timing.caller_wait, std::chrono::milliseconds(15));
}

TEST(Configure, SetThreadsOverridesAndZeroMeansOne) {
  set_threads(7);
  EXPECT_EQ(configured_threads(), 7u);
  set_threads(0);
  EXPECT_EQ(configured_threads(), 1u);
}

}  // namespace
}  // namespace mcss::runtime
