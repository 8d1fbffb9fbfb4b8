// Tests for the partitioned logical-process engine and the multiflow
// population workload built on it: conservative-window correctness,
// cross-LP merge determinism across thread counts, the worker team's
// LP pinning, error and lifetime behaviour, and the simulator
// primitives (run_before, extractable heap) the engine relies on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "net/event_heap.hpp"
#include "net/parallel_sim/partitioned_sim.hpp"
#include "net/simulator.hpp"
#include "obs/metrics.hpp"
#include "runtime/thread_pool.hpp"
#include "util/ensure.hpp"
#include "workload/multiflow.hpp"

namespace mcss::net {
namespace {

struct ThreadGuard {
  explicit ThreadGuard(unsigned n) { runtime::set_threads(n); }
  ~ThreadGuard() { runtime::set_threads(1); }
  ThreadGuard(const ThreadGuard&) = delete;
  ThreadGuard& operator=(const ThreadGuard&) = delete;
};

// ---------------------------------------------------------------- EventHeap

TEST(EventHeap, PopsInTimeThenSequenceOrder) {
  EventHeap heap;
  std::vector<int> order;
  heap.push(Event{20, 0, [&] { order.push_back(20); }});
  heap.push(Event{10, 1, [&] { order.push_back(10); }});
  heap.push(Event{10, 2, [&] { order.push_back(11); }});
  heap.push(Event{5, 3, [&] { order.push_back(5); }});
  while (!heap.empty()) heap.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{5, 10, 11, 20}));
}

TEST(EventHeap, InterleavedPushPopKeepsInvariant) {
  EventHeap heap;
  std::uint64_t seq = 0;
  for (int round = 0; round < 10; ++round) {
    for (int i = 0; i < 50; ++i) {
      const SimTime t = (i * 7919 + round * 104729) % 1000;
      heap.push(Event{t, seq++, [] {}});
    }
    SimTime last = -1;
    for (int i = 0; i < 30; ++i) {
      ASSERT_GE(heap.min_time(), last);
      last = heap.min_time();
      (void)heap.pop();
    }
  }
  SimTime last = -1;
  while (!heap.empty()) {
    ASSERT_GE(heap.min_time(), last);
    last = heap.min_time();
    (void)heap.pop();
  }
}

// ---------------------------------------------- Simulator re-entrancy

TEST(Simulator, SameTimeScheduleDuringDispatchFiresThisPass) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(10, [&] {
    order.push_back(1);
    // Scheduled at exactly now() from inside a dispatch: legal, and it
    // fires later in the SAME pass, after already-queued time-10 events.
    sim.schedule_at(sim.now(), [&] { order.push_back(3); });
  });
  sim.schedule_at(10, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 10);
}

TEST(Simulator, RunUntilDrainsSameTimeCascades) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(10, [&] {
    ++fired;
    sim.schedule_at(10, [&] {
      ++fired;
      sim.schedule_at(10, [&] { ++fired; });
    });
  });
  sim.run_until(10);
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(sim.now(), 10);
}

TEST(Simulator, RunBeforeExcludesBoundaryAndKeepsClockBehind) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(5, [&] { order.push_back(5); });
  sim.schedule_at(9, [&] { order.push_back(9); });
  sim.schedule_at(10, [&] { order.push_back(10); });
  EXPECT_EQ(sim.run_before(10), 2u);
  EXPECT_EQ(order, (std::vector<int>{5, 9}));
  // The boundary event stays queued and now() never advances to the
  // boundary: a barrier may still inject events at exactly 10 that must
  // interleave with it by (time, seq).
  EXPECT_EQ(sim.now(), 9);
  EXPECT_EQ(sim.pending(), 1u);
  sim.schedule_at(10, [&] { order.push_back(11); });
  EXPECT_EQ(sim.run_before(11), 2u);
  EXPECT_EQ(order, (std::vector<int>{5, 9, 10, 11}));
}

TEST(Simulator, RunBeforeDrainsCascadesBelowBoundary) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(5, [&] {
    ++fired;
    sim.schedule_at(5, [&] {
      ++fired;
      sim.schedule_at(9, [&] { ++fired; });
    });
  });
  EXPECT_EQ(sim.run_before(10), 3u);
  EXPECT_EQ(fired, 3);
}

TEST(Simulator, SchedulePastRejectedAtWindowEdges) {
  Simulator sim;
  sim.schedule_at(10, [&] {
    // now() == 10: scheduling at now() is always legal...
    EXPECT_NO_THROW(sim.schedule_at(10, [] {}));
    // ...strictly before it never is, even mid-window.
    EXPECT_THROW(sim.schedule_at(9, [] {}), PreconditionError);
  });
  (void)sim.run_before(11);
  EXPECT_THROW(sim.schedule_at(5, [] {}), PreconditionError);
}

// ---------------------------------------------- PartitionedSimulator

TEST(PartitionedSim, ValidatesConstruction) {
  EXPECT_THROW(psim::PartitionedSimulator(0, 100), PreconditionError);
  EXPECT_THROW(psim::PartitionedSimulator(2, 0), PreconditionError);
  psim::PartitionedSimulator ps(2, 100);
  EXPECT_EQ(ps.num_lps(), 2u);
  EXPECT_THROW((void)ps.lp(2), PreconditionError);
}

TEST(PartitionedSim, SendValidatesLatencyAndDestination) {
  psim::PartitionedSimulator ps(2, 100);
  EXPECT_THROW(ps.lp(0).send(0, 99, [] {}), PreconditionError);
  EXPECT_THROW(ps.lp(0).send(2, 100, [] {}), PreconditionError);
  EXPECT_NO_THROW(ps.lp(0).send(1, 100, [] {}));
}

TEST(PartitionedSim, CrossEventsArriveAtLatency) {
  psim::PartitionedSimulator ps(2, 100);
  SimTime arrived_at = -1;
  ps.lp(0).sim().schedule_at(50, [&] {
    ps.lp(0).send(1, 100, [&] { arrived_at = ps.lp(1).sim().now(); });
  });
  ps.run();
  EXPECT_EQ(arrived_at, 150);
  EXPECT_EQ(ps.stats().cross_events, 1u);
  EXPECT_EQ(ps.lp(0).cross_events_sent(), 1u);
}

TEST(PartitionedSim, PingPongAcrossManyWindows) {
  psim::PartitionedSimulator ps(2, 10);
  int hops = 0;
  std::function<void(std::uint32_t)> hop = [&](std::uint32_t at) {
    if (++hops >= 100) return;
    ps.lp(at).send(1 - at, 10, [&hop, at] { hop(1 - at); });
  };
  ps.lp(0).sim().schedule_at(0, [&] { hop(0); });
  ps.run();
  EXPECT_EQ(hops, 100);
  EXPECT_EQ(ps.stats().cross_events, 99u);
  EXPECT_EQ(ps.lp(0).sim().now(), 980);
  EXPECT_EQ(ps.lp(1).sim().now(), 990);
}

TEST(PartitionedSim, RunUntilAlignsAllClocks) {
  psim::PartitionedSimulator ps(3, 10);
  int fired = 0;
  ps.lp(0).sim().schedule_at(5, [&] { ++fired; });
  ps.lp(1).sim().schedule_at(50, [&] { ++fired; });
  ps.lp(2).sim().schedule_at(51, [&] { ++fired; });
  ps.run_until(50);
  EXPECT_EQ(fired, 2);
  for (std::uint32_t i = 0; i < 3; ++i) EXPECT_EQ(ps.lp(i).sim().now(), 50);
  ps.run_until(60);
  EXPECT_EQ(fired, 3);
  EXPECT_THROW(ps.run_until(59), PreconditionError);
}

/// Deterministic multi-LP fan-out: every LP multicasts to every other at
/// staggered times; each receipt appends to a per-LP log. The logs must
/// be identical for any thread count.
std::vector<std::string> fanout_trace(unsigned threads) {
  ThreadGuard guard(threads);
  constexpr std::uint32_t kLps = 5;
  psim::PartitionedSimulator ps(kLps, 7);
  std::vector<std::string> logs(kLps);
  for (std::uint32_t src = 0; src < kLps; ++src) {
    for (std::uint32_t burst = 0; burst < 20; ++burst) {
      ps.lp(src).sim().schedule_at(burst * 3 + src, [&ps, &logs, src] {
        const auto t = ps.lp(src).sim().now();
        for (std::uint32_t dst = 0; dst < ps.num_lps(); ++dst) {
          ps.lp(src).send(dst, 7 + (src + dst) % 3, [&ps, &logs, src, dst, t] {
            logs[dst] += std::to_string(src) + "@" + std::to_string(t) + "->" +
                         std::to_string(ps.lp(dst).sim().now()) + ";";
          });
        }
      });
    }
  }
  ps.run();
  return logs;
}

/// Thread counts the determinism tests compare against the inline run:
/// ones that do not divide the LP count, and more threads than LPs.
constexpr unsigned kThreadCounts[] = {2, 3, 8, 16};

TEST(PartitionedSim, FanoutTraceBitwiseIdenticalAcrossThreadCounts) {
  const auto base = fanout_trace(1);
  for (const unsigned threads : kThreadCounts) {
    EXPECT_EQ(fanout_trace(threads), base) << threads << " threads";
  }
}

TEST(PartitionedSim, LpsStayOnTheirTeamMemberAndRunAsWorkers) {
  constexpr std::uint32_t kLps = 8;
  for (const unsigned threads : kThreadCounts) {
    ThreadGuard guard(threads);
    const unsigned members = std::min<unsigned>(threads, kLps);
    psim::PartitionedSimulator ps(kLps, 10);
    // Each LP writes only its own entries.
    std::vector<std::vector<std::thread::id>> ran_on(kLps);
    std::vector<int> off_worker(kLps, 0);
    for (std::uint32_t lp = 0; lp < kLps; ++lp) {
      for (SimTime t = 0; t < 200; t += 10) {
        ps.lp(lp).sim().schedule_at(t + lp, [&, lp] {
          ran_on[lp].push_back(std::this_thread::get_id());
          if (!runtime::ThreadPool::on_worker()) ++off_worker[lp];
        });
      }
    }
    ps.run();
    EXPECT_FALSE(runtime::ThreadPool::on_worker());
    for (std::uint32_t lp = 0; lp < kLps; ++lp) {
      EXPECT_EQ(off_worker[lp], 0) << "lp " << lp << ", " << threads;
      ASSERT_EQ(ran_on[lp].size(), 20u);
      for (const auto id : ran_on[lp]) {
        EXPECT_EQ(id, ran_on[lp % members].front()) << "lp " << lp;
      }
    }
    EXPECT_EQ(ran_on[0].front(), std::this_thread::get_id());
    const auto& stats = ps.stats();
    EXPECT_EQ(stats.team_members, members);
    EXPECT_EQ(stats.team_windows, stats.windows);
    EXPECT_GE(stats.busy_sum_ns, stats.busy_max_ns);
  }
  ThreadGuard inline_run(1);
  psim::PartitionedSimulator ps(kLps, 10);
  ps.lp(3).sim().schedule_at(1, [] {});
  ps.run();
  EXPECT_EQ(ps.stats().team_members, 0u);
  EXPECT_EQ(ps.stats().team_windows, 0u);
}

TEST(PartitionedSim, ThrowingLpIsRethrownAfterTheWindowThenRunsOn) {
  constexpr std::uint32_t kLps = 8;
  const auto thrower = [](std::uint32_t lp) {
    return [lp] { throw std::runtime_error("lp " + std::to_string(lp)); };
  };
  for (const unsigned threads : {1u, 2u, 3u, 8u}) {
    ThreadGuard guard(threads);
    {
      // Two LPs throw in one window: the lower index is the one reported.
      psim::PartitionedSimulator ps(kLps, 10);
      ps.lp(5).sim().schedule_at(3, thrower(5));
      ps.lp(2).sim().schedule_at(4, thrower(2));
      try {
        ps.run();
        ADD_FAILURE() << "no exception at " << threads << " threads";
      } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "lp 2") << threads << " threads";
      }
    }
    psim::PartitionedSimulator ps(kLps, 10);
    std::vector<int> fired(kLps, 0);
    for (std::uint32_t lp = 0; lp < kLps; ++lp) {
      ps.lp(lp).sim().schedule_at(50, [&fired, lp] { ++fired[lp]; });
    }
    ps.lp(5).sim().schedule_at(3, thrower(5));
    EXPECT_THROW(ps.run(), std::runtime_error);
    ps.run();
    EXPECT_EQ(fired, std::vector<int>(kLps, 1)) << threads << " threads";
  }
}

/// Threads of this process, from the kernel's own count.
unsigned process_threads() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) {
      return static_cast<unsigned>(std::stoul(line.substr(8)));
    }
  }
  return 0;
}

TEST(PartitionedSim, DestroyedEnginesLeaveNoThreadBehind) {
  ThreadGuard guard(4);
  const unsigned before = process_threads();
  ASSERT_GT(before, 0u);
  for (int i = 0; i < 200; ++i) {
    psim::PartitionedSimulator ps(4, 10);
    for (std::uint32_t lp = 0; lp < 4; ++lp) {
      ps.lp(lp).sim().schedule_at(lp, [&ps, lp] { ps.lp(lp).send(0, 10, [] {}); });
    }
    ps.run();
    ASSERT_EQ(ps.stats().team_members, 4u);
  }
  EXPECT_EQ(process_threads(), before);
}

TEST(PartitionedSim, PublishExportsEngineTotals) {
  obs::Registry::global().reset();
  obs::set_metrics_enabled(true);
  psim::PartitionedSimulator ps(2, 100);
  ps.lp(0).sim().schedule_at(50, [&] { ps.lp(0).send(1, 100, [] {}); });
  ps.run();
  psim::publish(obs::Registry::global(), ps.stats());
  const auto snap = obs::Registry::global().snapshot();
  EXPECT_EQ(snap.counter_value("mcss_psim_windows"), ps.stats().windows);
  EXPECT_EQ(snap.counter_value("mcss_psim_cross_events"), 1u);
  EXPECT_EQ(snap.counter_value("mcss_psim_events_processed"),
            ps.stats().events_processed);
  bool saw_gauge = false;
  for (const auto& gauge : snap.gauges) {
    if (gauge.name == "mcss_psim_max_window_events") {
      saw_gauge = true;
      EXPECT_EQ(gauge.value,
                static_cast<double>(ps.stats().max_window_events));
    }
  }
  EXPECT_TRUE(saw_gauge);
  obs::Registry::global().reset();
  obs::set_metrics_enabled(false);
}

/// LP events record counters and histogram observations whose
/// magnitudes span nine decades: any change in the order the per-LP
/// metric shards are folded at the window barrier would change the
/// bits of the committed double sum. Returns every order-sensitive
/// piece of the committed registry state.
std::tuple<std::uint64_t, std::uint64_t, double, double, double,
           std::vector<std::uint64_t>>
registry_merge_run(unsigned threads) {
  ThreadGuard guard(threads);
  obs::Registry& reg = obs::Registry::global();
  reg.reset();
  obs::set_metrics_enabled(true);
  const auto events = reg.counter("mcss_test_lp_events");
  const auto hist =
      reg.histogram("mcss_test_lp_value", {1.0, 100.0, 10'000.0, 1e6});

  constexpr std::uint32_t kLps = 5;
  psim::PartitionedSimulator ps(kLps, 7);
  for (std::uint32_t src = 0; src < kLps; ++src) {
    for (std::uint32_t burst = 0; burst < 20; ++burst) {
      ps.lp(src).sim().schedule_at(burst * 3 + src, [&, events, hist, src] {
        reg.add(events);
        reg.observe(hist, std::pow(10.0, src * 2) *
                              (1.0 + 1e-9 * static_cast<double>(
                                                 ps.lp(src).sim().now())));
        for (std::uint32_t dst = 0; dst < ps.num_lps(); ++dst) {
          ps.lp(src).send(dst, 7, [&reg, &ps, events, hist, dst] {
            reg.add(events);
            reg.observe(hist,
                        1e-3 * static_cast<double>(ps.lp(dst).sim().now()));
          });
        }
      });
    }
  }
  ps.run();

  const auto snap = reg.snapshot();
  std::tuple<std::uint64_t, std::uint64_t, double, double, double,
             std::vector<std::uint64_t>>
      out;
  std::get<0>(out) = snap.counter_value("mcss_test_lp_events");
  for (const auto& h : snap.histograms) {
    if (h.name == "mcss_test_lp_value") {
      out = {std::get<0>(out), h.count, h.sum, h.min, h.max, h.buckets};
    }
  }
  reg.reset();
  obs::set_metrics_enabled(false);
  return out;
}

TEST(PartitionedSim, RegistryMergeBitwiseIdenticalAcrossThreadCounts) {
  const auto base = registry_merge_run(1);
  EXPECT_EQ(std::get<0>(base), 600u);  // 100 direct + 500 cross events
  EXPECT_EQ(std::get<1>(base), 600u);
  for (const unsigned threads : kThreadCounts) {
    EXPECT_EQ(registry_merge_run(threads), base) << threads << " threads";
  }
}

// ---------------------------------------------------------- Multiflow

workload::MultiflowConfig small_population() {
  workload::MultiflowConfig config;
  config.num_lps = 3;
  config.total_flows = 12;
  config.max_active_per_lp = 2;  // forces deferrals (churn path)
  config.offered_bps = 4e6;
  config.packet_bytes = 128;
  config.flow_duration_s = 0.01;
  config.arrival_window_s = 0.05;
  config.control_period_s = 0.01;
  config.seed = 7;
  return config;
}

TEST(Multiflow, RunsPopulationToCompletion) {
  const auto result = workload::run_multiflow(small_population());
  EXPECT_EQ(result.flows_started, 12u);
  EXPECT_EQ(result.flows_completed, 12u);
  EXPECT_GT(result.packets_sent, 0u);
  EXPECT_GT(result.packets_delivered, 0u);
  EXPECT_GE(result.loss_fraction, 0.0);
  EXPECT_LE(result.loss_fraction, 1.0);
  EXPECT_GT(result.partition.windows, 0u);
  EXPECT_GT(result.partition.cross_events, 0u);  // control plane traffic
  EXPECT_GT(result.control_rounds, 0u);
}

TEST(Multiflow, FingerprintBitwiseIdenticalAcrossThreadCounts) {
  for (const std::uint32_t lps : {3u, 8u}) {
    auto config = small_population();
    config.num_lps = lps;
    std::uint64_t base = 0;
    {
      ThreadGuard guard(1);
      base = workload::run_multiflow(config).fingerprint();
    }
    for (const unsigned threads : kThreadCounts) {
      ThreadGuard guard(threads);
      EXPECT_EQ(workload::run_multiflow(config).fingerprint(), base)
          << lps << " LPs, " << threads << " threads";
    }
  }
}

TEST(Multiflow, SingleLpMatchesItselfAndControlCanBeDisabled) {
  auto config = small_population();
  config.num_lps = 1;
  const auto a = workload::run_multiflow(config);
  const auto b = workload::run_multiflow(config);
  EXPECT_EQ(a.fingerprint(), b.fingerprint());

  config.control_plane = false;
  const auto quiet = workload::run_multiflow(config);
  EXPECT_EQ(quiet.control_rounds, 0u);
  EXPECT_EQ(quiet.partition.cross_events, 0u);
}

TEST(Multiflow, ValidatesConfig) {
  auto config = small_population();
  config.total_flows = 0;
  EXPECT_THROW((void)workload::run_multiflow(config), PreconditionError);
  config = small_population();
  config.packet_bytes = 4;
  EXPECT_THROW((void)workload::run_multiflow(config), PreconditionError);
}

}  // namespace
}  // namespace mcss::net
