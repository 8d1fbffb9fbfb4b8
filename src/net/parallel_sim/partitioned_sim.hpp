// Partitioned discrete-event simulation: conservative logical processes
// with a bitwise-deterministic cross-LP merge.
//
// A PartitionedSimulator splits one simulation into `num_lps` logical
// processes (LPs). Each LP is a sealed sequential net::Simulator — its
// components (channels, protocol endpoints, sources) must reference ONLY
// that LP's simulator and state, so LPs can execute concurrently without
// sharing anything mutable. The one sanctioned coupling is
// LogicalProcess::send(dst, latency, fn): a cross-LP event that fires on
// the destination LP `latency` later.
//
// Synchronization is conservative (ROOT-Sim's Time-Warp family, minus
// the rollback): every cross-LP latency must be at least the `lookahead`
// — in a network simulation, the smallest fixed propagation delay on any
// cross-partition link — so the engine can run all LPs in lockstep
// windows of exactly that width. Window w covers [T, T + lookahead)
// where T is the global minimum pending event time; any cross-LP event
// sent from inside the window has due time >= T + lookahead, i.e. it
// can never land in a window that is already executing. At each window
// barrier the buffered cross-LP events are committed into their
// destination heaps in (due time, source LP, source sequence) order —
// a total order independent of execution interleaving — so destination
// sequence numbers, and therefore all downstream (time, seq) event
// ordering, are identical for every MCSS_THREADS value. MCSS_THREADS=1
// runs the same windows inline: bitwise-identical output, by
// construction, to any parallel run.
//
// With MCSS_THREADS > 1, windows execute on a runtime::Team the engine
// owns: min(MCSS_THREADS, num_lps) members, the calling thread being
// member 0, created at the first threaded window and joined when the
// engine is destroyed. LP i always runs on member i % members, so an
// LP's heap and flows stay on one core, and a window costs one futex
// release and one futex count-down rather than a task per LP. Inline
// (MCSS_THREADS=1, or when already on a pool worker or team member)
// the windows run through runtime::for_each_ordered's sequential loop.
// On both paths each LP's obs metric shard is captured after the LP's
// share of the window and merged in LP index order at the barrier (see
// runtime/parallel.hpp), keeping registry contents bit-reproducible too.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "net/sim_time.hpp"
#include "net/simulator.hpp"

namespace mcss::obs {
class MetricShard;
class Registry;
}  // namespace mcss::obs

namespace mcss::runtime {
class Team;
}  // namespace mcss::runtime

namespace mcss::net::psim {

class PartitionedSimulator;

/// One logical process: a sealed sequential simulator plus an outbox of
/// cross-LP events awaiting the next window barrier.
class LogicalProcess {
 public:
  LogicalProcess(const LogicalProcess&) = delete;
  LogicalProcess& operator=(const LogicalProcess&) = delete;

  /// This LP's private event loop. Everything simulated inside the LP
  /// schedules here and must never touch another LP's simulator.
  [[nodiscard]] Simulator& sim() noexcept { return sim_; }
  [[nodiscard]] const Simulator& sim() const noexcept { return sim_; }

  [[nodiscard]] std::uint32_t id() const noexcept { return id_; }

  /// Schedule `fn` on LP `dst` at sim().now() + latency. `latency` must
  /// be >= the engine's lookahead (the conservative-safety contract) and
  /// `dst` must be a valid LP id (self-sends are allowed and go through
  /// the same deterministic barrier commit). Buffered until the current
  /// window's barrier; committed in (due, src, seq) order.
  void send(std::uint32_t dst, SimTime latency, Simulator::Callback fn);

  /// Cross-LP events this LP has sent so far.
  [[nodiscard]] std::uint64_t cross_events_sent() const noexcept {
    return next_out_seq_;
  }

 private:
  friend class PartitionedSimulator;

  struct OutEvent {
    SimTime due = 0;
    std::uint32_t dst = 0;
    std::uint64_t seq = 0;  ///< per-source sequence (merge tiebreak)
    Simulator::Callback fn;
  };

  LogicalProcess(PartitionedSimulator* owner, std::uint32_t id)
      : id_(id), owner_(owner) {}

  Simulator sim_;
  std::uint32_t id_ = 0;
  PartitionedSimulator* owner_ = nullptr;
  std::vector<OutEvent> outbox_;
  std::uint64_t next_out_seq_ = 0;
};

struct PartitionStats {
  std::uint64_t windows = 0;          ///< lookahead windows executed
  std::uint64_t cross_events = 0;     ///< cross-LP events committed
  std::uint64_t events_processed = 0; ///< total events across all LPs
  std::uint64_t max_window_events = 0;///< busiest single window (all LPs)

  // Threaded windows only (all zero inline). Wall-clock times, summed
  // over team windows: they vary run to run, so no result fingerprint
  // may include them.
  std::uint32_t team_members = 0;      ///< members of the last team used
  std::uint64_t team_windows = 0;      ///< windows run on the team
  std::uint64_t busy_max_ns = 0;       ///< slowest member's compute
  std::uint64_t busy_sum_ns = 0;       ///< every member's compute
  std::uint64_t barrier_wait_ns = 0;   ///< caller's wait at the barrier
};

/// Add engine totals into the registry under mcss_psim_* names. The
/// per-window counters are additive (several engines, or one engine
/// published per run, aggregate); the busiest-window figure is a gauge
/// and publishes last-writer-wins.
void publish(obs::Registry& registry, const PartitionStats& stats);

class PartitionedSimulator {
 public:
  /// `lookahead` must be positive: it is both the window width and the
  /// floor every cross-LP latency is validated against.
  PartitionedSimulator(std::uint32_t num_lps, SimTime lookahead);

  ~PartitionedSimulator();

  PartitionedSimulator(const PartitionedSimulator&) = delete;
  PartitionedSimulator& operator=(const PartitionedSimulator&) = delete;

  [[nodiscard]] std::uint32_t num_lps() const noexcept {
    return static_cast<std::uint32_t>(lps_.size());
  }
  [[nodiscard]] SimTime lookahead() const noexcept { return lookahead_; }
  [[nodiscard]] LogicalProcess& lp(std::uint32_t i);

  /// Run windows until every LP heap and every outbox is empty.
  void run();

  /// Run all events with time <= t (cross-LP ones included), then
  /// advance every LP clock to exactly t. Callable repeatedly with
  /// non-decreasing t.
  void run_until(SimTime t);

  [[nodiscard]] const PartitionStats& stats() const noexcept { return stats_; }

 private:
  /// Inject every buffered cross-LP event into its destination heap, in
  /// (due, src, seq) order. Single-threaded; called at barriers only.
  void commit_outboxes();
  /// Earliest pending local event across LPs; false when all idle.
  [[nodiscard]] bool min_pending(SimTime* t) const;
  void run_windows(bool bounded, SimTime horizon);
  /// Run every LP's events before w_end: inline, or on the team.
  void run_lps(SimTime w_end);

  SimTime lookahead_;
  /// Exclusive upper bound of simulated-and-committed time: no event
  /// before this may ever be created again (the conservative guarantee,
  /// asserted at every commit).
  SimTime committed_before_ = 0;
  std::vector<std::unique_ptr<LogicalProcess>> lps_;
  std::vector<std::uint64_t> window_processed_;  ///< scratch, per LP
  std::vector<obs::MetricShard> window_metrics_; ///< scratch, per LP (team)
  PartitionStats stats_;
  std::unique_ptr<runtime::Team> team_;  ///< after lps_: joined first
};

}  // namespace mcss::net::psim
