#include "net/parallel_sim/partitioned_sim.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "obs/metrics.hpp"
#include "runtime/parallel.hpp"
#include "runtime/thread_pool.hpp"
#include "util/ensure.hpp"

namespace mcss::net::psim {

void publish(obs::Registry& registry, const PartitionStats& stats) {
  const auto add = [&](std::string_view name, std::uint64_t value) {
    registry.add(registry.counter(name), value);
  };
  add("mcss_psim_windows", stats.windows);
  add("mcss_psim_cross_events", stats.cross_events);
  add("mcss_psim_events_processed", stats.events_processed);
  registry.set(registry.gauge("mcss_psim_max_window_events"),
               static_cast<double>(stats.max_window_events));
}

void LogicalProcess::send(std::uint32_t dst, SimTime latency,
                          Simulator::Callback fn) {
  MCSS_ENSURE(owner_ != nullptr, "logical process is not attached");
  MCSS_ENSURE(dst < owner_->num_lps(), "cross-LP destination out of range");
  MCSS_ENSURE(latency >= owner_->lookahead(),
              "cross-LP latency below the conservative lookahead");
  outbox_.push_back(
      OutEvent{sim_.now() + latency, dst, next_out_seq_++, std::move(fn)});
}

PartitionedSimulator::PartitionedSimulator(std::uint32_t num_lps,
                                           SimTime lookahead)
    : lookahead_(lookahead) {
  MCSS_ENSURE(num_lps >= 1, "need at least one logical process");
  MCSS_ENSURE(lookahead > 0, "lookahead must be positive");
  lps_.reserve(num_lps);
  for (std::uint32_t i = 0; i < num_lps; ++i) {
    lps_.emplace_back(new LogicalProcess(this, i));
  }
  window_processed_.resize(num_lps, 0);
  window_metrics_.resize(num_lps);
}

PartitionedSimulator::~PartitionedSimulator() = default;

LogicalProcess& PartitionedSimulator::lp(std::uint32_t i) {
  MCSS_ENSURE(i < lps_.size(), "logical process index out of range");
  return *lps_[i];
}

void PartitionedSimulator::commit_outboxes() {
  // Gather, then order by (due, src, seq): a total order (per-source
  // seqs are unique) that does not depend on how the previous window's
  // LPs interleaved on the pool. Destination schedule_at calls therefore
  // assign identical sequence numbers for every thread count — the merge
  // is bitwise deterministic.
  struct Tagged {
    SimTime due;
    std::uint32_t src;
    std::uint64_t seq;
    std::uint32_t dst;
    Simulator::Callback fn;
  };
  std::vector<Tagged> inbox;
  for (auto& lp : lps_) {
    for (auto& ev : lp->outbox_) {
      inbox.push_back(Tagged{ev.due, lp->id_, ev.seq, ev.dst, std::move(ev.fn)});
    }
    lp->outbox_.clear();
  }
  if (inbox.empty()) return;
  std::sort(inbox.begin(), inbox.end(), [](const Tagged& a, const Tagged& b) {
    if (a.due != b.due) return a.due < b.due;
    if (a.src != b.src) return a.src < b.src;
    return a.seq < b.seq;
  });
  for (auto& ev : inbox) {
    // The conservative guarantee: nothing may land in simulated time the
    // engine has already executed past. latency >= lookahead makes this
    // unbreakable from inside a window; a violation here is an engine bug.
    MCSS_INVARIANT(ev.due >= committed_before_,
                   "cross-LP event due inside an already-executed window");
    lps_[ev.dst]->sim_.schedule_at(ev.due, std::move(ev.fn));
    ++stats_.cross_events;
  }
}

bool PartitionedSimulator::min_pending(SimTime* t) const {
  bool any = false;
  SimTime best = std::numeric_limits<SimTime>::max();
  for (const auto& lp : lps_) {
    if (const auto next = lp->sim_.next_event_time()) {
      any = true;
      best = std::min(best, *next);
    }
  }
  if (any) *t = best;
  return any;
}

void PartitionedSimulator::run_windows(bool bounded, SimTime horizon) {
  for (;;) {
    // Barrier state: commit cross-LP traffic (including events queued by
    // setup code before the first window) so it participates in the
    // window-placement minimum below.
    commit_outboxes();

    SimTime t_min = 0;
    if (!min_pending(&t_min)) break;
    if (bounded && t_min > horizon) break;

    // Window [t_min, w_end): every event in it has time >= t_min, so any
    // cross-LP send it performs lands at >= t_min + lookahead = w_end.
    SimTime w_end;
    if (t_min > std::numeric_limits<SimTime>::max() - lookahead_) {
      w_end = std::numeric_limits<SimTime>::max();
    } else {
      w_end = t_min + lookahead_;
    }
    if (bounded && horizon < std::numeric_limits<SimTime>::max() &&
        w_end > horizon + 1) {
      w_end = horizon + 1;  // run_until semantics: include events at t == horizon
    }

    run_lps(w_end);

    committed_before_ = std::max(committed_before_, w_end);
    ++stats_.windows;
    std::uint64_t window_total = 0;
    for (const std::uint64_t n : window_processed_) window_total += n;
    stats_.events_processed += window_total;
    stats_.max_window_events = std::max(stats_.max_window_events, window_total);
  }
}

void PartitionedSimulator::run_lps(SimTime w_end) {
  const unsigned members = std::min(runtime::configured_threads(), num_lps());
  if (members <= 1 || runtime::ThreadPool::on_worker()) {
    runtime::for_each_ordered(
        lps_.size(),
        [&](std::size_t i) {
          window_processed_[i] = lps_[i]->sim_.run_before(w_end);
          return 0;
        },
        [](std::size_t, int) {});
    return;
  }

  if (!team_ || team_->size() != members) {
    team_ = std::make_unique<runtime::Team>(members);
  }
  // Each member's thread-local shard is empty between LPs (drained after
  // the previous one), so what take_local() returns is exactly LP i's
  // deltas; on member 0 the first capture also takes whatever the caller
  // recorded since its last merge, as the inline loop's first LP does.
  const runtime::Team::Timing timing =
      team_->run(lps_.size(), [this, w_end](std::size_t i) {
        window_processed_[i] = lps_[i]->sim_.run_before(w_end);
        window_metrics_[i] = obs::Registry::global().take_local();
      });
  for (const obs::MetricShard& shard : window_metrics_) {
    obs::Registry::global().merge(shard);
  }

  stats_.team_members = members;
  ++stats_.team_windows;
  stats_.busy_max_ns += static_cast<std::uint64_t>(timing.busy_max.count());
  stats_.busy_sum_ns += static_cast<std::uint64_t>(timing.busy_sum.count());
  stats_.barrier_wait_ns +=
      static_cast<std::uint64_t>(timing.caller_wait.count());
}

void PartitionedSimulator::run() {
  run_windows(/*bounded=*/false, /*horizon=*/0);
}

void PartitionedSimulator::run_until(SimTime t) {
  for (const auto& lp : lps_) {
    MCSS_ENSURE(t >= lp->sim_.now(), "cannot run backwards");
  }
  run_windows(/*bounded=*/true, /*horizon=*/t);
  // All events with time <= t have run (the final window's exclusive end
  // was t + 1); align every LP clock to the horizon, sequential-style.
  for (const auto& lp : lps_) lp->sim_.run_until(t);
}

}  // namespace mcss::net::psim
