// Deterministic parallel-for with ordered result collection.
//
// for_each_ordered(count, compute, commit) evaluates compute(i) for
// every i in [0, count) concurrently on the shared pool, while the
// calling thread invokes commit(i, result) strictly in index order,
// streaming: index i is committed as soon as BOTH compute(i) has
// finished and every j < i has been committed. Because commits are
// serialized on the caller in a fixed order, anything commit does
// (printing a table row, folding into an accumulator, appending to a
// JSON-lines file) produces output bitwise identical to the sequential
// run, for any thread count.
//
// compute must be safe to call concurrently from several threads for
// distinct indices (sweep points owning their own Simulator/Rng are);
// commit is only ever called from the calling thread. Exceptions from
// either cancel the remaining work and are rethrown to the caller.
//
// When configured_threads() == 1, when there is at most one index, or
// when already running on a pool worker or inside a Team member's share
// (nested parallelism), it degrades to a plain sequential loop on the
// calling thread — the exact legacy path, no pool, no synchronization.
// The partitioned simulator uses that loop for its inline windows; its
// threaded windows run on a runtime::Team (thread_pool.hpp) instead,
// with the same per-index shard capture and index-order merge.
//
// Observability: on the parallel path each pump captures the metric
// deltas its compute(i) accumulated in the worker's thread-local shard
// (obs::Registry::take_local) and the caller merges them in index order
// right before commit(i). The sequential path performs the SAME
// per-index capture+merge at the outermost loop level, so the registry
// reduces per point in index order on both paths — registry contents
// (including order-sensitive double sums, where floating-point
// addition is not associative) are bitwise identical for any
// MCSS_THREADS value. Nested loops (inside a compute) skip the capture;
// their deltas fold into the enclosing point's shard in stream order,
// again identically on both paths. Metrics recorded by commit itself
// stay in the caller's live shard and only reach the committed state at
// the next snapshot, so commit-side recording carries no ordering
// guarantee. With no metrics recorded the captured shards are empty and
// the capture is a few moves per index.
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <mutex>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "runtime/thread_pool.hpp"

namespace mcss::runtime {

namespace detail {
/// Depth of for_each_ordered frames on this thread; the sequential path
/// captures metric shards only at depth 1 (the outermost sweep level),
/// mirroring the parallel path where only pumps capture.
inline thread_local unsigned sweep_depth = 0;

struct SweepDepthGuard {
  SweepDepthGuard() { ++sweep_depth; }
  ~SweepDepthGuard() { --sweep_depth; }
  SweepDepthGuard(const SweepDepthGuard&) = delete;
  SweepDepthGuard& operator=(const SweepDepthGuard&) = delete;
};
}  // namespace detail

template <typename ComputeFn, typename CommitFn>
void for_each_ordered(std::size_t count, ComputeFn&& compute,
                      CommitFn&& commit) {
  using T = std::decay_t<std::invoke_result_t<ComputeFn&, std::size_t>>;

  const unsigned threads = configured_threads();
  if (threads <= 1 || count <= 1 || ThreadPool::on_worker()) {
    // On a pool worker this is a nested loop: the enclosing pump owns
    // the shard capture, so never capture here.
    const bool capture = !ThreadPool::on_worker();
    for (std::size_t i = 0; i < count; ++i) {
      T value = [&] {
        detail::SweepDepthGuard depth;
        return compute(i);
      }();
      if (capture && detail::sweep_depth == 0) {
        auto& registry = obs::Registry::global();
        registry.merge(registry.take_local());
      }
      commit(i, std::move(value));
    }
    return;
  }

  struct Slot {
    T value;
    obs::MetricShard metrics;
  };
  struct State {
    std::mutex mutex;
    std::condition_variable progress;
    std::vector<std::optional<Slot>> results;
    std::atomic<std::size_t> next{0};
    std::atomic<bool> cancelled{false};
    std::size_t pumps_running = 0;
    std::exception_ptr error;
  };
  State state;
  state.results.resize(count);

  // Each pump task claims indices from the shared counter until they run
  // out; index-claim order varies run to run but lands each result in
  // its own slot, so ordering is restored at commit time.
  const auto pump = [&state, &compute, count] {
    for (;;) {
      if (state.cancelled.load(std::memory_order_relaxed)) break;
      const std::size_t i = state.next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) break;
      try {
        // The worker's shard is empty on entry (drained after the
        // previous claim), so what take_local() returns is exactly the
        // deltas compute(i) produced.
        Slot result{compute(i), obs::Registry::global().take_local()};
        std::lock_guard<std::mutex> lock(state.mutex);
        state.results[i].emplace(std::move(result));
        state.progress.notify_all();
      } catch (...) {
        std::lock_guard<std::mutex> lock(state.mutex);
        if (!state.error) state.error = std::current_exception();
        state.cancelled.store(true, std::memory_order_relaxed);
        state.progress.notify_all();
      }
    }
    std::lock_guard<std::mutex> lock(state.mutex);
    --state.pumps_running;
    state.progress.notify_all();
  };

  ThreadPool& pool = ThreadPool::shared();
  const std::size_t pumps =
      std::min<std::size_t>(std::min<std::size_t>(threads, pool.size()), count);
  state.pumps_running = pumps;
  for (std::size_t p = 0; p < pumps; ++p) pool.submit(pump);

  std::unique_lock<std::mutex> lock(state.mutex);
  for (std::size_t i = 0; i < count; ++i) {
    state.progress.wait(
        lock, [&] { return state.error || state.results[i].has_value(); });
    if (state.error) break;
    Slot slot = std::move(*state.results[i]);
    state.results[i].reset();
    lock.unlock();
    // Merge index i's metric deltas before any j > i: registry state
    // evolves in index order, matching the sequential run exactly.
    obs::Registry::global().merge(slot.metrics);
    try {
      commit(i, std::move(slot.value));
    } catch (...) {
      lock.lock();
      if (!state.error) state.error = std::current_exception();
      state.cancelled.store(true, std::memory_order_relaxed);
      break;
    }
    lock.lock();
  }
  // Drain the pumps before the stack frame (state, compute) goes away.
  state.cancelled.store(true, std::memory_order_relaxed);
  state.progress.wait(lock, [&] { return state.pumps_running == 0; });
  if (state.error) std::rethrow_exception(state.error);
}

}  // namespace mcss::runtime
