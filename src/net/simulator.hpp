// Deterministic discrete-event simulator.
//
// A single-threaded event loop over an extractable binary heap keyed by
// (time, sequence number): events at equal times fire in scheduling
// order, so runs are bit-reproducible. All simulated components (channels,
// protocol endpoints, traffic sources) schedule callbacks here.
//
// Re-entrancy invariants the run loops guarantee (and the parallel
// logical-process engine in net/parallel_sim relies on):
//   - A callback may schedule new events, including at exactly now();
//     those fire later in the SAME pass, in sequence order.
//   - run_until(t) drains same-time cascades: events scheduled at t by
//     events running at t still fire before the call returns.
//   - schedule_at rejects times strictly before now(); scheduling at
//     now() from within a dispatch is always legal.
//   - cancel() removes a pending event; a callback may cancel another
//     pending event, which then does not fire. Cancelling a fired,
//     already-cancelled or empty handle is a no-op returning false.
//
// The live endpoints run this same queue on wall time (now() is the
// endpoint's epoch-relative clock, advanced with run_until once per loop
// iteration), so impairment, RTO, report and reassembly timers share one
// implementation with the simulator.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>

#include "net/event_heap.hpp"
#include "net/sim_time.hpp"

namespace mcss::net {

class Simulator {
 public:
  using Callback = std::function<void()>;

  /// Current simulation time. Advances only while events run.
  [[nodiscard]] SimTime now() const noexcept { return now_; }

  /// Schedule `fn` at absolute time `t` (>= now; earlier throws). The
  /// handle cancels the event; callers that never cancel may ignore it.
  EventHandle schedule_at(SimTime t, Callback fn);

  /// Schedule `fn` after a relative delay (>= 0).
  EventHandle schedule_in(SimTime delay, Callback fn);

  /// Remove a pending event so it never fires. O(log n). False when the
  /// event already fired, was already cancelled, or `h` is empty.
  bool cancel(EventHandle h) { return queue_.erase(h); }

  /// Run events until the queue is empty.
  void run();

  /// Run all events with time <= `t`, then set now() = t.
  void run_until(SimTime t);

  /// Run all events with time strictly < `t` (including cascades those
  /// events schedule below `t`), leaving now() at the last dispatched
  /// event — it never advances to `t`. This is the conservative-window
  /// primitive of the parallel engine: events at exactly `t` stay
  /// queued so cross-partition events injected at the window barrier
  /// (due >= t) merge ahead of or between them purely by (time, seq).
  /// Returns the number of events processed.
  std::uint64_t run_before(SimTime t);

  /// Process a single event; returns false if the queue was empty.
  bool step();

  /// Timestamp of the earliest pending event, if any. O(1).
  [[nodiscard]] std::optional<SimTime> next_event_time() const {
    if (queue_.empty()) return std::nullopt;
    return queue_.min_time();
  }

  [[nodiscard]] std::size_t pending() const noexcept { return queue_.size(); }
  [[nodiscard]] std::uint64_t processed() const noexcept { return processed_; }

 private:
  void dispatch(Event&& e);

  EventHeap queue_;
  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t processed_ = 0;
};

}  // namespace mcss::net
