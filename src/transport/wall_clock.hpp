// Wall time for the live transport.
//
// The simulator's SimTime is signed 64-bit nanoseconds; the live
// transport keeps the same unit so the two sides of the sim-vs-live
// boundary speak one clock type. monotonic_ns() is CLOCK_MONOTONIC-based
// (std::chrono::steady_clock), so it never jumps backwards; callers
// subtract a run-start origin to get small, SimTime-compatible values.
//
// A live endpoint's only timer queue is a net::Simulator whose now() is
// that epoch-relative wall time, advanced once per loop iteration.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <utility>

#include "net/simulator.hpp"

namespace mcss::transport {

/// Nanoseconds on the monotonic clock (arbitrary epoch).
[[nodiscard]] inline std::int64_t monotonic_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Schedule `fn` on a live timeline at the wall-derived `deadline_ns`.
/// Live deadlines come from stamps that can trail the timeline's now()
/// — a stale offer time, a retry backoff from the last send, an RTO
/// already overdue — so one earlier than now() is clamped to now() and
/// fires on the next advance instead of throwing. Simulation code calls
/// Simulator::schedule_at directly and keeps its past-time check.
inline net::EventHandle schedule_wall(net::Simulator& timeline,
                                      std::int64_t deadline_ns,
                                      net::Simulator::Callback fn) {
  return timeline.schedule_at(std::max(deadline_ns, timeline.now()),
                              std::move(fn));
}

/// One poller wait of a live loop: when the loop wants to wake, and the
/// timeout that asks the poller for it.
struct PollWait {
  std::int64_t wake_ns;  ///< the earlier of the next timer and the deadline
  int timeout_ms;
};

/// Plan a wait that ends by `deadline_ns` or when the timeline's next
/// timer is due. `now_ns` must be a clock read taken just before the
/// wait, not the loop-top time: a timer the iteration's own pump or flush
/// armed (a microsecond serializer departure) is then already due and
/// yields timeout 0 instead of a full millisecond. A timer still in the
/// future rounds up to whole milliseconds, so a sub-millisecond delay
/// costs one wake-up rather than a busy poll per release; the timeout is
/// capped at 100 ms so the loop re-checks its wall deadline regularly.
[[nodiscard]] inline PollWait plan_wait(const net::Simulator& timeline,
                                        std::int64_t now_ns,
                                        std::int64_t deadline_ns) {
  std::int64_t wake = deadline_ns;
  if (const auto next = timeline.next_event_time()) {
    wake = std::min(wake, *next);
  }
  const std::int64_t until = std::max<std::int64_t>(wake - now_ns, 0);
  return {wake, static_cast<int>(std::min<std::int64_t>(
                    (until + 999'999) / 1'000'000, 100))};
}

}  // namespace mcss::transport
