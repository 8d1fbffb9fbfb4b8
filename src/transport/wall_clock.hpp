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
#include <optional>
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
  std::int64_t wake_ns;     ///< the earliest of next timer, deadline, unblock
  std::int64_t timeout_ns;  ///< for Poller::wait
};

/// Longest single wait, so the loop re-checks its wall deadline.
inline constexpr std::int64_t kMaxWaitNs = 100'000'000;

/// Plan a wait that ends by `deadline_ns`, when the timeline's next
/// timer is due, or at `unblock_ns`.
///
/// `now_ns` must be a clock read taken just before the wait, not the
/// loop-top time: a timer the iteration's own pump or flush armed (a
/// microsecond serializer departure) is then already due and yields
/// timeout 0 instead of a full millisecond.
///
/// Two precisions. A timer or deadline still in the future rounds UP to
/// whole milliseconds, so an idle or lightly loaded loop pays one wake-up
/// per millisecond rather than one per serializer departure, and the
/// timeout is capped at kMaxWaitNs. `unblock_ns` is the exception: set
/// only while queued work waits for a channel to take shares again, it
/// is when the first such channel can, and the wait ends there to the
/// nanosecond. A loop that oversleeps it leaves the channels' serializers
/// idle with packets queued, which is lost throughput at saturation.
[[nodiscard]] inline PollWait plan_wait(
    const net::Simulator& timeline, std::int64_t now_ns,
    std::int64_t deadline_ns, std::optional<std::int64_t> unblock_ns) {
  std::int64_t wake = deadline_ns;
  if (const auto next = timeline.next_event_time()) {
    wake = std::min(wake, *next);
  }
  const std::int64_t until = std::max<std::int64_t>(wake - now_ns, 0);
  const std::int64_t coarse =
      std::min<std::int64_t>((until + 999'999) / 1'000'000 * 1'000'000,
                             kMaxWaitNs);
  if (unblock_ns && *unblock_ns - now_ns < coarse) {
    return {std::min(wake, *unblock_ns),
            std::max<std::int64_t>(*unblock_ns - now_ns, 0)};
  }
  return {wake, coarse};
}

}  // namespace mcss::transport
