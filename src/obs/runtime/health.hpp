// Event-loop health instruments: is the pump keeping up?
//
// The owning loop feeds raw nanosecond measurements; this module owns
// the derived series:
//
//   mcss_loop_poll_wait_us       histogram: time blocked in the poller
//   mcss_loop_poll_wake_lag_us   histogram: how late the wait returned
//                                past the time the loop wanted to wake
//                                (its next timer or run deadline, or the
//                                wait's start if that time had passed):
//                                timeout rounding + scheduler + kernel
//                                wake latency; 0 when events arrived
//                                first
//   mcss_loop_pump_us            histogram: one pump iteration's work
//   mcss_loop_watchdog_stalls_total  counter: pump iterations over the
//                                configured budget
//   mcss_pool_frames_in_use / mcss_pool_frames_capacity  gauges
//
// Counters for healthz (iterations, stalls) are tracked in plain
// members regardless of metrics_enabled(), so /healthz works even
// when the Prometheus path is off.
#pragma once

#include <cstdint>

#include "obs/metrics.hpp"

namespace mcss::obs::runtime {

struct HealthConfig {
  /// A pump iteration longer than this counts as a watchdog stall.
  std::int64_t pump_budget_ns = 10'000'000;  // 10 ms
};

class EventLoopHealth {
 public:
  explicit EventLoopHealth(HealthConfig config = {});

  /// One poller wait completed: it started at `start_ns`, the loop
  /// wanted to wake at `wake_ns`, and the wait returned at `end_ns`
  /// (all on one clock). Wake lag is the lateness past `wake_ns`, or
  /// past `start_ns` when that is later, clamped at 0, so the poll
  /// timeout's millisecond rounding counts.
  void on_wait(std::int64_t start_ns, std::int64_t wake_ns,
               std::int64_t end_ns);

  /// One pump iteration (everything between two waits) took `pump_ns`.
  void on_pump(std::int64_t pump_ns);

  /// Frame-pool occupancy gauges (set at sample time, not per frame).
  void set_pool_occupancy(std::size_t in_use, std::size_t capacity);

  [[nodiscard]] std::uint64_t pump_iterations() const noexcept {
    return pump_iterations_;
  }
  [[nodiscard]] std::uint64_t watchdog_stalls() const noexcept {
    return watchdog_stalls_;
  }
  [[nodiscard]] std::int64_t max_pump_ns() const noexcept {
    return max_pump_ns_;
  }
  [[nodiscard]] const HealthConfig& config() const noexcept {
    return config_;
  }

 private:
  void resolve_ids();

  HealthConfig config_;
  std::uint64_t pump_iterations_ = 0;
  std::uint64_t watchdog_stalls_ = 0;
  std::int64_t max_pump_ns_ = 0;
  /// Series ids cached per instance (resolved on the first enabled
  /// call): on_wait/on_pump run every loop iteration, too hot for a
  /// name lookup. See the note in on_wait about Registry::reset().
  bool ids_resolved_ = false;
  HistogramId wait_id_{};
  HistogramId lag_id_{};
  HistogramId pump_id_{};
  CounterId stalls_id_{};
};

}  // namespace mcss::obs::runtime
