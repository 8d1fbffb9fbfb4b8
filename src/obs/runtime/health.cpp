#include "obs/runtime/health.hpp"

#include <algorithm>

namespace mcss::obs::runtime {

namespace {

// Microsecond-unit buckets: 1us .. ~32ms exponential. Poll wake lag
// and pump time share the shape; both are "should be tiny, watch the
// tail" distributions.
std::vector<double> us_bounds() { return exp_bounds(1.0, 2.0, 16); }

}  // namespace

EventLoopHealth::EventLoopHealth(HealthConfig config) : config_(config) {}

void EventLoopHealth::resolve_ids() {
  Registry& registry = Registry::global();
  wait_id_ = registry.histogram("mcss_loop_poll_wait_us", us_bounds());
  lag_id_ = registry.histogram("mcss_loop_poll_wake_lag_us", us_bounds());
  pump_id_ = registry.histogram("mcss_loop_pump_us", us_bounds());
  stalls_id_ = registry.counter("mcss_loop_watchdog_stalls_total");
  ids_resolved_ = true;
}

void EventLoopHealth::on_wait(std::int64_t start_ns, std::int64_t wake_ns,
                              std::int64_t end_ns) {
  if (!metrics_enabled()) return;
  // Ids are resolved once per instance, not per call: on_wait runs
  // every loop iteration, and a registry lookup there is a mutex plus
  // two allocations at wake rates where that is measurable. An
  // instance that lives across a Registry::reset() goes silent (the
  // cached ids turn inert) — endpoints build a fresh telemetry plane
  // per run, so in practice only a test that resets mid-run sees this.
  if (!ids_resolved_) resolve_ids();
  Registry& registry = Registry::global();
  registry.observe(wait_id_, static_cast<double>(end_ns - start_ns) / 1e3);
  // A wake time already past when the wait began (a timer that came due
  // during the pump) is the pump's lateness, not the wait's.
  const std::int64_t lag_ns = end_ns - std::max(wake_ns, start_ns);
  registry.observe(lag_id_,
                   static_cast<double>(std::max<std::int64_t>(lag_ns, 0)) /
                       1e3);
}

void EventLoopHealth::on_pump(std::int64_t pump_ns) {
  ++pump_iterations_;
  max_pump_ns_ = std::max(max_pump_ns_, pump_ns);
  const bool stalled = pump_ns > config_.pump_budget_ns;
  if (stalled) ++watchdog_stalls_;
  if (!metrics_enabled()) return;
  if (!ids_resolved_) resolve_ids();
  Registry& registry = Registry::global();
  registry.observe(pump_id_, static_cast<double>(pump_ns) / 1e3);
  if (stalled) registry.add(stalls_id_);
}

void EventLoopHealth::set_pool_occupancy(std::size_t in_use,
                                         std::size_t capacity) {
  if (!metrics_enabled()) return;
  Registry& registry = Registry::global();
  registry.set(registry.gauge("mcss_pool_frames_in_use"),
               static_cast<double>(in_use));
  registry.set(registry.gauge("mcss_pool_frames_capacity"),
               static_cast<double>(capacity));
}

}  // namespace mcss::obs::runtime
