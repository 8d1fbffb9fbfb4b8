#include "net/simulator.hpp"

#include <utility>

#include "util/ensure.hpp"

namespace mcss::net {

EventHandle Simulator::schedule_at(SimTime t, Callback fn) {
  MCSS_ENSURE(t >= now_, "cannot schedule an event in the past");
  return queue_.push(Event{t, next_seq_++, std::move(fn)});
}

EventHandle Simulator::schedule_in(SimTime delay, Callback fn) {
  MCSS_ENSURE(delay >= 0, "negative delay");
  return schedule_at(now_ + delay, std::move(fn));
}

void Simulator::dispatch(Event&& e) {
  now_ = e.time;
  ++processed_;
  e.fn();
}

void Simulator::run() {
  while (!queue_.empty()) {
    dispatch(queue_.pop());
  }
}

void Simulator::run_until(SimTime t) {
  MCSS_ENSURE(t >= now_, "cannot run backwards");
  while (!queue_.empty() && queue_.min_time() <= t) {
    dispatch(queue_.pop());
  }
  now_ = t;
}

std::uint64_t Simulator::run_before(SimTime t) {
  std::uint64_t processed = 0;
  while (!queue_.empty() && queue_.min_time() < t) {
    dispatch(queue_.pop());
    ++processed;
  }
  return processed;
}

bool Simulator::step() {
  if (queue_.empty()) return false;
  dispatch(queue_.pop());
  return true;
}

}  // namespace mcss::net
