// Standalone _GLIBCXX_DEBUG regression test for the simulator core.
//
// The original event queue was a std::priority_queue popped via
// std::move(const_cast<Event&>(queue_.top())) — undefined behavior that
// libstdc++'s debug mode flags (mutating through a const reference into
// a container invalidates the heap's ordering invariants). The simulator
// now extracts from its own binary heap; this binary exercises the same
// push/pop/cascade patterns with debug-mode container checks on. It is
// assert-based and compiles src/net/simulator.cpp directly because
// _GLIBCXX_DEBUG changes container ABI: linking the prebuilt library or
// gtest would mix incompatible layouts. The cancel cases drive the
// heap's position bookkeeping (every key move updates its slot's
// recorded position) through the hardened containers.
#undef NDEBUG
#include <cassert>
#include <cstdint>
#include <vector>

#include "net/simulator.hpp"
#include "util/ensure.hpp"

using mcss::net::EventHandle;
using mcss::net::SimTime;
using mcss::net::Simulator;

namespace {

void ordering_and_ties() {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(30, [&] { order.push_back(3); });
  sim.schedule_at(10, [&] { order.push_back(1); });
  sim.schedule_at(10, [&] { order.push_back(2); });
  sim.schedule_at(20, [&] { order.push_back(4); });
  sim.run();
  assert((order == std::vector<int>{1, 2, 4, 3}));
  assert(sim.now() == 30);
}

void reentrant_cascades() {
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
  assert(fired == 3);
  assert(sim.now() == 10);
}

void heavy_interleaved_churn() {
  // Many pushes racing pops through run_before windows: the pattern that
  // scrambled the old const_cast heap hardest.
  Simulator sim;
  std::uint64_t fired = 0;
  for (int i = 0; i < 2000; ++i) {
    const SimTime t = (i * 7919) % 1000;
    sim.schedule_at(t, [&sim, &fired, t] {
      ++fired;
      if (t + 500 < 1000) sim.schedule_at(t + 500, [&fired] { ++fired; });
    });
  }
  SimTime window = 0;
  std::uint64_t processed = 0;
  while (sim.pending() > 0) {
    window += 100;
    processed += sim.run_before(window);
  }
  assert(processed == fired);
  assert(fired > 2000);
}

void run_before_boundary() {
  Simulator sim;
  int at_boundary = 0;
  sim.schedule_at(5, [] {});
  sim.schedule_at(10, [&] { ++at_boundary; });
  const std::uint64_t n = sim.run_before(10);
  assert(n == 1);
  assert(at_boundary == 0);
  assert(sim.now() == 5);
  sim.run();
  assert(at_boundary == 1);
}

void rejects_past() {
  Simulator sim;
  sim.schedule_at(10, [] {});
  sim.run();
  bool threw = false;
  try {
    sim.schedule_at(5, [] {});
  } catch (const mcss::PreconditionError&) {
    threw = true;
  }
  assert(threw);
}

void cancel_head() {
  Simulator sim;
  std::vector<int> order;
  const EventHandle head = sim.schedule_at(1, [&] { order.push_back(1); });
  sim.schedule_at(2, [&] { order.push_back(2); });
  sim.schedule_at(3, [&] { order.push_back(3); });
  assert(sim.cancel(head));
  assert(*sim.next_event_time() == 2);
  sim.run();
  assert((order == std::vector<int>{2, 3}));
}

void cancel_middle() {
  // Cancel every third of many events so removals land at interior heap
  // positions and the refill key must sift both up and down.
  Simulator sim;
  std::vector<EventHandle> handles;
  std::vector<SimTime> fired;
  for (int i = 0; i < 1000; ++i) {
    const SimTime t = (i * 7919) % 509;
    handles.push_back(
        sim.schedule_at(t, [&sim, &fired] { fired.push_back(sim.now()); }));
  }
  std::size_t cancelled = 0;
  for (std::size_t i = 1; i < handles.size(); i += 3) {
    assert(sim.cancel(handles[i]));
    ++cancelled;
  }
  assert(sim.pending() == handles.size() - cancelled);
  sim.run();
  assert(fired.size() == handles.size() - cancelled);
  for (std::size_t i = 1; i < fired.size(); ++i) assert(fired[i - 1] <= fired[i]);
}

void cancel_from_callback() {
  Simulator sim;
  int later_fired = 0;
  EventHandle later;
  sim.schedule_at(10, [&] { assert(sim.cancel(later)); });
  later = sim.schedule_at(10, [&] { ++later_fired; });
  sim.schedule_at(20, [] {});
  sim.run();
  assert(later_fired == 0);
  assert(sim.processed() == 2);
}

void cancel_after_fire() {
  Simulator sim;
  const EventHandle done = sim.schedule_at(5, [] {});
  sim.run();
  assert(!sim.cancel(done));
  assert(!sim.cancel(done));
  assert(!sim.cancel(EventHandle{}));
  // The freed slot is reused; the stale handle must not hit its new event.
  int fired = 0;
  sim.schedule_at(6, [&] { ++fired; });
  assert(!sim.cancel(done));
  sim.run();
  assert(fired == 1);
}

}  // namespace

int main() {
  ordering_and_ties();
  reentrant_cascades();
  heavy_interleaved_churn();
  run_before_boundary();
  rejects_past();
  cancel_head();
  cancel_middle();
  cancel_from_callback();
  cancel_after_fire();
  return 0;
}
