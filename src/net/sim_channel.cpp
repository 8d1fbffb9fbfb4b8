#include "net/sim_channel.hpp"

#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace mcss::net {

namespace {

/// Sim-time a frame waited in the transmit queue before serialization.
/// Invalid (a no-op to observe) while metrics are disabled.
obs::HistogramId queue_wait_hist() {
  if (!obs::metrics_enabled()) return {};
  return obs::Registry::global().histogram(
      "mcss_channel_queue_wait_seconds", obs::exp_bounds(1e-6, 2.0, 24));
}

}  // namespace

SimChannel::SimChannel(Simulator& sim, ChannelConfig config, Rng rng,
                       std::string name)
    : sim_(sim), link_(config, rng), name_(std::move(name)) {}

bool SimChannel::try_send(std::vector<std::uint8_t> frame) {
  if (!link_.offer(frame.size(), sim_.now())) {
    if (obs::trace_enabled()) {
      obs::Tracer::global().instant("drop_queue", "channel", sim_.now(), 0,
                                    "bytes", frame.size());
    }
    return false;
  }
  was_ready_ = ready();
  queue_.push_back({std::move(frame), sim_.now()});
  if (!transmitting_) start_transmission();
  return true;
}

void SimChannel::start_transmission() {
  transmitting_ = head_started_ = !queue_.empty();
  if (!transmitting_) return;
  // Serialize the head-of-line frame; completion pops it and recurses.
  const SimTime done = link_.head_departure();
  const SimTime start =
      done - link_.serialization_time(queue_.front().bytes.size());
  sim_.schedule_at(done, [this, start] {
    std::vector<std::uint8_t> frame = std::move(queue_.front().bytes);
    const SimTime enqueued_at = queue_.front().enqueued_at;
    queue_.pop_front();
    head_started_ = false;

    if (obs::metrics_enabled()) {
      obs::Registry::global().observe(queue_wait_hist(),
                                      to_seconds(start - enqueued_at));
    }
    if (obs::trace_enabled()) {
      obs::Tracer::global().complete("serialize", "channel", start,
                                     sim_.now() - start, 0, "bytes",
                                     frame.size(), "waited_ns",
                                     static_cast<std::uint64_t>(start - enqueued_at));
    }

    const LinkModel::Departure d = link_.depart(frame, down_);
    if (d.copies == 0 && obs::trace_enabled()) {
      obs::Tracer::global().instant(down_ ? "drop_outage" : "drop_loss",
                                    "channel", sim_.now(), 0, "bytes",
                                    frame.size());
    }
    for (int copy = 0; copy < d.copies && deliver_; ++copy) {
      std::vector<std::uint8_t> f =
          copy + 1 < d.copies ? frame : std::move(frame);
      sim_.schedule_in(d.delay[static_cast<std::size_t>(copy)],
                       [this, f = std::move(f)]() mutable {
                         deliver_(std::move(f));
                       });
    }

    const bool now_ready = ready();
    if (now_ready && !was_ready_ && writable_) {
      was_ready_ = true;
      writable_();
    } else {
      was_ready_ = now_ready;
    }
    start_transmission();
  });
}

}  // namespace mcss::net
