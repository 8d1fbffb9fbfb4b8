#include "net/sim_channel.hpp"

#include <algorithm>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/ensure.hpp"

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

void publish(obs::Registry& registry, const ChannelStats& stats) {
  const auto add = [&](std::string_view name, std::uint64_t value) {
    registry.add(registry.counter(name), value);
  };
  add("mcss_channel_frames_offered", stats.frames_offered);
  add("mcss_channel_frames_queued", stats.frames_queued);
  add("mcss_channel_frames_dropped_queue", stats.frames_dropped_queue);
  add("mcss_channel_frames_dropped_loss", stats.frames_dropped_loss);
  add("mcss_channel_frames_dropped_outage", stats.frames_dropped_outage);
  add("mcss_channel_frames_delivered", stats.frames_delivered);
  add("mcss_channel_frames_corrupted", stats.frames_corrupted);
  add("mcss_channel_frames_duplicated", stats.frames_duplicated);
  add("mcss_channel_bytes_delivered", stats.bytes_delivered);
  add("mcss_channel_bytes_queued_total", stats.bytes_queued_total);
}

SimChannel::SimChannel(Simulator& sim, ChannelConfig config, Rng rng,
                       std::string name)
    : sim_(sim), config_(config), rng_(rng), name_(std::move(name)) {
  MCSS_ENSURE(config_.rate_bps > 0.0, "channel rate must be positive");
  MCSS_ENSURE(config_.loss >= 0.0 && config_.loss < 1.0,
              "channel loss must be in [0, 1)");
  MCSS_ENSURE(config_.delay >= 0, "channel delay must be nonnegative");
  MCSS_ENSURE(config_.jitter >= 0, "jitter must be nonnegative");
  MCSS_ENSURE(config_.corrupt >= 0.0 && config_.corrupt < 1.0,
              "corruption probability must be in [0, 1)");
  MCSS_ENSURE(config_.duplicate >= 0.0 && config_.duplicate < 1.0,
              "duplication probability must be in [0, 1)");
  MCSS_ENSURE(config_.queue_capacity_bytes > 0, "queue capacity must be positive");
  watermark_ = config_.ready_watermark_bytes != 0
                   ? config_.ready_watermark_bytes
                   : std::max<std::size_t>(1, config_.queue_capacity_bytes / 2);
}

SimTime SimChannel::serialization_time(std::size_t bytes) const noexcept {
  const double seconds = static_cast<double>(bytes) * 8.0 / config_.rate_bps;
  return from_seconds(seconds);
}

SimTime SimChannel::backlog_time() const noexcept {
  // Remaining time on the serializer plus the queued-but-not-yet-serializing
  // bytes (queued_bytes_ still includes the in-flight head frame).
  SimTime t = std::max<SimTime>(0, serializer_free_at_ - sim_.now());
  t += serialization_time(queued_bytes_ - serializing_bytes_);
  return t;
}

bool SimChannel::try_send(std::vector<std::uint8_t> frame) {
  ++stats_.frames_offered;
  MCSS_ENSURE(!frame.empty(), "cannot send an empty frame");
  if (queued_bytes_ + frame.size() > config_.queue_capacity_bytes) {
    ++stats_.frames_dropped_queue;
    if (obs::trace_enabled()) {
      obs::Tracer::global().instant("drop_queue", "channel", sim_.now(), 0,
                                    "bytes", frame.size());
    }
    return false;
  }
  queued_bytes_ += frame.size();
  stats_.bytes_queued_total += frame.size();
  ++stats_.frames_queued;
  was_ready_ = ready();
  queue_.push_back({std::move(frame), sim_.now()});
  if (!transmitting_) start_transmission();
  return true;
}

void SimChannel::start_transmission() {
  if (queue_.empty()) {
    transmitting_ = false;
    return;
  }
  transmitting_ = true;
  // Serialize the head-of-line frame; completion pops it and recurses.
  const std::size_t bytes = queue_.front().bytes.size();
  serializing_bytes_ = bytes;
  const SimTime start = sim_.now();
  const SimTime done = start + serialization_time(bytes);
  serializer_free_at_ = done;
  sim_.schedule_at(done, [this, start] {
    std::vector<std::uint8_t> frame = std::move(queue_.front().bytes);
    const SimTime enqueued_at = queue_.front().enqueued_at;
    queue_.pop_front();
    queued_bytes_ -= frame.size();
    serializing_bytes_ = 0;

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

    // netem-equivalent loss: decided as the frame leaves the serializer.
    if (down_) {
      ++stats_.frames_dropped_outage;
      if (obs::trace_enabled()) {
        obs::Tracer::global().instant("drop_outage", "channel", sim_.now(), 0,
                                      "bytes", frame.size());
      }
    } else if (rng_.bernoulli(config_.loss)) {
      ++stats_.frames_dropped_loss;
      if (obs::trace_enabled()) {
        obs::Tracer::global().instant("drop_loss", "channel", sim_.now(), 0,
                                      "bytes", frame.size());
      }
    } else {
      // netem corrupt: flip one uniformly random bit.
      if (rng_.bernoulli(config_.corrupt)) {
        ++stats_.frames_corrupted;
        const auto bit = rng_.uniform_int(frame.size() * 8);
        frame[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
      }
      const int copies = rng_.bernoulli(config_.duplicate) ? 2 : 1;
      if (copies == 2) ++stats_.frames_duplicated;
      for (int copy = 0; copy < copies; ++copy) {
        ++stats_.frames_delivered;
        stats_.bytes_delivered += frame.size();
        if (deliver_) {
          // Jitter draws independently per copy, so duplicates (and
          // successive frames) can reorder, as with real netem.
          SimTime extra = config_.delay;
          if (config_.jitter > 0) {
            extra += static_cast<SimTime>(
                rng_.uniform_int(static_cast<std::uint64_t>(config_.jitter) + 1));
          }
          sim_.schedule_in(extra, [this, f = frame]() mutable {
            deliver_(std::move(f));
          });
        }
      }
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
