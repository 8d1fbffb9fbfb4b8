#include "net/link_model.hpp"

#include <algorithm>
#include <string_view>

#include "obs/metrics.hpp"
#include "util/ensure.hpp"

namespace mcss::net {

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

LinkModel::LinkModel(ChannelConfig config, Rng rng)
    : config_(config), rng_(rng) {
  MCSS_ENSURE(config_.rate_bps > 0.0, "channel rate must be positive");
  MCSS_ENSURE(config_.loss >= 0.0 && config_.loss < 1.0,
              "channel loss must be in [0, 1)");
  MCSS_ENSURE(config_.delay >= 0, "channel delay must be nonnegative");
  MCSS_ENSURE(config_.jitter >= 0, "jitter must be nonnegative");
  MCSS_ENSURE(config_.corrupt >= 0.0 && config_.corrupt < 1.0,
              "corruption probability must be in [0, 1)");
  MCSS_ENSURE(config_.duplicate >= 0.0 && config_.duplicate < 1.0,
              "duplication probability must be in [0, 1)");
  MCSS_ENSURE(config_.queue_capacity_bytes > 0,
              "queue capacity must be positive");
  watermark_ = config_.ready_watermark_bytes != 0
                   ? config_.ready_watermark_bytes
                   : std::max<std::size_t>(1, config_.queue_capacity_bytes / 2);
}

SimTime LinkModel::serialization_time(std::size_t bytes) const noexcept {
  return from_seconds(static_cast<double>(bytes) * 8.0 / config_.rate_bps);
}

std::optional<SimTime> LinkModel::offer(std::size_t bytes, SimTime now) {
  ++stats_.frames_offered;
  MCSS_ENSURE(bytes > 0, "cannot send an empty frame");
  if (queued_bytes_ + bytes > config_.queue_capacity_bytes) {
    ++stats_.frames_dropped_queue;
    return std::nullopt;
  }
  queued_bytes_ += bytes;
  stats_.bytes_queued_total += bytes;
  ++stats_.frames_queued;
  // FIFO: this frame departs once everything already accepted has.
  free_at_ = std::max(free_at_, now) + serialization_time(bytes);
  through_ += bytes;
  fifo_.push_back({free_at_, through_});
  return free_at_;
}

LinkModel::Departure LinkModel::depart(std::span<std::uint8_t> frame,
                                       bool down) {
  fifo_.pop_front();
  queued_bytes_ -= frame.size();
  Departure out;
  if (down) {
    ++stats_.frames_dropped_outage;
    return out;
  }
  if (rng_.bernoulli(config_.loss)) {
    ++stats_.frames_dropped_loss;
    return out;
  }
  // netem corrupt: flip one uniformly random bit.
  if (rng_.bernoulli(config_.corrupt)) {
    ++stats_.frames_corrupted;
    const auto bit = rng_.uniform_int(frame.size() * 8);
    frame[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
  }
  out.copies = rng_.bernoulli(config_.duplicate) ? 2 : 1;
  if (out.copies == 2) ++stats_.frames_duplicated;
  stats_.frames_delivered += static_cast<std::uint64_t>(out.copies);
  stats_.bytes_delivered += static_cast<std::uint64_t>(out.copies) * frame.size();
  // Jitter draws independently per copy, so duplicates (and successive
  // frames) can reorder, as with real netem.
  for (int copy = 0; copy < out.copies; ++copy) {
    SimTime extra = config_.delay;
    if (config_.jitter > 0) {
      extra += static_cast<SimTime>(
          rng_.uniform_int(static_cast<std::uint64_t>(config_.jitter) + 1));
    }
    out.delay[static_cast<std::size_t>(copy)] = extra;
  }
  return out;
}

std::optional<SimTime> LinkModel::below_at(std::size_t limit) const noexcept {
  if (queued_bytes_ < limit) return std::nullopt;
  // Bytes left once frame i has departed: through_ minus its running
  // count, which rises with i. Find the first i that leaves fewer than
  // `limit` (the last frame leaves none, and limit >= 1 when the backlog
  // is not below it yet, so one exists).
  const std::uint64_t need = through_ - limit;
  std::size_t lo = 0;
  std::size_t hi = fifo_.size() - 1;
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (fifo_[mid].through > need) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return fifo_[lo].departure;
}

SimTime LinkModel::backlog(SimTime now, bool head_started) const noexcept {
  if (fifo_.empty()) return 0;
  if (!head_started) return serialization_time(queued_bytes_);
  // The head's size: its running count minus everything that departed
  // before it (through_ - queued_bytes_).
  const std::uint64_t head_bytes = fifo_[0].through - (through_ - queued_bytes_);
  return std::max<SimTime>(0, fifo_[0].departure - now) +
         serialization_time(queued_bytes_ - head_bytes);
}

}  // namespace mcss::net
