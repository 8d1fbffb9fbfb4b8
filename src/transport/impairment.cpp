#include "transport/impairment.hpp"

#include <algorithm>
#include <utility>

#include "net/sim_time.hpp"
#include "transport/wall_clock.hpp"
#include "util/ensure.hpp"

namespace mcss::transport {

Impairment::Impairment(net::ChannelConfig config, Rng rng,
                       net::Simulator& timeline, ReleaseFn release)
    : config_(config),
      rng_(rng),
      timeline_(timeline),
      release_(std::move(release)) {
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
  MCSS_ENSURE(release_ != nullptr, "impairment needs a release sink");
  watermark_ = config_.ready_watermark_bytes != 0
                   ? config_.ready_watermark_bytes
                   : std::max<std::size_t>(1, config_.queue_capacity_bytes / 2);
}

std::int64_t Impairment::serialization_ns(std::size_t bytes) const noexcept {
  const double seconds = static_cast<double>(bytes) * 8.0 / config_.rate_bps;
  return net::from_seconds(seconds);
}

bool Impairment::offer(util::FrameRef frame, std::int64_t now_ns) {
  ++stats_.frames_offered;
  MCSS_ENSURE(frame && frame.size() > 0, "cannot send an empty frame");
  if (queued_bytes_ + frame.size() > config_.queue_capacity_bytes) {
    ++stats_.frames_dropped_queue;
    return false;
  }
  queued_bytes_ += frame.size();
  stats_.bytes_queued_total += frame.size();
  ++stats_.frames_queued;

  // Charge the serializer up front: FIFO means this frame departs once
  // everything already accepted has, so its departure time is known at
  // offer time. The timeline fires departures in deadline order, which
  // is exactly arrival order here (the serializer is monotone).
  const std::int64_t start = std::max(serializer_free_at_, now_ns);
  const std::int64_t departure = start + serialization_ns(frame.size());
  serializer_free_at_ = departure;
  if (departure <= now_ns) {
    // Transparent-channel fast path: the serializer was idle and the
    // charge rounded to zero, so the frame departs right now — skip the
    // timer and its type-erased closure (the hot path's only heap
    // allocation). Draw order matches the scheduled path exactly: the
    // timeline would have fired this departure before any later offer.
    depart(std::move(frame), departure);
    return true;
  }
  schedule_wall(timeline_, departure,
                [this, departure, f = std::move(frame)]() mutable {
                  depart(std::move(f), departure);
                });
  return true;
}

void Impairment::depart(util::FrameRef frame, std::int64_t departure_ns) {
  queued_bytes_ -= frame.size();
  // netem-equivalent loss: decided as the frame leaves the serializer,
  // with the same draw order as SimChannel so the two impairment paths
  // stay behaviorally interchangeable.
  if (rng_.bernoulli(config_.loss)) {
    ++stats_.frames_dropped_loss;
    return;
  }
  if (rng_.bernoulli(config_.corrupt)) {
    ++stats_.frames_corrupted;
    const auto bit = rng_.uniform_int(frame.size() * 8);
    frame.data()[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
  }
  const int copies = rng_.bernoulli(config_.duplicate) ? 2 : 1;
  if (copies == 2) ++stats_.frames_duplicated;
  for (int copy = 0; copy < copies; ++copy) {
    ++stats_.frames_delivered;
    stats_.bytes_delivered += frame.size();
    // Jitter draws independently per copy, so duplicates (and successive
    // frames) can reorder, as with real netem. Duplicates SHARE the
    // pooled slot (refcount, not copy) — both releases read the same
    // post-corruption bytes, which is what the old copying path produced.
    std::int64_t extra = config_.delay;
    if (config_.jitter > 0) {
      extra += static_cast<std::int64_t>(
          rng_.uniform_int(static_cast<std::uint64_t>(config_.jitter) + 1));
    }
    const std::int64_t release_at = departure_ns + extra;
    if (extra == 0) {
      // No netem delay to model: hand the frame straight to the channel
      // (the second leg of the transparent fast path).
      release_(copy + 1 < copies ? frame : std::move(frame), release_at);
      continue;
    }
    schedule_wall(timeline_, release_at,
                  [this, release_at,
                   f = copy + 1 < copies ? frame : std::move(frame)]() mutable {
                    release_(std::move(f), release_at);
                  });
  }
}

}  // namespace mcss::transport
