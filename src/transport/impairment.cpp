#include "transport/impairment.hpp"

#include <algorithm>
#include <utility>

#include "transport/wall_clock.hpp"
#include "util/ensure.hpp"

namespace mcss::transport {

Impairment::Impairment(net::ChannelConfig config, Rng rng,
                       net::Simulator& timeline, ReleaseFn release)
    : link_(config, rng), timeline_(timeline), release_(std::move(release)) {
  MCSS_ENSURE(release_ != nullptr, "impairment needs a release sink");
}

bool Impairment::offer(util::FrameRef frame, std::int64_t now_ns) {
  MCSS_ENSURE(frame, "cannot send an empty frame");
  const auto departure = link_.offer(frame.size(), now_ns);
  if (!departure) return false;
  if (*departure <= now_ns && serializer_.empty()) {
    // Transparent-channel fast path: the serializer was idle and the
    // charge rounded to zero, so the frame departs right now, without
    // queueing. Draw order matches the queued path: the departure event
    // would have fired before any later offer.
    depart(std::move(frame));
    return true;
  }
  serializer_.push_back(std::move(frame));
  if (!departure_armed_) {
    // The new frame is the head: an armed event always sits on the head,
    // and later offers queue behind it.
    departure_armed_ = true;
    schedule_wall(timeline_, *departure, [this] { on_departures(); });
  }
  return true;
}

void Impairment::on_departures() {
  departure_armed_ = false;
  while (!serializer_.empty() && link_.head_departure() <= timeline_.now()) {
    util::FrameRef frame = std::move(serializer_.front());
    serializer_.pop_front();
    depart(std::move(frame));
  }
  if (!serializer_.empty()) {
    departure_armed_ = true;
    schedule_wall(timeline_, link_.head_departure(),
                  [this] { on_departures(); });
  }
}

void Impairment::depart(util::FrameRef frame) {
  const std::int64_t departure_ns = link_.head_departure();
  const net::LinkModel::Departure d =
      link_.depart({frame.data(), frame.size()});
  for (int copy = 0; copy < d.copies; ++copy) {
    // Duplicates SHARE the pooled slot (refcount, not copy): both
    // releases read the same post-corruption bytes.
    const std::int64_t extra = d.delay[static_cast<std::size_t>(copy)];
    const std::int64_t release_at = departure_ns + extra;
    util::FrameRef out = copy + 1 < d.copies ? frame : std::move(frame);
    if (extra == 0) {
      // No netem delay to model: hand the frame straight to the channel
      // (the second leg of the transparent fast path).
      release_(std::move(out), release_at);
      continue;
    }
    delay_line_.push_back({release_at, delay_seq_++, std::move(out)});
    std::push_heap(delay_line_.begin(), delay_line_.end(), later);
    arm_release(release_at);
  }
}

bool Impairment::later(const Delayed& a, const Delayed& b) noexcept {
  return a.release_ns != b.release_ns ? a.release_ns > b.release_ns
                                      : a.seq > b.seq;
}

void Impairment::arm_release(std::int64_t release_ns) {
  if (release_armed_) {
    if (release_armed_at_ <= release_ns) return;
    // Jitter put this frame ahead of the armed head: move the event.
    timeline_.cancel(release_event_);
  }
  release_armed_ = true;
  release_armed_at_ = release_ns;
  release_event_ =
      schedule_wall(timeline_, release_ns, [this] { on_releases(); });
}

void Impairment::on_releases() {
  release_armed_ = false;
  while (!delay_line_.empty() &&
         delay_line_.front().release_ns <= timeline_.now()) {
    std::pop_heap(delay_line_.begin(), delay_line_.end(), later);
    Delayed d = std::move(delay_line_.back());
    delay_line_.pop_back();
    release_(std::move(d.frame), d.release_ns);
  }
  if (!delay_line_.empty()) arm_release(delay_line_.front().release_ns);
}

}  // namespace mcss::transport
