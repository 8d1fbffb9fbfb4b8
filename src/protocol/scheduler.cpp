#include "protocol/scheduler.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "util/ensure.hpp"
#include "util/subset.hpp"

namespace mcss::proto {

// ------------------------------------------------------------ ChannelList

ChannelList::ChannelList(std::span<const int> channels) {
  for (const int ch : channels) push_back(ch);
}

void ChannelList::push_back(int channel) {
  MCSS_ENSURE(size_ < kCapacity, "more than 32 channels in one decision");
  channels_[size_++] = channel;
}

void ChannelList::truncate(std::size_t n) {
  MCSS_ENSURE(n <= size_, "truncate beyond the list");
  size_ = n;
}

bool operator==(const ChannelList& a, std::span<const int> b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end());
}

// ---------------------------------------------------------------- Dynamic

DynamicScheduler::DynamicScheduler(double kappa, double mu, int num_channels)
    : dither_(kappa, mu, num_channels) {}

std::optional<ShareDecision> DynamicScheduler::next(
    std::span<const ChannelView> channels) {
  if (!pending_) pending_ = dither_.next();
  const int m = pending_->m;

  // Ready channels sorted by least backlog (ties by index for determinism).
  ChannelList ready;
  for (int i = 0; i < static_cast<int>(channels.size()); ++i) {
    if (channels[static_cast<std::size_t>(i)].ready) ready.push_back(i);
  }
  if (static_cast<int>(ready.size()) < m) return std::nullopt;
  // The index tiebreak is explicit, not delegated to sort stability:
  // equal-backlog channels (common at startup, when every backlog is 0)
  // must pick the same M on every stdlib, or sweep outputs diverge
  // between toolchains. A total order also keeps the choice stable if
  // the sort is ever swapped for an unstable partial_sort.
  std::sort(ready.begin(), ready.end(), [&](int a, int b) {
    const net::SimTime ba = channels[static_cast<std::size_t>(a)].backlog;
    const net::SimTime bb = channels[static_cast<std::size_t>(b)].backlog;
    return ba != bb ? ba < bb : a < b;
  });
  ready.truncate(static_cast<std::size_t>(m));

  ShareDecision d{pending_->k, ready};
  pending_.reset();
  return d;
}

// ---------------------------------------------------------------- Static

StaticScheduler::StaticScheduler(ShareSchedule schedule, Rng rng,
                                 std::size_t pool_limit)
    : schedule_(std::move(schedule)), rng_(rng), pool_limit_(pool_limit) {
  MCSS_ENSURE(pool_limit_ >= 1, "pool limit must be at least 1");
}

std::optional<ShareDecision> StaticScheduler::next(
    std::span<const ChannelView> channels) {
  const auto dispatchable = [&](const ScheduleEntry& e) {
    bool all_ready = true;
    for_each_member(e.channels, [&](int i) {
      if (!channels[static_cast<std::size_t>(i)].ready) all_ready = false;
    });
    return all_ready;
  };

  // Oldest parked decision whose subset has become writable goes first.
  for (std::size_t i = 0; i < parked_.size(); ++i) {
    if (dispatchable(parked_[i])) {
      ShareDecision d{parked_[i].k,
                      ChannelList(mask_members(parked_[i].channels))};
      parked_.erase(parked_.begin() + static_cast<std::ptrdiff_t>(i));
      ++stats_.parked_dispatched;
      return d;
    }
  }

  // Draw fresh samples, parking blocked ones. Bounded to pool_limit_
  // draws per call; a full pool evicts its oldest entry rather than
  // stopping the draw — otherwise pool_limit_ permanently-undispatchable
  // entries would pin the scheduler at "wait" forever, deadlocking the
  // sender even when subsets the schedule can still sample are writable.
  for (std::size_t draw = 0; draw < pool_limit_; ++draw) {
    const ScheduleEntry e = schedule_.sample(rng_);
    if (dispatchable(e)) {
      return ShareDecision{e.k, ChannelList(mask_members(e.channels))};
    }
    if (parked_.size() >= pool_limit_) {
      parked_.erase(parked_.begin());
      ++stats_.parked_evicted;
    }
    parked_.push_back(e);
  }
  return std::nullopt;
}

// ---------------------------------------------------------------- Fixed

FixedScheduler::FixedScheduler(int k, std::span<const int> channels)
    : k_(k), channels_(channels) {
  MCSS_ENSURE(k >= 1 && static_cast<std::size_t>(k) <= channels_.size(),
              "need 1 <= k <= |M|");
}

std::optional<ShareDecision> FixedScheduler::next(
    std::span<const ChannelView> channels) {
  for (int ch : channels_) {
    MCSS_ENSURE(ch >= 0 && static_cast<std::size_t>(ch) < channels.size(),
                "channel out of range");
    if (!channels[static_cast<std::size_t>(ch)].ready) return std::nullopt;
  }
  return ShareDecision{k_, channels_};
}

// ------------------------------------------------------------- metrics

void publish(obs::Registry& registry, const StaticSchedulerStats& stats) {
  registry.add(registry.counter("mcss_scheduler_parked_evicted"),
               stats.parked_evicted);
  registry.add(registry.counter("mcss_scheduler_parked_dispatched"),
               stats.parked_dispatched);
}

void StaticScheduler::publish_metrics(obs::Registry& registry) const {
  publish(registry, stats_);
}

}  // namespace mcss::proto
