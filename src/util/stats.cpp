#include "util/stats.hpp"

#include <algorithm>

namespace mcss {

void OnlineStats::add(double x) noexcept {
  ++count_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

double OnlineStats::variance() const noexcept {
  return count_ > 1 ? m2_ / static_cast<double>(count_ - 1) : 0.0;
}

void OnlineStats::merge(const OnlineStats& other) noexcept {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const auto n1 = static_cast<double>(count_);
  const auto n2 = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  const double total = n1 + n2;
  mean_ += delta * n2 / total;
  m2_ += other.m2_ + delta * delta * n1 * n2 / total;
  count_ += other.count_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

PercentileTracker PercentileTracker::reservoir(std::size_t capacity,
                                               std::uint64_t seed) {
  PercentileTracker t;
  t.capacity_ = capacity ? capacity : 1;
  t.samples_.reserve(t.capacity_);
  t.rng_ = Rng(seed);
  return t;
}

void PercentileTracker::add(double x) {
  ++seen_;
  if (capacity_ == 0 || samples_.size() < capacity_) {
    samples_.push_back(x);
    sorted_ = false;
    return;
  }
  // Algorithm R: element number `seen_` survives with probability
  // capacity/seen_, replacing a uniformly chosen resident.
  const std::uint64_t j = rng_.uniform_int(seen_);
  if (j < capacity_) {
    samples_[j] = x;
    sorted_ = false;
  }
}

void PercentileTracker::merge(const PercentileTracker& other) {
  if (other.seen_ == 0) return;
  if (capacity_ == 0) {
    // Exact target: concatenate whatever the other retained (its full
    // stream when it is exact too, an unbiased sample otherwise).
    samples_.insert(samples_.end(), other.samples_.begin(),
                    other.samples_.end());
    seen_ += other.seen_;
    sorted_ = false;
    return;
  }
  if (!other.is_reservoir()) {
    // The other's retained values ARE its stream; feeding them through
    // add() continues Algorithm R exactly.
    for (const double x : other.samples_) add(x);
    return;
  }
  // Reservoir + reservoir: draw the merged reservoir from the two pools
  // with stream-size-proportional weights. Each retained value stands
  // for seen/retained stream values; retained values within a reservoir
  // are exchangeable, so consuming them in stored order is unbiased.
  const std::vector<double> a = std::move(samples_);
  const std::vector<double>& b = other.samples_;
  const double per_a =
      a.empty() ? 0.0 : static_cast<double>(seen_) / static_cast<double>(a.size());
  const double per_b = b.empty() ? 0.0
                                 : static_cast<double>(other.seen_) /
                                       static_cast<double>(b.size());
  double wa = static_cast<double>(seen_);
  double wb = static_cast<double>(other.seen_);
  std::size_t ia = 0;
  std::size_t ib = 0;
  samples_.clear();
  while (samples_.size() < capacity_ && (ia < a.size() || ib < b.size())) {
    bool take_a;
    if (ia >= a.size()) {
      take_a = false;
    } else if (ib >= b.size()) {
      take_a = true;
    } else {
      take_a = rng_.uniform() * (wa + wb) < wa;
    }
    if (take_a) {
      samples_.push_back(a[ia++]);
      wa = std::max(0.0, wa - per_a);
    } else {
      samples_.push_back(b[ib++]);
      wb = std::max(0.0, wb - per_b);
    }
  }
  seen_ += other.seen_;
  sorted_ = false;
}

double PercentileTracker::percentile(double q) {
  if (samples_.empty()) return 0.0;
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
  q = std::clamp(q, 0.0, 100.0);
  const double rank = q / 100.0 * static_cast<double>(samples_.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, samples_.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples_[lo] + frac * (samples_[hi] - samples_[lo]);
}

}  // namespace mcss
