// Streaming statistics used by the measurement harness.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "util/rng.hpp"

namespace mcss {

/// Welford online mean/variance plus min/max, in O(1) space.
class OnlineStats {
 public:
  void add(double x) noexcept;

  [[nodiscard]] std::size_t count() const noexcept { return count_; }
  [[nodiscard]] double mean() const noexcept { return count_ ? mean_ : 0.0; }
  /// Sample variance (n-1 denominator); 0 with fewer than two samples.
  [[nodiscard]] double variance() const noexcept;
  [[nodiscard]] double min() const noexcept { return count_ ? min_ : 0.0; }
  [[nodiscard]] double max() const noexcept { return count_ ? max_ : 0.0; }
  [[nodiscard]] double sum() const noexcept { return sum_; }

  /// Merge another accumulator into this one (parallel Welford).
  void merge(const OnlineStats& other) noexcept;

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Stores samples and answers percentile queries; sorts lazily on demand.
///
/// Two modes:
///   - exact (default): every sample is kept, percentiles are exact.
///     Memory grows with the stream; identical behavior to the original
///     tracker, bit for bit.
///   - reservoir(capacity, seed): bounded memory. Keeps a uniform random
///     sample of at most `capacity` values via Algorithm R, driven by a
///     seeded mcss::Rng so runs are reproducible. Percentiles become
///     estimates; count() still reports every value ever seen.
class PercentileTracker {
 public:
  explicit PercentileTracker(std::size_t reserve = 0) { samples_.reserve(reserve); }

  /// Bounded-memory tracker keeping a uniform sample of `capacity`
  /// values (capacity must be positive).
  [[nodiscard]] static PercentileTracker reservoir(std::size_t capacity,
                                                   std::uint64_t seed = 1);

  void add(double x);
  /// Values observed (not values retained).
  [[nodiscard]] std::size_t count() const noexcept { return seen_; }
  /// Values currently retained (== count() in exact mode).
  [[nodiscard]] std::size_t retained() const noexcept {
    return samples_.size();
  }
  [[nodiscard]] bool is_reservoir() const noexcept { return capacity_ != 0; }

  /// Fold another tracker's samples into this one. Exact + exact
  /// concatenates (still exact). A reservoir target resamples: the
  /// other's retained values are taken as representatives of its
  /// count() stream values and accepted with the weighted probability
  /// that makes the merged reservoir a uniform sample of both streams.
  void merge(const PercentileTracker& other);

  /// Linear-interpolated percentile, q in [0, 100]. Returns 0 when empty.
  [[nodiscard]] double percentile(double q);
  [[nodiscard]] double median() { return percentile(50.0); }

 private:
  std::vector<double> samples_;
  bool sorted_ = true;
  std::size_t seen_ = 0;
  std::size_t capacity_ = 0;  ///< 0 = exact mode
  Rng rng_{1};
};

}  // namespace mcss
