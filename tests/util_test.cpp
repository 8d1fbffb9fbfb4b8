// Tests for src/util: rng, stats, subset helpers, Poisson binomial,
// backoff, ring.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <set>
#include <vector>

#include "util/backoff.hpp"
#include "util/ensure.hpp"
#include "util/id_window.hpp"
#include "util/intrusive_list.hpp"
#include "util/link_risk.hpp"
#include "util/poisson_binomial.hpp"
#include "util/ring.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/subset.hpp"

namespace mcss {
namespace {

// ---------------------------------------------------------------- Rng

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 1000; ++i) equal += (a() == b());
  EXPECT_LT(equal, 5);
}

TEST(Rng, ZeroSeedIsUsable) {
  Rng r(0);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 100; ++i) seen.insert(r());
  EXPECT_GT(seen.size(), 95u);  // not stuck, not repeating
}

TEST(Rng, UniformInHalfOpenUnitInterval) {
  Rng r(7);
  for (int i = 0; i < 100000; ++i) {
    const double u = r.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanIsHalf) {
  Rng r(11);
  OnlineStats s;
  for (int i = 0; i < 200000; ++i) s.add(r.uniform());
  EXPECT_NEAR(s.mean(), 0.5, 0.005);
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng r(3);
  for (int i = 0; i < 10000; ++i) {
    const double u = r.uniform(-2.5, 7.25);
    ASSERT_GE(u, -2.5);
    ASSERT_LT(u, 7.25);
  }
}

TEST(Rng, UniformIntBounds) {
  Rng r(5);
  std::array<int, 10> counts{};
  for (int i = 0; i < 100000; ++i) {
    const auto v = r.uniform_int(10);
    ASSERT_LT(v, 10u);
    counts[v]++;
  }
  for (const int c : counts) {
    EXPECT_NEAR(c, 10000, 600);  // ~6 sigma for a fair die
  }
}

TEST(Rng, UniformIntZeroBound) {
  Rng r(5);
  EXPECT_EQ(r.uniform_int(0), 0u);
}

TEST(Rng, UniformIntBoundOne) {
  Rng r(5);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(r.uniform_int(1), 0u);
}

TEST(Rng, BernoulliExtremes) {
  Rng r(9);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_FALSE(r.bernoulli(0.0));
    EXPECT_TRUE(r.bernoulli(1.0));
    EXPECT_FALSE(r.bernoulli(-0.5));
    EXPECT_TRUE(r.bernoulli(1.5));
  }
}

TEST(Rng, BernoulliFrequencyMatchesP) {
  Rng r(13);
  int hits = 0;
  const int trials = 200000;
  for (int i = 0; i < trials; ++i) hits += r.bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / trials, 0.3, 0.005);
}

TEST(Rng, ExponentialMeanMatches) {
  Rng r(17);
  OnlineStats s;
  for (int i = 0; i < 200000; ++i) s.add(r.exponential(2.5));
  EXPECT_NEAR(s.mean(), 2.5, 0.05);
  EXPECT_GE(s.min(), 0.0);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng parent(23);
  Rng child = parent.fork();
  int equal = 0;
  for (int i = 0; i < 1000; ++i) equal += (parent() == child());
  EXPECT_LT(equal, 5);
}

TEST(Rng, SatisfiesUniformRandomBitGenerator) {
  static_assert(std::uniform_random_bit_generator<Rng>);
  SUCCEED();
}

// ---------------------------------------------------------------- OnlineStats

TEST(OnlineStats, EmptyIsZero) {
  OnlineStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(OnlineStats, KnownValues) {
  OnlineStats s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
  EXPECT_EQ(s.sum(), 40.0);
}

TEST(OnlineStats, SingleValueHasZeroVariance) {
  OnlineStats s;
  s.add(3.14);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.mean(), 3.14);
}

TEST(OnlineStats, MergeMatchesSequential) {
  Rng r(31);
  OnlineStats whole, left, right;
  for (int i = 0; i < 1000; ++i) {
    const double x = r.uniform(-5, 5);
    whole.add(x);
    (i < 400 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), whole.count());
  EXPECT_NEAR(left.mean(), whole.mean(), 1e-12);
  EXPECT_NEAR(left.variance(), whole.variance(), 1e-9);
  EXPECT_EQ(left.min(), whole.min());
  EXPECT_EQ(left.max(), whole.max());
}

TEST(OnlineStats, MergeWithEmpty) {
  OnlineStats a, empty;
  a.add(1.0);
  a.add(2.0);
  const double mean = a.mean();
  a.merge(empty);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.mean(), mean);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 2u);
  EXPECT_EQ(empty.mean(), mean);
}

// ---------------------------------------------------------------- PercentileTracker

TEST(PercentileTracker, MedianOfOddCount) {
  PercentileTracker t;
  for (const double x : {5.0, 1.0, 3.0}) t.add(x);
  EXPECT_DOUBLE_EQ(t.median(), 3.0);
}

TEST(PercentileTracker, InterpolatesBetweenSamples) {
  PercentileTracker t;
  for (const double x : {0.0, 10.0}) t.add(x);
  EXPECT_DOUBLE_EQ(t.percentile(50.0), 5.0);
  EXPECT_DOUBLE_EQ(t.percentile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(t.percentile(100.0), 10.0);
}

TEST(PercentileTracker, EmptyReturnsZero) {
  PercentileTracker t;
  EXPECT_EQ(t.percentile(50.0), 0.0);
}

TEST(PercentileTracker, AddAfterQueryResorts) {
  PercentileTracker t;
  t.add(10.0);
  EXPECT_DOUBLE_EQ(t.median(), 10.0);
  t.add(0.0);
  t.add(2.0);
  EXPECT_DOUBLE_EQ(t.median(), 2.0);
}

TEST(PercentileTracker, ClampsQueryRange) {
  PercentileTracker t;
  t.add(1.0);
  t.add(2.0);
  EXPECT_DOUBLE_EQ(t.percentile(-10.0), 1.0);
  EXPECT_DOUBLE_EQ(t.percentile(200.0), 2.0);
}

TEST(PercentileTracker, ExactMergeConcatenates) {
  PercentileTracker a, b;
  for (const double x : {1.0, 3.0}) a.add(x);
  for (const double x : {2.0, 4.0}) b.add(x);
  a.merge(b);
  EXPECT_EQ(a.count(), 4u);
  EXPECT_EQ(a.retained(), 4u);
  EXPECT_FALSE(a.is_reservoir());
  EXPECT_DOUBLE_EQ(a.percentile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(a.percentile(100.0), 4.0);
  EXPECT_DOUBLE_EQ(a.median(), 2.5);
}

TEST(PercentileTracker, MergeEmptyIsNoop) {
  PercentileTracker a, empty;
  a.add(7.0);
  a.merge(empty);
  EXPECT_EQ(a.count(), 1u);
  EXPECT_DOUBLE_EQ(a.median(), 7.0);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 1u);
  EXPECT_DOUBLE_EQ(empty.median(), 7.0);
}

TEST(PercentileTracker, ReservoirStaysBounded) {
  auto t = PercentileTracker::reservoir(64, 9);
  for (int i = 0; i < 10000; ++i) t.add(static_cast<double>(i));
  EXPECT_TRUE(t.is_reservoir());
  EXPECT_EQ(t.count(), 10000u);   // every value seen is counted
  EXPECT_EQ(t.retained(), 64u);   // memory stays at capacity
}

TEST(PercentileTracker, ReservoirBelowCapacityIsExactSample) {
  auto t = PercentileTracker::reservoir(100, 1);
  for (const double x : {5.0, 1.0, 3.0}) t.add(x);
  EXPECT_EQ(t.retained(), 3u);
  EXPECT_DOUBLE_EQ(t.median(), 3.0);  // nothing evicted yet: exact
}

TEST(PercentileTracker, ReservoirIsDeterministicPerSeed) {
  auto a = PercentileTracker::reservoir(32, 42);
  auto b = PercentileTracker::reservoir(32, 42);
  for (int i = 0; i < 5000; ++i) {
    a.add(static_cast<double>(i));
    b.add(static_cast<double>(i));
  }
  for (const double q : {1.0, 25.0, 50.0, 75.0, 99.0}) {
    EXPECT_DOUBLE_EQ(a.percentile(q), b.percentile(q));
  }
}

TEST(PercentileTracker, ReservoirEstimatesQuantiles) {
  // A uniform stream 0..9999: the reservoir median should land near
  // 5000. Generous tolerance — it is a 256-sample estimate.
  auto t = PercentileTracker::reservoir(256, 7);
  for (int i = 0; i < 10000; ++i) t.add(static_cast<double>(i));
  EXPECT_NEAR(t.median(), 5000.0, 1500.0);
  EXPECT_LT(t.percentile(10.0), t.percentile(90.0));
}

TEST(PercentileTracker, ReservoirMergeStaysBoundedAndCountsAll) {
  auto a = PercentileTracker::reservoir(64, 3);
  auto b = PercentileTracker::reservoir(64, 4);
  for (int i = 0; i < 1000; ++i) a.add(static_cast<double>(i));
  for (int i = 1000; i < 3000; ++i) b.add(static_cast<double>(i));
  a.merge(b);
  EXPECT_EQ(a.count(), 3000u);
  EXPECT_LE(a.retained(), 64u);
  // b contributed 2/3 of the stream; the merged median should sit well
  // above a's original range midpoint.
  EXPECT_GT(a.median(), 750.0);
}

TEST(PercentileTracker, ReservoirMergeFromExactSource) {
  auto r = PercentileTracker::reservoir(8, 5);
  PercentileTracker exact;
  for (int i = 0; i < 100; ++i) exact.add(static_cast<double>(i));
  r.merge(exact);
  EXPECT_EQ(r.count(), 100u);
  EXPECT_EQ(r.retained(), 8u);
}

// ---------------------------------------------------------------- subset helpers

TEST(Subset, FullMask) {
  EXPECT_EQ(full_mask(0), 0u);
  EXPECT_EQ(full_mask(1), 0b1u);
  EXPECT_EQ(full_mask(5), 0b11111u);
  EXPECT_EQ(full_mask(32), ~Mask{0});
}

TEST(Subset, SizeAndContains) {
  const Mask m = 0b10110;
  EXPECT_EQ(mask_size(m), 3);
  EXPECT_FALSE(mask_contains(m, 0));
  EXPECT_TRUE(mask_contains(m, 1));
  EXPECT_TRUE(mask_contains(m, 2));
  EXPECT_FALSE(mask_contains(m, 3));
  EXPECT_TRUE(mask_contains(m, 4));
}

TEST(Subset, Members) {
  EXPECT_EQ(mask_members(0b10110), (std::vector<int>{1, 2, 4}));
  EXPECT_TRUE(mask_members(0).empty());
}

TEST(Subset, ForEachMemberVisitsAscending) {
  std::vector<int> seen;
  for_each_member(0b1011001, [&](int i) { seen.push_back(i); });
  EXPECT_EQ(seen, (std::vector<int>{0, 3, 4, 6}));
}

TEST(Subset, ForEachSubsetCountsPowerSet) {
  int count = 0;
  std::set<Mask> unique;
  for_each_subset(0b1101, [&](Mask k) {
    ++count;
    unique.insert(k);
    EXPECT_EQ(k & ~Mask{0b1101}, 0u);  // subset relation
  });
  EXPECT_EQ(count, 8);
  EXPECT_EQ(unique.size(), 8u);
}

TEST(Subset, ForEachSubsetOfEmptyVisitsEmptyOnly) {
  int count = 0;
  for_each_subset(0, [&](Mask k) {
    ++count;
    EXPECT_EQ(k, 0u);
  });
  EXPECT_EQ(count, 1);
}

TEST(Subset, ForEachNonemptySubsetCount) {
  int count = 0;
  for_each_nonempty_subset(5, [&](Mask m) {
    ++count;
    EXPECT_NE(m, 0u);
    EXPECT_EQ(m & ~full_mask(5), 0u);
  });
  EXPECT_EQ(count, 31);
}

// ---------------------------------------------------------------- Poisson binomial

TEST(PoissonBinomial, MatchesBinomialClosedForm) {
  // Identical p: pmf[j] = C(5, j) p^j (1-p)^(5-j).
  const double p = 0.3;
  const std::vector<double> probs(5, p);
  const auto pmf = poisson_binomial_pmf(probs);
  ASSERT_EQ(pmf.size(), 6u);
  const double choose[6] = {1, 5, 10, 10, 5, 1};
  for (int j = 0; j <= 5; ++j) {
    EXPECT_NEAR(pmf[static_cast<std::size_t>(j)],
                choose[j] * std::pow(p, j) * std::pow(1 - p, 5 - j), 1e-12);
  }
}

TEST(PoissonBinomial, PmfSumsToOne) {
  Rng r(37);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<double> probs(static_cast<std::size_t>(1 + r.uniform_int(10)));
    for (double& p : probs) p = r.uniform();
    const auto pmf = poisson_binomial_pmf(probs);
    double sum = 0.0;
    for (const double v : pmf) sum += v;
    EXPECT_NEAR(sum, 1.0, 1e-12);
  }
}

TEST(PoissonBinomial, TailsAreComplementary) {
  Rng r(41);
  std::vector<double> probs(7);
  for (double& p : probs) p = r.uniform();
  for (int k = 0; k <= 8; ++k) {
    EXPECT_NEAR(poisson_binomial_tail_geq(probs, k) +
                    poisson_binomial_tail_lt(probs, k),
                1.0, 1e-12);
  }
}

TEST(PoissonBinomial, EdgeCases) {
  const std::vector<double> probs{0.2, 0.8};
  EXPECT_EQ(poisson_binomial_tail_geq(probs, 0), 1.0);
  EXPECT_EQ(poisson_binomial_tail_geq(probs, 3), 0.0);
  EXPECT_EQ(poisson_binomial_tail_lt(probs, 0), 0.0);
  EXPECT_NEAR(poisson_binomial_tail_lt(probs, 3), 1.0, 1e-12);
}

TEST(PoissonBinomial, DegenerateProbabilities) {
  const std::vector<double> certain{1.0, 1.0, 1.0};
  EXPECT_NEAR(poisson_binomial_tail_geq(certain, 3), 1.0, 1e-12);
  const std::vector<double> never{0.0, 0.0};
  EXPECT_NEAR(poisson_binomial_tail_geq(never, 1), 0.0, 1e-12);
  EXPECT_NEAR(poisson_binomial_tail_lt(never, 1), 1.0, 1e-12);
}

TEST(PoissonBinomial, MatchesMonteCarlo) {
  const std::vector<double> probs{0.1, 0.5, 0.9, 0.3};
  Rng r(43);
  const int trials = 300000;
  std::array<int, 5> counts{};
  for (int t = 0; t < trials; ++t) {
    int successes = 0;
    for (const double p : probs) successes += r.bernoulli(p);
    counts[static_cast<std::size_t>(successes)]++;
  }
  const auto pmf = poisson_binomial_pmf(probs);
  for (std::size_t j = 0; j < counts.size(); ++j) {
    EXPECT_NEAR(static_cast<double>(counts[j]) / trials, pmf[j], 0.005);
  }
}

TEST(PoissonBinomial, EmptyTrialSet) {
  const std::vector<double> none;
  const auto pmf = poisson_binomial_pmf(none);
  ASSERT_EQ(pmf.size(), 1u);
  EXPECT_EQ(pmf[0], 1.0);
  EXPECT_EQ(poisson_binomial_tail_geq(none, 1), 0.0);
  EXPECT_EQ(poisson_binomial_tail_geq(none, 0), 1.0);
}

// ---------------------------------------------------------------- Backoff

TEST(Backoff, DelaysStayWithinBounds) {
  const BackoffConfig config{.base_ns = 1'000, .cap_ns = 50'000,
                             .multiplier = 3.0};
  Backoff backoff(config, Rng(7));
  for (int i = 0; i < 200; ++i) {
    const std::int64_t d = backoff.next();
    EXPECT_GE(d, config.base_ns);
    EXPECT_LE(d, config.cap_ns);
  }
  EXPECT_EQ(backoff.attempts(), 200u);
}

TEST(Backoff, ExpectedDelayGrowsUntilTheCap) {
  // The jitter window is [base, prev * mult]; averaged over many
  // independent sequences the n-th delay grows until the cap dominates.
  const BackoffConfig config{.base_ns = 1'000, .cap_ns = 1'000'000'000,
                             .multiplier = 3.0};
  constexpr int kRuns = 400;
  constexpr int kSteps = 6;
  std::array<double, kSteps> mean{};
  for (int run = 0; run < kRuns; ++run) {
    Backoff backoff(config, Rng(static_cast<std::uint64_t>(run) + 1));
    for (int s = 0; s < kSteps; ++s) {
      mean[static_cast<std::size_t>(s)] +=
          static_cast<double>(backoff.next()) / kRuns;
    }
  }
  for (int s = 1; s < kSteps; ++s) {
    EXPECT_GT(mean[static_cast<std::size_t>(s)],
              mean[static_cast<std::size_t>(s - 1)]);
  }
}

TEST(Backoff, ResetReturnsToTheBaseWindow) {
  const BackoffConfig config{.base_ns = 1'000, .cap_ns = 1'000'000'000,
                             .multiplier = 2.0};
  Backoff backoff(config, Rng(11));
  for (int i = 0; i < 20; ++i) (void)backoff.next();
  backoff.reset();
  EXPECT_EQ(backoff.attempts(), 0u);
  // First post-reset delay is drawn from [base, base * mult] again.
  const std::int64_t d = backoff.next();
  EXPECT_GE(d, config.base_ns);
  EXPECT_LE(d, static_cast<std::int64_t>(
                   static_cast<double>(config.base_ns) * config.multiplier));
}

TEST(Backoff, TwoBackoffsDecorrelate) {
  // Decorrelated jitter exists so parties that failed together do not
  // retry together: two schedules from different seeds should disagree.
  const BackoffConfig config{.base_ns = 1'000, .cap_ns = 1'000'000'000,
                             .multiplier = 3.0};
  Backoff a(config, Rng(1));
  Backoff b(config, Rng(2));
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += (a.next() == b.next());
  EXPECT_LT(equal, 5);
}

TEST(Backoff, StepIsDeterministicGivenRngState) {
  const BackoffConfig config{.base_ns = 500, .cap_ns = 10'000,
                             .multiplier = 2.0};
  Rng r1(3), r2(3);
  std::int64_t prev1 = config.base_ns;
  std::int64_t prev2 = config.base_ns;
  for (int i = 0; i < 50; ++i) {
    prev1 = Backoff::step(r1, config, prev1);
    prev2 = Backoff::step(r2, config, prev2);
    EXPECT_EQ(prev1, prev2);
    EXPECT_GE(prev1, config.base_ns);
    EXPECT_LE(prev1, config.cap_ns);
  }
}

TEST(Backoff, RejectsBadConfig) {
  EXPECT_THROW(Backoff({.base_ns = 0, .cap_ns = 10, .multiplier = 2.0}, Rng(1)),
               PreconditionError);
  EXPECT_THROW(Backoff({.base_ns = 10, .cap_ns = 5, .multiplier = 2.0}, Rng(1)),
               PreconditionError);
  EXPECT_THROW(
      Backoff({.base_ns = 10, .cap_ns = 20, .multiplier = 0.5}, Rng(1)),
      PreconditionError);
}

// ---------------------------------------------------------- link risk

TEST(LinkRisk, ExposedChannelMaskUnionsOverPaths) {
  // ch0 over links {0,1}, ch1 over {1,2}, ch2 over {3}.
  const std::vector<LinkMask> paths{0b0011, 0b0110, 0b1000};
  EXPECT_EQ(exposed_channel_mask(0b0000, paths), 0u);
  EXPECT_EQ(exposed_channel_mask(0b0001, paths), 0b001u);  // link 0 -> ch0
  EXPECT_EQ(exposed_channel_mask(0b0010, paths), 0b011u);  // shared link 1
  EXPECT_EQ(exposed_channel_mask(0b1000, paths), 0b100u);
  EXPECT_EQ(exposed_channel_mask(0b1111, paths), 0b111u);
}

TEST(LinkRisk, MarginalRisksAreSurvivalComplements) {
  const std::vector<double> w{0.1, 0.2, 0.5};
  const std::vector<LinkMask> paths{0b011, 0b100};
  const auto z = marginal_channel_risks(w, paths);
  ASSERT_EQ(z.size(), 2u);
  EXPECT_NEAR(z[0], 1.0 - 0.9 * 0.8, 1e-15);
  EXPECT_NEAR(z[1], 0.5, 1e-15);
}

TEST(LinkRisk, CoverageGroupsMergeSameCoverageLinks) {
  // Links 0 and 1 both cover only ch0; link 2 covers both channels.
  const std::vector<double> w{0.1, 0.2, 0.3};
  const std::vector<LinkMask> paths{0b111, 0b100};
  const auto groups = link_coverage_groups(w, paths);
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[0].covers, 0b01u);  // ascending coverage order
  EXPECT_NEAR(groups[0].tap_probability, 1.0 - 0.9 * 0.8, 1e-15);
  EXPECT_EQ(groups[1].covers, 0b11u);
  EXPECT_NEAR(groups[1].tap_probability, 0.3, 1e-15);
}

TEST(LinkRisk, DisjointPathsReduceToPoissonBinomial) {
  const std::vector<double> w{0.1, 0.2, 0.3, 0.05, 0.4, 0.15};
  const std::vector<LinkMask> paths{0b000011, 0b001100, 0b110000};
  const auto marginals = marginal_channel_risks(w, paths);
  for (int k = 0; k <= 4; ++k) {
    EXPECT_NEAR(correlated_subset_risk(w, paths, k),
                poisson_binomial_tail_geq(marginals, k), 1e-14)
        << "k=" << k;
  }
}

TEST(LinkRisk, SharedLinkRaisesTheJointTail) {
  // Both channels cross link 0; private links 1 and 2 complete them.
  const std::vector<double> w{0.2, 0.1, 0.1};
  const std::vector<LinkMask> paths{0b011, 0b101};
  const double corr = correlated_subset_risk(w, paths, 2);
  const double indep = independent_subset_risk(w, paths, 2);
  EXPECT_GT(corr, indep);
  // Exact by hand: both exposed <=> link 0 tapped, or both privates.
  const double expected = 0.2 + 0.8 * 0.1 * 0.1;
  EXPECT_NEAR(corr, expected, 1e-15);
  EXPECT_EQ(correlated_subset_risk(w, paths, 0), 1.0);
  EXPECT_EQ(correlated_subset_risk(w, paths, 3), 0.0);
}

TEST(LinkRisk, MonteCarloAgreesWithExactEnumeration) {
  const std::vector<double> w{0.05, 0.3, 0.1, 0.2, 0.15};
  const std::vector<LinkMask> paths{0b00011, 0b00110, 0b11000};
  Rng rng(77);
  constexpr int kTrials = 200'000;
  std::array<int, 4> hits{};
  for (int trial = 0; trial < kTrials; ++trial) {
    LinkMask tapped = 0;
    for (std::size_t l = 0; l < w.size(); ++l) {
      if (rng.bernoulli(w[l])) tapped |= LinkMask{1} << l;
    }
    const int exposed = mask_size(exposed_channel_mask(tapped, paths));
    for (int k = 1; k <= exposed && k <= 3; ++k) {
      ++hits[static_cast<std::size_t>(k)];
    }
  }
  for (int k = 1; k <= 3; ++k) {
    const double sampled =
        static_cast<double>(hits[static_cast<std::size_t>(k)]) / kTrials;
    EXPECT_NEAR(sampled, correlated_subset_risk(w, paths, k), 0.01)
        << "k=" << k;
  }
}

// ---------------------------------------------------------------- Ring

TEST(Ring, HoldsNoHeapUntilTheFirstPush) {
  util::Ring<std::uint64_t> ring(65'536);
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(ring.heap_bytes(), 0u);
  ring.push_back(1);
  ring.push_back(2);
  ring.push_back(3);
  // Geometric growth from one slot, not the cap: three entries, four slots.
  EXPECT_EQ(ring.heap_bytes(), 4 * sizeof(std::uint64_t));
  ring.clear();
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(ring.heap_bytes(), 4 * sizeof(std::uint64_t));  // kept
}

TEST(Ring, StaysFifoAcrossWrapAndGrowth) {
  util::Ring<int> ring(16);
  std::vector<int> model;
  int next = 0;
  Rng rng(5);
  for (int step = 0; step < 2000; ++step) {
    if (!ring.full() && (model.empty() || rng.uniform() < 0.55)) {
      ring.push_back(next);
      model.push_back(next);
      ++next;
    } else {
      ASSERT_EQ(ring.front(), model.front());
      ring.pop_front();
      model.erase(model.begin());
    }
    ASSERT_EQ(ring.size(), model.size());
    for (std::size_t i = 0; i < model.size(); ++i) {
      ASSERT_EQ(ring[i], model[i]) << "step " << step << " index " << i;
    }
  }
  EXPECT_LE(ring.heap_bytes(), 16 * sizeof(int));  // never past the cap
}

TEST(Ring, PushOntoAFullRingIsRefused) {
  util::Ring<int> ring(2);
  ring.push_back(1);
  ring.push_back(2);
  EXPECT_TRUE(ring.full());
  EXPECT_THROW(ring.push_back(3), PreconditionError);
  util::Ring<int> none(0);
  EXPECT_TRUE(none.full());
  EXPECT_THROW(none.push_back(1), PreconditionError);
  EXPECT_EQ(none.heap_bytes(), 0u);
}

TEST(IdWindow, AnswersThreeStatesAndSlidesInWholeWords) {
  util::IdWindow window(128);  // two words
  using State = util::IdWindow::State;
  window.mark(1);
  window.mark(3);
  EXPECT_EQ(window.state(0), State::BelowFloor);  // ids start at 1
  EXPECT_EQ(window.state(1), State::Delivered);
  EXPECT_EQ(window.state(2), State::New);
  EXPECT_EQ(window.state(500), State::New);
  EXPECT_EQ(window.floor(), 1u);

  window.mark(129);  // a third word: the first slides out
  EXPECT_EQ(window.floor(), 65u);
  EXPECT_EQ(window.state(3), State::BelowFloor);
  EXPECT_EQ(window.state(64), State::BelowFloor);
  EXPECT_EQ(window.state(65), State::New);
  EXPECT_EQ(window.state(129), State::Delivered);
  EXPECT_THROW(window.mark(64), PreconditionError);

  window.mark(100);  // behind the highest id, above the floor
  EXPECT_EQ(window.state(100), State::Delivered);
  window.mark(1000);  // past the whole window
  EXPECT_EQ(window.highest(), 1000u);
  EXPECT_EQ(window.floor(), 897u);
  EXPECT_EQ(window.state(129), State::BelowFloor);
  EXPECT_EQ(window.state(897), State::New);
  EXPECT_EQ(window.state(1000), State::Delivered);
  EXPECT_THROW(util::IdWindow(0), PreconditionError);
}

TEST(IdWindow, ReusedWordsComeBackEmpty) {
  util::IdWindow window(1);  // one word, reused by every slide
  for (std::uint64_t id = 1; id <= 64; ++id) window.mark(id);
  window.mark(65);
  EXPECT_EQ(window.floor(), 65u);
  EXPECT_EQ(window.state(66), util::IdWindow::State::New);
  window.mark(64 * 5 + 2);  // skips words 2..4
  EXPECT_EQ(window.state(64 * 5 + 1), util::IdWindow::State::New);
  EXPECT_EQ(window.heap_bytes(), sizeof(std::uint64_t));
}

TEST(IdWindow, GrowsWithTheMarkedSpanUpToItsWidth) {
  util::IdWindow window(1024 * 64);
  EXPECT_EQ(window.width_words(), 1024u);
  EXPECT_EQ(window.heap_bytes(), 0u);
  window.mark(1);
  EXPECT_EQ(window.heap_bytes(), sizeof(std::uint64_t));
  window.mark(200);  // the fourth word
  EXPECT_EQ(window.heap_bytes(), 4 * sizeof(std::uint64_t));
  window.mark(10'000'000);
  EXPECT_EQ(window.heap_bytes(), 1024 * sizeof(std::uint64_t));
  EXPECT_EQ(window.state(200), util::IdWindow::State::BelowFloor);
}

TEST(IdWindow, TopWordsEndAtTheHighestIdsWord) {
  util::IdWindow window(256);  // four words
  std::vector<std::uint64_t> two(2);
  EXPECT_EQ(window.top_words(two), 1u);
  EXPECT_EQ(two, (std::vector<std::uint64_t>{0, 0}));
  window.mark(2);
  window.mark(65);
  EXPECT_EQ(window.top_words(two), 1u);
  EXPECT_EQ(two, (std::vector<std::uint64_t>{0b10, 0b1}));
  window.mark(130);  // the third word: two words now start at id 65
  EXPECT_EQ(window.top_words(two), 65u);
  EXPECT_EQ(two, (std::vector<std::uint64_t>{0b1, 0b10}));
  window.mark(64 * 4 + 1);  // the fifth word: the window slides
  std::vector<std::uint64_t> six(6);
  EXPECT_EQ(window.top_words(six), 1u);  // wider than the window
  EXPECT_EQ(six, (std::vector<std::uint64_t>{0, 0b1, 0b10, 0, 0b1, 0}));
}

TEST(Ring, PopReleasesWhatTheEntryOwns) {
  util::Ring<std::vector<std::uint8_t>> ring(4);
  ring.push_back(std::vector<std::uint8_t>(1000, 7));
  ring.push_back(std::vector<std::uint8_t>(10, 8));
  std::vector<std::uint8_t> head = std::move(ring.front());
  EXPECT_EQ(head.size(), 1000u);
  ring.pop_front();
  EXPECT_EQ(ring.front().size(), 10u);
  ring.pop_front();
  // A ring of 2 slots whose entries own nothing now: push reuses them.
  ring.push_back({});
  EXPECT_TRUE(ring.front().empty());
  EXPECT_EQ(ring.front().capacity(), 0u);
}

// -------------------------------------------------------- IntrusiveList

struct Linked {
  int value = 0;
  util::ListHook<Linked> a;
  util::ListHook<Linked> b;
};
using ListA = util::IntrusiveList<Linked, &Linked::a>;
using ListB = util::IntrusiveList<Linked, &Linked::b>;

std::vector<int> values(const ListA& list) {
  std::vector<int> out;
  for (Linked* p = list.front(); p != nullptr; p = ListA::next(*p)) {
    out.push_back(p->value);
  }
  return out;
}

TEST(IntrusiveList, MatchesAFifoModelUnderRandomPushAndErase) {
  // Pushes go to the back, erases unlink from anywhere, and the list
  // walks oldest first, as a std::vector model does.
  std::array<Linked, 12> nodes;
  for (int i = 0; i < 12; ++i) nodes[static_cast<std::size_t>(i)].value = i;
  ListA list;
  std::vector<int> model;
  Rng rng(17);
  for (int step = 0; step < 3000; ++step) {
    Linked& n = nodes[rng.uniform_int(nodes.size())];
    const auto at = std::find(model.begin(), model.end(), n.value);
    if (rng.uniform() < 0.5) {
      list.push_back(n);  // a no-op when already linked
      if (at == model.end()) model.push_back(n.value);
    } else {
      list.erase(n);  // a no-op when not linked
      if (at != model.end()) model.erase(at);
    }
    ASSERT_EQ(values(list), model) << "step " << step;
    ASSERT_EQ(list.size(), model.size());
    ASSERT_EQ(list.empty(), model.empty());
    ASSERT_EQ(list.contains(n), std::find(model.begin(), model.end(),
                                          n.value) != model.end());
  }
}

TEST(IntrusiveList, AnElementSitsOnTwoListsThroughTwoHooks) {
  Linked x{.value = 1};
  Linked y{.value = 2};
  ListA first;
  ListB second;
  first.push_back(x);
  first.push_back(y);
  second.push_back(y);
  EXPECT_TRUE(second.contains(y));
  EXPECT_FALSE(second.contains(x));
  first.erase(y);
  EXPECT_EQ(values(first), std::vector<int>{1});
  EXPECT_EQ(second.front(), &y);
  EXPECT_EQ(second.size(), 1u);
}

}  // namespace
}  // namespace mcss
