// Tests for threshold secret sharing: roundtrips, subset reconstruction,
// perfect secrecy of the constructions, and error handling.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include "field/gf256.hpp"
#include "sss/shamir.hpp"
#include "util/ensure.hpp"
#include "util/rng.hpp"
#include "util/subset.hpp"

// Global operator new hook: counts allocations while an AllocCounter is
// alive, so a test can pin how many heap allocations a call makes.
namespace {
std::atomic<bool> g_count_allocs{false};
std::atomic<std::uint64_t> g_allocs{0};

/// Counts the operator new calls made while it is alive.
class AllocCounter {
 public:
  AllocCounter() {
    g_allocs.store(0);
    g_count_allocs.store(true);
  }
  ~AllocCounter() { g_count_allocs.store(false); }
  AllocCounter(const AllocCounter&) = delete;
  AllocCounter& operator=(const AllocCounter&) = delete;
  [[nodiscard]] std::uint64_t count() const { return g_allocs.load(); }
};
}  // namespace

// noinline keeps GCC from pairing an inlined free() against new
// expressions elsewhere and warning about a mismatch that is not one.
#define MCSS_TEST_NOINLINE __attribute__((noinline))

MCSS_TEST_NOINLINE void* operator new(std::size_t size) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size != 0 ? size : 1)) return p;
  throw std::bad_alloc();
}
MCSS_TEST_NOINLINE void* operator new[](std::size_t size) {
  return ::operator new(size);
}
MCSS_TEST_NOINLINE void operator delete(void* p) noexcept { std::free(p); }
MCSS_TEST_NOINLINE void operator delete[](void* p) noexcept { std::free(p); }
MCSS_TEST_NOINLINE void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
MCSS_TEST_NOINLINE void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace mcss::sss {
namespace {

std::vector<std::uint8_t> random_secret(Rng& rng, std::size_t len) {
  std::vector<std::uint8_t> s(len);
  for (auto& b : s) b = rng.byte();
  return s;
}

// ---------------------------------------------------------------- Shamir

struct KmParam {
  int k;
  int m;
};

class ShamirKmTest : public ::testing::TestWithParam<KmParam> {};

TEST_P(ShamirKmTest, RoundtripWithFirstKShares) {
  const auto [k, m] = GetParam();
  Rng rng(static_cast<std::uint64_t>(k * 100 + m));
  const auto secret = random_secret(rng, 64);
  const auto shares = split(secret, k, m, rng);
  ASSERT_EQ(shares.size(), static_cast<std::size_t>(m));
  EXPECT_EQ(reconstruct(std::span(shares).first(static_cast<std::size_t>(k))),
            secret);
}

TEST_P(ShamirKmTest, EveryKSubsetReconstructs) {
  const auto [k, m] = GetParam();
  Rng rng(static_cast<std::uint64_t>(k * 1000 + m));
  const auto secret = random_secret(rng, 16);
  const auto shares = split(secret, k, m, rng);
  for_each_subset(full_mask(m), [&, k = k](Mask sub) {
    if (mask_size(sub) != k) return;
    std::vector<Share> chosen;
    for_each_member(sub, [&](int i) { chosen.push_back(shares[static_cast<std::size_t>(i)]); });
    EXPECT_EQ(reconstruct(chosen), secret);
  });
}

TEST_P(ShamirKmTest, MoreThanKSharesAlsoReconstruct) {
  const auto [k, m] = GetParam();
  Rng rng(static_cast<std::uint64_t>(k * 7 + m));
  const auto secret = random_secret(rng, 8);
  const auto shares = split(secret, k, m, rng);
  EXPECT_EQ(reconstruct(shares), secret);  // all m shares
}

INSTANTIATE_TEST_SUITE_P(
    AllValidKm, ShamirKmTest,
    ::testing::ValuesIn([] {
      std::vector<KmParam> params;
      for (int m = 1; m <= 8; ++m) {
        for (int k = 1; k <= m; ++k) params.push_back({k, m});
      }
      return params;
    }()),
    [](const ::testing::TestParamInfo<KmParam>& p) {
      return "k" + std::to_string(p.param.k) + "m" + std::to_string(p.param.m);
    });

TEST(Shamir, SharesAreSecretSized) {
  Rng rng(1);
  const auto secret = random_secret(rng, 1000);
  const auto shares = split(secret, 3, 5, rng);
  for (const Share& s : shares) {
    EXPECT_EQ(s.data.size(), secret.size());  // H(Y) = H(X), no expansion
  }
}

TEST(Shamir, SplitIntoMatchesSplitByteForByte) {
  // The live sender's in-place path must consume the rng identically and
  // produce the same share bytes as the allocating split().
  Rng rng_a(71);
  Rng rng_b(71);
  const auto secret = random_secret(rng_a, 500);
  random_secret(rng_b, 500);  // keep the streams aligned

  const auto shares = split(secret, 3, 5, rng_a);

  std::vector<std::vector<std::uint8_t>> bufs(
      5, std::vector<std::uint8_t>(secret.size()));
  std::vector<std::span<std::uint8_t>> dests(bufs.begin(), bufs.end());
  std::vector<std::uint8_t> scratch;
  split_into(secret, 3, dests, scratch, rng_b);

  for (int j = 0; j < 5; ++j) {
    EXPECT_EQ(bufs[static_cast<std::size_t>(j)],
              shares[static_cast<std::size_t>(j)].data)
        << "share " << j;
  }
  // Scratch reuse across calls with a different k must stay correct.
  split_into(secret, 1, dests, scratch, rng_b);
  for (const auto& buf : bufs) EXPECT_EQ(buf, secret);  // k=1 replicates
}

TEST(Shamir, SplitIntoRejectsWrongSizedDestination) {
  Rng rng(72);
  const auto secret = random_secret(rng, 64);
  std::vector<std::uint8_t> short_buf(32);
  std::vector<std::span<std::uint8_t>> dests{std::span(short_buf)};
  std::vector<std::uint8_t> scratch;
  EXPECT_THROW(split_into(secret, 1, dests, scratch, rng),
               PreconditionError);
}

TEST(Shamir, EmptySecretRoundtrips) {
  Rng rng(2);
  const std::vector<std::uint8_t> empty;
  const auto shares = split(empty, 2, 3, rng);
  EXPECT_TRUE(reconstruct(std::span(shares).first(2)).empty());
}

TEST(Shamir, LargeSecretRoundtrips) {
  Rng rng(3);
  const auto secret = random_secret(rng, 65536);
  const auto shares = split(secret, 4, 7, rng);
  std::vector<Share> pick{shares[6], shares[0], shares[3], shares[5]};
  EXPECT_EQ(reconstruct(pick), secret);
}

TEST(Shamir, MaxMultiplicity) {
  Rng rng(4);
  const auto secret = random_secret(rng, 4);
  const auto shares = split(secret, 2, 255, rng);
  std::vector<Share> pick{shares[254], shares[0]};
  EXPECT_EQ(reconstruct(pick), secret);
}

TEST(Shamir, K1IsReplication) {
  Rng rng(5);
  const auto secret = random_secret(rng, 32);
  const auto shares = split(secret, 1, 4, rng);
  for (const Share& s : shares) {
    EXPECT_EQ(s.data, secret);  // degree-0 polynomial: every share IS the secret
  }
}

TEST(Shamir, FewerThanKSharesYieldWrongSecret) {
  Rng rng(6);
  const auto secret = random_secret(rng, 32);
  const auto shares = split(secret, 3, 5, rng);
  // Interpolating with only 2 of 3 required shares must not recover the
  // secret (except with probability ~2^-256, impossible for this seed).
  std::vector<Share> tooFew{shares[0], shares[1]};
  EXPECT_NE(reconstruct(tooFew), secret);
}

TEST(Shamir, PerfectSecrecyOfSingleShare) {
  // For k=2, a single share's value, over the random coefficient, is a
  // bijection of the coefficient: exactly uniform regardless of secret.
  // Enumerate all 256 coefficient values via a counting argument: fix the
  // secret byte; share at x=1 is s ^ c (c uniform) — every value once.
  for (int secret_byte : {0x00, 0x5A, 0xFF}) {
    std::set<gf::Elem> values;
    for (int c = 0; c < 256; ++c) {
      const std::vector<gf::Elem> coeffs{static_cast<gf::Elem>(secret_byte),
                                         static_cast<gf::Elem>(c)};
      values.insert(gf::poly_eval(coeffs, 1));
    }
    EXPECT_EQ(values.size(), 256u);  // uniform marginal: zero information
  }
}

TEST(Shamir, KMinusOneSharesJointlyIndependentOfSecret) {
  // k=3: enumerate ALL 65536 coefficient pairs (c1, c2) for a fixed secret
  // byte and record the joint value of two shares (x=1, x=2). The map
  // (c1, c2) -> (y1, y2) must be a bijection — every joint observation
  // occurs exactly once — so the joint distribution of any k-1 shares is
  // uniform and identical for every secret: zero information disclosed.
  for (int secret_byte : {0x00, 0x3C, 0xFF}) {
    std::array<int, 65536> joint_count{};
    for (int c1 = 0; c1 < 256; ++c1) {
      for (int c2 = 0; c2 < 256; ++c2) {
        const std::vector<gf::Elem> coeffs{static_cast<gf::Elem>(secret_byte),
                                           static_cast<gf::Elem>(c1),
                                           static_cast<gf::Elem>(c2)};
        const gf::Elem y1 = gf::poly_eval(coeffs, 1);
        const gf::Elem y2 = gf::poly_eval(coeffs, 2);
        joint_count[static_cast<std::size_t>(y1) * 256 + y2]++;
      }
    }
    for (const int count : joint_count) {
      ASSERT_EQ(count, 1);  // exactly uniform joint distribution
    }
  }
}

TEST(Shamir, SplitRejectsBadParameters) {
  Rng rng(7);
  const auto secret = random_secret(rng, 8);
  EXPECT_THROW((void)split(secret, 0, 3, rng), PreconditionError);
  EXPECT_THROW((void)split(secret, 4, 3, rng), PreconditionError);
  EXPECT_THROW((void)split(secret, 1, 256, rng), PreconditionError);
}

TEST(Shamir, ReconstructRejectsBadShares) {
  Rng rng(8);
  const auto secret = random_secret(rng, 8);
  auto shares = split(secret, 2, 3, rng);

  EXPECT_THROW((void)reconstruct(std::vector<Share>{}), PreconditionError);

  std::vector<Share> dup{shares[0], shares[0]};
  EXPECT_THROW((void)reconstruct(dup), PreconditionError);

  std::vector<Share> mismatched{shares[0], shares[1]};
  mismatched[1].data.pop_back();
  EXPECT_THROW((void)reconstruct(mismatched), PreconditionError);

  std::vector<Share> zero_index{shares[0], shares[1]};
  zero_index[0].index = 0;
  EXPECT_THROW((void)reconstruct(zero_index), PreconditionError);
}

TEST(Shamir, DeterministicGivenSeed) {
  const std::vector<std::uint8_t> secret{1, 2, 3, 4};
  Rng a(99), b(99);
  EXPECT_EQ(split(secret, 2, 4, a), split(secret, 2, 4, b));
}

TEST(Shamir, ReconstructViewsAllocatesOnlyThePayload) {
  // The receiver reconstructs every packet through reconstruct_views;
  // its Lagrange weights live on the stack, so the returned payload is
  // the call's one heap allocation, from k = 1 up to k = 255.
  for (const auto& [k, len] : {std::pair{1, 1470}, std::pair{3, 1470},
                               std::pair{8, 128}, std::pair{255, 64}}) {
    Rng rng(static_cast<std::uint64_t>(k));
    const auto secret = random_secret(rng, static_cast<std::size_t>(len));
    const auto shares = split(secret, k, k, rng);
    std::vector<ShareView> views;
    for (const Share& sh : shares) views.push_back({sh.index, sh.data});
    std::vector<std::uint8_t> out;
    std::uint64_t allocs = 0;
    {
      const AllocCounter counter;
      out = reconstruct_views(views);
      allocs = counter.count();
    }
    EXPECT_EQ(allocs, 1u) << "k=" << k;
    EXPECT_EQ(out, secret) << "k=" << k;
  }
}

TEST(Shamir, DifferentSeedsGiveDifferentShares) {
  const std::vector<std::uint8_t> secret{1, 2, 3, 4};
  Rng a(99), b(100);
  EXPECT_NE(split(secret, 2, 4, a), split(secret, 2, 4, b));
}

}  // namespace
}  // namespace mcss::sss
