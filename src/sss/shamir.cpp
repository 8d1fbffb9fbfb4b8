#include "sss/shamir.hpp"

#include <array>
#include <cstring>

#include "field/gf256.hpp"
#include "field/gf256_bulk.hpp"
#include "util/ensure.hpp"

namespace mcss::sss {

namespace {

void check_split_params(std::span<const std::uint8_t> secret, int k, int m) {
  (void)secret;
  MCSS_ENSURE(k >= 1, "threshold k must be at least 1");
  MCSS_ENSURE(k <= m, "threshold k cannot exceed multiplicity m");
  MCSS_ENSURE(m <= kMaxShares, "GF(256) sharing admits at most 255 shares");
}

std::vector<Share> make_shares(std::size_t len, int m) {
  std::vector<Share> shares(static_cast<std::size_t>(m));
  for (int j = 0; j < m; ++j) {
    shares[static_cast<std::size_t>(j)].index = static_cast<std::uint8_t>(j + 1);
    shares[static_cast<std::size_t>(j)].data.resize(len);
  }
  return shares;
}

// Both split paths draw the (k-1) random coefficient slices — slice c
// holds coefficient c of every byte position's polynomial, contiguously
// — with ONE bulk Rng fill per packet, so they consume the stream
// identically and produce byte-identical shares for equal seeds.
std::vector<gf::Elem> draw_coefficient_slices(std::size_t len, int k,
                                              Rng& rng) {
  std::vector<gf::Elem> slices(static_cast<std::size_t>(k - 1) * len);
  rng.fill(slices);
  return slices;
}

}  // namespace

std::vector<Share> split(std::span<const std::uint8_t> secret, int k, int m,
                         Rng& rng) {
  check_split_params(secret, k, m);
  const std::size_t len = secret.size();
  std::vector<Share> shares = make_shares(len, m);
  const std::vector<gf::Elem> slices = draw_coefficient_slices(len, k, rng);

  // Slice-major evaluation: share_j = secret ^ sum_c x_j^c * slice_c.
  // Each term is one region axpy with a constant scalar; the whole split
  // is m * (k-1) kernel passes over the packet, zero per-byte branching.
  for (int j = 0; j < m; ++j) {
    auto& data = shares[static_cast<std::size_t>(j)].data;
    if (len != 0) std::memcpy(data.data(), secret.data(), len);
    const auto x = static_cast<gf::Elem>(j + 1);
    gf::Elem xp = 1;
    for (int c = 1; c < k; ++c) {
      xp = gf::mul(xp, x);
      gf::bulk::mul_acc_buf(data.data(),
                            slices.data() + static_cast<std::size_t>(c - 1) * len,
                            xp, len);
    }
  }
  return shares;
}

void split_into(std::span<const std::uint8_t> secret, int k,
                std::span<const std::span<std::uint8_t>> dests,
                std::vector<std::uint8_t>& scratch, Rng& rng) {
  const int m = static_cast<int>(dests.size());
  check_split_params(secret, k, m);
  const std::size_t len = secret.size();
  // Same single bulk draw as split(): scratch holds the (k-1)
  // coefficient slices, exactly sized so rng consumption matches.
  scratch.resize(static_cast<std::size_t>(k - 1) * len);
  rng.fill(scratch);

  for (int j = 0; j < m; ++j) {
    const std::span<std::uint8_t> out = dests[static_cast<std::size_t>(j)];
    MCSS_ENSURE(out.size() == len, "split_into destination length mismatch");
    if (len != 0) std::memcpy(out.data(), secret.data(), len);
    const auto x = static_cast<gf::Elem>(j + 1);
    gf::Elem xp = 1;
    for (int c = 1; c < k; ++c) {
      xp = gf::mul(xp, x);
      gf::bulk::mul_acc_buf(
          out.data(), scratch.data() + static_cast<std::size_t>(c - 1) * len,
          xp, len);
    }
  }
}

std::vector<Share> split_scalar(std::span<const std::uint8_t> secret, int k,
                                int m, Rng& rng) {
  check_split_params(secret, k, m);
  const std::size_t len = secret.size();
  std::vector<Share> shares = make_shares(len, m);
  const std::vector<gf::Elem> slices = draw_coefficient_slices(len, k, rng);

  // One polynomial per byte position, Horner-evaluated with scalar
  // gf::mul — the seed structure this library shipped with.
  std::vector<gf::Elem> coeffs(static_cast<std::size_t>(k));
  for (std::size_t pos = 0; pos < len; ++pos) {
    coeffs[0] = secret[pos];
    for (int c = 1; c < k; ++c) {
      coeffs[static_cast<std::size_t>(c)] =
          slices[static_cast<std::size_t>(c - 1) * len + pos];
    }
    for (int j = 0; j < m; ++j) {
      shares[static_cast<std::size_t>(j)].data[pos] =
          gf::poly_eval(coeffs, static_cast<gf::Elem>(j + 1));
    }
  }
  return shares;
}

namespace {

template <typename S>  // Share or ShareView (same field names)
void check_shares(std::span<const S> shares) {
  MCSS_ENSURE(!shares.empty(), "need at least one share");
  const std::size_t len = shares.front().data.size();
  bool seen[256] = {};
  for (const S& s : shares) {
    MCSS_ENSURE(s.index != 0, "share index 0 is invalid");
    MCSS_ENSURE(!seen[s.index], "duplicate share index");
    MCSS_ENSURE(s.data.size() == len, "share length mismatch");
    seen[s.index] = true;
  }
}

using WeightBuf = std::array<gf::Elem, kMaxShares>;

// Lagrange weights at 0 for the shares' abscissae, written to the front
// of `out`. check_shares has already bounded the call to at most 255
// distinct nonzero indices, so fixed stack arrays hold both the
// abscissae and the weights: no heap allocation per packet.
template <typename S>
std::span<const gf::Elem> reconstruction_weights(std::span<const S> shares,
                                                 WeightBuf& out) {
  const std::size_t n = shares.size();
  WeightBuf xs;
  for (std::size_t i = 0; i < n; ++i) xs[i] = shares[i].index;
  gf::lagrange_weights_at_zero(std::span<const gf::Elem>(xs).first(n),
                               std::span<gf::Elem>(out).first(n));
  return std::span<const gf::Elem>(out).first(n);
}

template <typename S>
std::vector<std::uint8_t> reconstruct_impl(std::span<const S> shares) {
  check_shares(shares);
  WeightBuf buf;
  const auto weights = reconstruction_weights(shares, buf);

  // secret = sum_i weight_i * share_i: one region axpy per share.
  const std::size_t len = shares.front().data.size();
  std::vector<std::uint8_t> secret(len, 0);
  for (std::size_t i = 0; i < shares.size(); ++i) {
    gf::bulk::mul_acc_buf(secret.data(), shares[i].data.data(), weights[i],
                          len);
  }
  return secret;
}

}  // namespace

std::vector<std::uint8_t> reconstruct(std::span<const Share> shares) {
  return reconstruct_impl(shares);
}

std::vector<std::uint8_t> reconstruct_views(std::span<const ShareView> shares) {
  return reconstruct_impl(shares);
}

std::vector<std::uint8_t> reconstruct_scalar(std::span<const Share> shares) {
  check_shares(shares);
  WeightBuf buf;
  const auto weights = reconstruction_weights(shares, buf);

  const std::size_t len = shares.front().data.size();
  std::vector<std::uint8_t> secret(len);
  for (std::size_t pos = 0; pos < len; ++pos) {
    gf::Elem acc = 0;
    for (std::size_t i = 0; i < shares.size(); ++i) {
      acc = gf::add(acc, gf::mul(weights[i], shares[i].data[pos]));
    }
    secret[pos] = acc;
  }
  return secret;
}

}  // namespace mcss::sss
