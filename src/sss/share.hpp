// A single share of a secret.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace mcss::sss {

/// One share of a byte string secret.
///
/// For Shamir sharing, `index` is the nonzero GF(256) abscissa at which the
/// per-byte polynomials were evaluated; `data` holds one ordinate per secret
/// byte, so shares are exactly as long as the secret (the information-
/// theoretic minimum, H(Y) = H(X)).
struct Share {
  std::uint8_t index = 0;
  std::vector<std::uint8_t> data;

  friend bool operator==(const Share&, const Share&) = default;
};

/// Non-owning view of one share: same meaning as Share, but `data`
/// aliases storage the caller owns (an arena slot, a receive buffer).
/// The zero-copy counterpart for reconstruct_views() — reassembly can
/// keep share bytes in pool slots end to end.
struct ShareView {
  std::uint8_t index = 0;
  std::span<const std::uint8_t> data;
};

}  // namespace mcss::sss
