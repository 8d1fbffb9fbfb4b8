// Shamir threshold secret sharing over GF(2^8).
//
// split() turns a secret byte string into m shares such that any k of them
// reconstruct it and any k-1 reveal nothing (information-theoretically):
// for each byte position, a uniformly random polynomial of degree k-1 with
// the secret byte as constant term is sampled, and share j holds its value
// at abscissa x_j. reconstruct() interpolates at 0.
//
// This is the paper's threshold scheme with multiplicity m and threshold k,
// 1 <= k <= m <= 255. The k = 1 case degenerates to replication and k = m
// to a one-time-pad-like perfect scheme, both exercised by the protocol.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "sss/share.hpp"
#include "util/rng.hpp"

namespace mcss::sss {

/// Maximum multiplicity supported by the byte-wise GF(256) construction.
inline constexpr int kMaxShares = 255;

/// Split `secret` into m shares with threshold k.
///
/// Shares receive abscissae 1..m. Randomness is drawn from `rng` as one
/// bulk fill of the (k-1) coefficient slices per packet, so a fixed seed
/// yields reproducible shares (useful for tests; real deployments seed
/// from entropy). Evaluation is slice-major: share_j = secret ^
/// sum_{c=1}^{k-1} x_j^c * slice_c, computed with the gf::bulk region
/// kernels — no per-byte branches or table walks. Throws
/// PreconditionError unless 1 <= k <= m <= 255.
[[nodiscard]] std::vector<Share> split(std::span<const std::uint8_t> secret,
                                       int k, int m, Rng& rng);

/// Split straight into caller-provided buffers: share j's bytes go to
/// dests[j] (abscissa j+1; every span must be secret.size() bytes), and
/// the coefficient slices live in `scratch`, which is resized as needed
/// and reusable across calls — the live sender's zero-allocation path,
/// writing share bytes in place in FramePool slots. Consumes `rng`
/// identically to split(), so for equal seeds the share bytes match
/// split() exactly.
void split_into(std::span<const std::uint8_t> secret, int k,
                std::span<const std::span<std::uint8_t>> dests,
                std::vector<std::uint8_t>& scratch, Rng& rng);

/// Reference split: the seed per-byte Horner evaluation with scalar
/// gf::mul lookups. Consumes `rng` identically to split() (same single
/// bulk coefficient fill), so for equal seeds the two are byte-identical
/// — the property the kernel tests pin down. Kept as the baseline the
/// micro-benchmarks measure the region kernels against.
[[nodiscard]] std::vector<Share> split_scalar(
    std::span<const std::uint8_t> secret, int k, int m, Rng& rng);

/// Reconstruct a secret from exactly k distinct shares.
///
/// The caller passes any k of the m shares (order irrelevant). Throws
/// PreconditionError when shares are empty, have mismatched lengths, or
/// contain duplicate/zero indices. Passing shares from different secrets
/// or fewer than the original k yields garbage, not an error — the scheme
/// cannot detect that, which is why the protocol tags shares with the
/// packet id and threshold on the wire.
[[nodiscard]] std::vector<std::uint8_t> reconstruct(std::span<const Share> shares);

/// Reference reconstruct: per-byte scalar accumulation (the seed path).
/// Byte-identical to reconstruct(); kept for tests and benchmarks.
[[nodiscard]] std::vector<std::uint8_t> reconstruct_scalar(
    std::span<const Share> shares);

/// reconstruct() over non-owning views: byte-identical result, same
/// precondition checks, no per-share vectors — the receiver's
/// arena-backed reassembly path hands spans into pool slots.
[[nodiscard]] std::vector<std::uint8_t> reconstruct_views(
    std::span<const ShareView> shares);

}  // namespace mcss::sss
