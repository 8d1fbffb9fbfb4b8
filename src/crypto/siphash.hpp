// SipHash-2-4 (Aumasson & Bernstein).
//
// A fast keyed pseudorandom function with a 128-bit key and 64-bit
// output, designed for exactly this use case: authenticating short
// messages against active adversaries without public-key machinery. The
// protocol's authenticated wire mode tags each share frame so that a
// Byzantine channel (netem `corrupt`, or an adversary injecting forged
// shares) cannot smuggle a bogus share into reassembly — threshold
// schemes by themselves reconstruct garbage from tampered shares without
// any indication.
//
// One message is one long dependency chain, so siphash24() cannot go
// faster than the scalar rounds. Many messages can: siphash24_lanes()
// hashes four messages per pass in 4x64-bit SIMD lanes (the m equal-size
// shares of one packet, or the frames of one receive batch). The lanes
// run the full 8-byte blocks the four messages have in common; each
// lane's remaining blocks, tail and finalization finish in scalar code
// from its extracted state, so every result is bit-identical to
// siphash24() on that message. Groups of four are taken in input order;
// the shortest member bounds the blocks the lanes share. The x86 kernel
// is AVX2 (shift/or rotates, byte/dword shuffles for the 16- and 32-bit
// ones), dispatched once at startup via __builtin_cpu_supports (as
// field/gf256_bulk.cpp does). Other hosts loop over the scalar code.
//
// Implemented from the specification; all 64 reference vectors_sip64
// entries plus longer OpenSSL-generated vectors are checked in
// tests/crypto_test.cpp against the scalar path and every lane tier.
#pragma once

#include <array>
#include <cstdint>
#include <span>

namespace mcss::crypto {

/// 128-bit SipHash key.
using SipHashKey = std::array<std::uint8_t, 16>;

/// SipHash-2-4 of `data` under `key`, as a 64-bit value (little-endian
/// convention matching the reference implementation).
[[nodiscard]] std::uint64_t siphash24(std::span<const std::uint8_t> data,
                                      const SipHashKey& key) noexcept;

/// Multi-message kernel implementations, in increasing capability.
enum class LaneKernel {
  Portable,  ///< one scalar siphash24() per message; always available
  Avx2,      ///< 4 lanes; shift/or rotates, shuffles for 16/32 bits
};

/// Human-readable kernel name ("portable", "avx2").
[[nodiscard]] const char* lane_kernel_name(LaneKernel k) noexcept;

/// The kernel siphash24_lanes() resolved to on this host.
[[nodiscard]] LaneKernel active_lane_kernel() noexcept;

/// Whether `k` can run on this host (Portable always can).
[[nodiscard]] bool lane_kernel_supported(LaneKernel k) noexcept;

/// out[i] = siphash24(msgs[i], key) for every i. Reads no byte outside
/// any message. Throws PreconditionError when out.size() != msgs.size().
void siphash24_lanes(std::span<const std::span<const std::uint8_t>> msgs,
                     const SipHashKey& key, std::span<std::uint64_t> out);

/// Forced-kernel variant for property tests and benchmarks; additionally
/// throws PreconditionError when `k` is unsupported on this host.
void siphash24_lanes(LaneKernel k,
                     std::span<const std::span<const std::uint8_t>> msgs,
                     const SipHashKey& key, std::span<std::uint64_t> out);

/// Tag helpers for the wire format: the 64-bit MAC as 8 bytes, LE.
[[nodiscard]] std::array<std::uint8_t, 8> siphash24_tag(
    std::span<const std::uint8_t> data, const SipHashKey& key) noexcept;

/// Writes `h` as the 8 tag bytes (LE) at `dst`.
void store_tag(std::uint64_t h, std::uint8_t* dst) noexcept;

/// Constant-time comparison of two 8-byte tags.
[[nodiscard]] bool tag_equal(std::span<const std::uint8_t> a,
                             std::span<const std::uint8_t> b) noexcept;

}  // namespace mcss::crypto
