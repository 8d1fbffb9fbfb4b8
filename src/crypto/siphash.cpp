#include "crypto/siphash.hpp"

#include <algorithm>
#include <cstddef>
#include <cstring>

#include "util/ensure.hpp"

#if defined(__x86_64__) || defined(__i386__)
#define MCSS_SIPHASH_X86 1
#endif

namespace mcss::crypto {

namespace {

constexpr std::uint64_t rotl(std::uint64_t x, int b) noexcept {
  return (x << b) | (x >> (64 - b));
}

constexpr std::uint64_t load_le64(const std::uint8_t* p) noexcept {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

struct State {
  std::uint64_t v0, v1, v2, v3;

  constexpr void sipround() noexcept {
    v0 += v1;
    v1 = rotl(v1, 13);
    v1 ^= v0;
    v0 = rotl(v0, 32);
    v2 += v3;
    v3 = rotl(v3, 16);
    v3 ^= v2;
    v0 += v3;
    v3 = rotl(v3, 21);
    v3 ^= v0;
    v2 += v1;
    v1 = rotl(v1, 17);
    v1 ^= v2;
    v2 = rotl(v2, 32);
  }

  constexpr void compress(std::uint64_t m) noexcept {
    v3 ^= m;
    sipround();
    sipround();
    v0 ^= m;
  }
};

[[gnu::always_inline]] inline State initial_state(
    const SipHashKey& key) noexcept {
  const std::uint64_t k0 = load_le64(key.data());
  const std::uint64_t k1 = load_le64(key.data() + 8);
  return {0x736f6d6570736575ULL ^ k0, 0x646f72616e646f6dULL ^ k1,
          0x6c7967656e657261ULL ^ k0, 0x7465646279746573ULL ^ k1};
}

/// Absorb the full blocks of `data` from block `from` on, then the final
/// block and the finalization rounds: the scalar path of siphash24() and
/// the per-lane finish of the multi-message kernels. Always inlined, so
/// siphash24() compiles to the same code as a dedicated scalar loop.
[[gnu::always_inline]] inline std::uint64_t finish(
    State s, std::span<const std::uint8_t> data, std::size_t from) noexcept {
  const std::size_t len = data.size();
  const std::size_t full_blocks = len / 8;
  for (std::size_t i = from; i < full_blocks; ++i) {
    s.compress(load_le64(data.data() + i * 8));
  }

  // Final block: remaining bytes plus the length in the top byte.
  std::uint64_t b = static_cast<std::uint64_t>(len & 0xFF) << 56;
  const std::size_t tail = full_blocks * 8;
  for (std::size_t i = 0; i < len - tail; ++i) {
    b |= static_cast<std::uint64_t>(data[tail + i]) << (8 * i);
  }
  s.compress(b);

  s.v2 ^= 0xFF;
  s.sipround();
  s.sipround();
  s.sipround();
  s.sipround();
  return s.v0 ^ s.v1 ^ s.v2 ^ s.v3;
}

// ------------------------------------------------------------ lanes

/// Runs `blocks` full 8-byte blocks of the four messages at p[0..3] from
/// the states s[0..3], in place.
using AbsorbFn = void (*)(const std::uint8_t* const* p, std::size_t blocks,
                          State* s) noexcept;

#ifdef MCSS_SIPHASH_X86

// GCC vector extensions instead of intrinsics: the always_inline helpers
// below are ISA-neutral and compile for the target of the function they
// land in (absorb4_avx2). Vectors travel by reference only, so no
// function signature depends on the AVX calling convention.
typedef std::uint64_t U64x4 __attribute__((vector_size(32)));
typedef std::uint32_t U32x8 __attribute__((vector_size(32)));
typedef std::uint8_t U8x32 __attribute__((vector_size(32)));

/// One 8-byte block as a single unaligned load: x86 is little-endian, so
/// this is load_le64() without the byte-at-a-time assembly.
[[gnu::always_inline]] inline std::uint64_t load_word(
    const std::uint8_t* p) noexcept {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

/// AVX2 has no 64-bit rotate: shift/shift/or, except the 32-bit rotate
/// (a dword swap, VPSHUFD) and the 16-bit one (a byte shuffle, VPSHUFB).
template <int B>
[[gnu::always_inline]] inline void rotl4(U64x4& x) noexcept {
  if constexpr (B == 32) {
    const U32x8 swap = {1, 0, 3, 2, 5, 4, 7, 6};
    x = reinterpret_cast<U64x4>(
        __builtin_shuffle(reinterpret_cast<U32x8>(x), swap));
  } else if constexpr (B == 16) {
    const U8x32 by2 = {6,  7,  0,  1,  2,  3,  4,  5,  14, 15, 8,
                       9,  10, 11, 12, 13, 22, 23, 16, 17, 18, 19,
                       20, 21, 30, 31, 24, 25, 26, 27, 28, 29};
    x = reinterpret_cast<U64x4>(
        __builtin_shuffle(reinterpret_cast<U8x32>(x), by2));
  } else {
    x = (x << B) | (x >> (64 - B));
  }
}

[[gnu::always_inline]] inline void sipround4(U64x4& v0, U64x4& v1, U64x4& v2,
                                             U64x4& v3) noexcept {
  v0 += v1;
  rotl4<13>(v1);
  v1 ^= v0;
  rotl4<32>(v0);
  v2 += v3;
  rotl4<16>(v3);
  v3 ^= v2;
  v0 += v3;
  rotl4<21>(v3);
  v3 ^= v0;
  v2 += v1;
  rotl4<17>(v1);
  v1 ^= v2;
  rotl4<32>(v2);
}

__attribute__((target("avx2"))) void absorb4_avx2(const std::uint8_t* const* p,
                                                  std::size_t blocks,
                                                  State* s) noexcept {
  U64x4 v0 = {s[0].v0, s[1].v0, s[2].v0, s[3].v0};
  U64x4 v1 = {s[0].v1, s[1].v1, s[2].v1, s[3].v1};
  U64x4 v2 = {s[0].v2, s[1].v2, s[2].v2, s[3].v2};
  U64x4 v3 = {s[0].v3, s[1].v3, s[2].v3, s[3].v3};
  for (std::size_t i = 0; i < blocks; ++i) {
    const std::size_t at = i * 8;
    const U64x4 m = {load_word(p[0] + at), load_word(p[1] + at),
                     load_word(p[2] + at), load_word(p[3] + at)};
    v3 ^= m;
    sipround4(v0, v1, v2, v3);
    sipround4(v0, v1, v2, v3);
    v0 ^= m;
  }
  for (int l = 0; l < 4; ++l) s[l] = {v0[l], v1[l], v2[l], v3[l]};
}

#endif  // MCSS_SIPHASH_X86

LaneKernel detect_lane_kernel() noexcept {
#ifdef MCSS_SIPHASH_X86
  if (__builtin_cpu_supports("avx2")) return LaneKernel::Avx2;
#endif
  return LaneKernel::Portable;
}

AbsorbFn absorb_fn(LaneKernel k) noexcept {
  switch (k) {
#ifdef MCSS_SIPHASH_X86
    case LaneKernel::Avx2:
      return &absorb4_avx2;
#endif
    default:
      return nullptr;
  }
}

const LaneKernel active_kernel = detect_lane_kernel();

void hash_lanes(AbsorbFn absorb,
                std::span<const std::span<const std::uint8_t>> msgs,
                const SipHashKey& key, std::span<std::uint64_t> out) {
  MCSS_ENSURE(out.size() == msgs.size(),
              "siphash24_lanes needs one output per message");
  const State init = initial_state(key);
  std::size_t g = 0;
  if (absorb != nullptr) {
    // Groups of four in input order (a packet's shares are equal-sized,
    // and a receive batch is mostly one frame size); a lone last message
    // takes the scalar loop below.
    for (; g + 1 < msgs.size(); g += 4) {
      const std::size_t lanes = std::min<std::size_t>(4, msgs.size() - g);
      // A short group repeats its last message in the idle lanes (reads
      // stay inside that message; the duplicate results are dropped).
      // The shortest member bounds the blocks the lanes run in common.
      const std::uint8_t* p[4];
      std::size_t common = msgs[g].size() / 8;
      for (std::size_t l = 0; l < 4; ++l) {
        const auto msg = msgs[g + std::min(l, lanes - 1)];
        p[l] = msg.data();
        common = std::min(common, msg.size() / 8);
      }
      State s[4] = {init, init, init, init};
      if (common > 0) absorb(p, common, s);
      for (std::size_t l = 0; l < lanes; ++l) {
        out[g + l] = finish(s[l], msgs[g + l], common);
      }
    }
  }
  for (; g < msgs.size(); ++g) out[g] = finish(init, msgs[g], 0);
}

}  // namespace

std::uint64_t siphash24(std::span<const std::uint8_t> data,
                        const SipHashKey& key) noexcept {
  return finish(initial_state(key), data, 0);
}

const char* lane_kernel_name(LaneKernel k) noexcept {
  switch (k) {
    case LaneKernel::Avx2:
      return "avx2";
    case LaneKernel::Portable:
    default:
      return "portable";
  }
}

LaneKernel active_lane_kernel() noexcept { return active_kernel; }

bool lane_kernel_supported(LaneKernel k) noexcept {
  if (k == LaneKernel::Portable) return true;
#ifdef MCSS_SIPHASH_X86
  if (k == LaneKernel::Avx2) return __builtin_cpu_supports("avx2") != 0;
#endif
  return false;
}

void siphash24_lanes(std::span<const std::span<const std::uint8_t>> msgs,
                     const SipHashKey& key, std::span<std::uint64_t> out) {
  hash_lanes(absorb_fn(active_kernel), msgs, key, out);
}

void siphash24_lanes(LaneKernel k,
                     std::span<const std::span<const std::uint8_t>> msgs,
                     const SipHashKey& key, std::span<std::uint64_t> out) {
  MCSS_ENSURE(lane_kernel_supported(k),
              "requested SipHash lane kernel not supported on this host");
  hash_lanes(absorb_fn(k), msgs, key, out);
}

void store_tag(std::uint64_t h, std::uint8_t* dst) noexcept {
  for (int i = 0; i < 8; ++i) {
    dst[i] = static_cast<std::uint8_t>(h >> (8 * i));
  }
}

std::array<std::uint8_t, 8> siphash24_tag(std::span<const std::uint8_t> data,
                                          const SipHashKey& key) noexcept {
  std::array<std::uint8_t, 8> tag{};
  store_tag(siphash24(data, key), tag.data());
  return tag;
}

bool tag_equal(std::span<const std::uint8_t> a,
               std::span<const std::uint8_t> b) noexcept {
  if (a.size() != b.size()) return false;
  unsigned diff = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    diff |= static_cast<unsigned>(a[i] ^ b[i]);
  }
  return diff == 0;
}

}  // namespace mcss::crypto
