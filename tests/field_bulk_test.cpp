// Property tests for the GF(256) region kernels: every available kernel
// (portable + whatever SIMD the host dispatches to) must agree with the
// scalar gf::mul reference on random buffers — odd lengths, unaligned
// offsets, in-place operation, and the 0/1 scalar edge cases included.
#include <gtest/gtest.h>

#include <cstring>
#include <span>
#include <vector>

#include "field/gf256.hpp"
#include "field/gf256_bulk.hpp"
#include "util/ensure.hpp"
#include "util/rng.hpp"

namespace mcss::gf {
namespace {

std::vector<bulk::Kernel> available_kernels() {
  std::vector<bulk::Kernel> ks;
  for (const bulk::Kernel k :
       {bulk::Kernel::Portable, bulk::Kernel::Ssse3, bulk::Kernel::Avx2}) {
    if (bulk::kernel_supported(k)) ks.push_back(k);
  }
  return ks;
}

// Lengths straddling every vector width plus odd stragglers.
const std::vector<std::size_t> kLengths = {0,  1,  7,   8,   15,  16,  17,
                                           31, 32, 33,  63,  64,  100, 255,
                                           256, 257, 1000, 1470};

TEST(Gf256Bulk, DispatchReportsSupportedKernel) {
  EXPECT_TRUE(bulk::kernel_supported(bulk::active_kernel()));
  EXPECT_TRUE(bulk::kernel_supported(bulk::Kernel::Portable));
  EXPECT_STRNE(bulk::kernel_name(bulk::active_kernel()), "");
}

TEST(Gf256Bulk, MulRowMatchesScalarMul) {
  for (int s = 0; s < 256; ++s) {
    const auto row = bulk::mul_row(static_cast<Elem>(s));
    for (int b = 0; b < 256; ++b) {
      ASSERT_EQ(row[static_cast<std::size_t>(b)],
                mul(static_cast<Elem>(s), static_cast<Elem>(b)))
          << "s=" << s << " b=" << b;
    }
  }
}

TEST(Gf256Bulk, MulAccBufMatchesScalarReferenceOnEveryKernel) {
  Rng rng(102);
  for (const bulk::Kernel kernel : available_kernels()) {
    for (const std::size_t n : kLengths) {
      for (const int scalar_case : {0, 1, -1, -1, -1}) {
        const Elem s = scalar_case >= 0 ? static_cast<Elem>(scalar_case)
                                        : rng.byte();
        std::vector<Elem> src(n);
        std::vector<Elem> dst(n);
        for (auto& v : src) v = rng.byte();
        for (auto& v : dst) v = rng.byte();
        const std::vector<Elem> before = dst;
        bulk::mul_acc_buf(kernel, dst.data(), src.data(), s, n);
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(dst[i], add(before[i], mul(s, src[i])))
              << bulk::kernel_name(kernel) << " n=" << n << " i=" << i;
        }
      }
    }
  }
}

TEST(Gf256Bulk, UnalignedOffsetsAgreeWithReference) {
  // Vector kernels use unaligned loads; walk every offset within a
  // vector width on a deliberately misaligned window.
  Rng rng(103);
  const std::size_t n = 333;
  std::vector<Elem> src_buf(n + 64);
  std::vector<Elem> dst_buf(n + 64);
  for (auto& v : src_buf) v = rng.byte();
  for (const bulk::Kernel kernel : available_kernels()) {
    for (std::size_t offset = 0; offset < 33; ++offset) {
      const Elem s = rng.byte();
      for (auto& v : dst_buf) v = rng.byte();
      const std::vector<Elem> before = dst_buf;
      bulk::mul_acc_buf(kernel, dst_buf.data() + offset,
                        src_buf.data() + offset, s, n);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(dst_buf[offset + i],
                  add(before[offset + i], mul(s, src_buf[offset + i])))
            << bulk::kernel_name(kernel) << " offset=" << offset;
      }
    }
  }
}

TEST(Gf256Bulk, InPlaceOperationIsSupported) {
  Rng rng(104);
  for (const bulk::Kernel kernel : available_kernels()) {
    std::vector<Elem> buf(777);
    for (auto& v : buf) v = rng.byte();
    const std::vector<Elem> original = buf;
    const Elem s = 0x37;
    bulk::mul_acc_buf(kernel, buf.data(), buf.data(), s, buf.size());
    for (std::size_t i = 0; i < buf.size(); ++i) {
      ASSERT_EQ(buf[i], add(original[i], mul(s, original[i])))
          << bulk::kernel_name(kernel);
    }
  }
}

TEST(Gf256Bulk, AutoDispatchedEntryPointsMatchReference) {
  // The auto entry point shortcuts scalar 0 (no-op) and 1 (xor_buf);
  // every other scalar goes through the dispatched kernel. Both span
  // and pointer forms are checked, in place too.
  Rng rng(105);
  for (const std::size_t n : kLengths) {
    for (const int scalar_case : {0, 1, -1}) {
      const Elem s = scalar_case >= 0 ? static_cast<Elem>(scalar_case)
                                      : rng.byte();
      std::vector<Elem> src(n);
      std::vector<Elem> dst(n);
      for (auto& v : src) v = rng.byte();
      for (auto& v : dst) v = rng.byte();
      const std::vector<Elem> before = dst;
      bulk::mul_acc_buf(dst.data(), src.data(), s, n);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(dst[i], add(before[i], mul(s, src[i])))
            << "n=" << n << " s=" << int{s};
      }
      const std::vector<Elem> after_pointer = dst;
      bulk::mul_acc_buf(std::span<Elem>(dst), std::span<const Elem>(dst), s);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(dst[i], add(after_pointer[i], mul(s, after_pointer[i])))
            << "in place, n=" << n << " s=" << int{s};
      }
    }
  }
}

TEST(Gf256Bulk, XorBufMatchesReference) {
  Rng rng(106);
  for (const std::size_t n : kLengths) {
    std::vector<Elem> src(n);
    std::vector<Elem> dst(n);
    for (auto& v : src) v = rng.byte();
    for (auto& v : dst) v = rng.byte();
    const std::vector<Elem> before = dst;
    bulk::xor_buf(dst.data(), src.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(dst[i], static_cast<Elem>(before[i] ^ src[i])) << "n=" << n;
    }
  }
}

TEST(Gf256Bulk, ForcingUnsupportedKernelThrows) {
  for (const bulk::Kernel k : {bulk::Kernel::Ssse3, bulk::Kernel::Avx2}) {
    if (bulk::kernel_supported(k)) continue;
    std::vector<Elem> buf(16, 1);
    EXPECT_THROW(bulk::mul_acc_buf(k, buf.data(), buf.data(), 2, buf.size()),
                 PreconditionError);
  }
}

}  // namespace
}  // namespace mcss::gf
