// Inline exp for non-positive arguments and the sigmoid built on it.
//
// exp_nonpos() re-implements, for x <= 0, the expf algorithm glibc ships
// since 2.28 (ARM optimized-routines): x * 32/ln2 = k + r, a 32-entry
// double table of 2^(i/32), and a cubic in r, all in double precision,
// rounded to float once at the end. The five std::fma calls sit where
// glibc's x86-64 FMA build fuses the same expressions, so on glibc the
// result equals std::exp(x) bit for bit for every non-positive float
// (tests/activation_test.cpp sweeps all of them). Whatever the libm, the
// repo's own results no longer depend on it.
//
// Being inline and branch-free (the underflow lanes are selected with an
// integer mask on the input bits), every loop over sigmoidf() is a plain
// auto-vectorization candidate, and its SIMD lanes run exactly the IEEE
// operation sequence of the scalar call: results are bit-identical across
// backends, worker counts and fused vs unfused paths.
#pragma once

#include <bit>
#include <cmath>
#include <cstdint>

namespace advp {

namespace detail {

// tab[i] = bits(2^(i/32)) - (i << 47): adding k << 47 to tab[k % 32]
// yields the bits of 2^(k/32) for any |k| < 150 * 32.
inline constexpr std::uint64_t kExp2Tab[32] = {
    0x3ff0000000000000, 0x3fefd9b0d3158574, 0x3fefb5586cf9890f,
    0x3fef9301d0125b51, 0x3fef72b83c7d517b, 0x3fef54873168b9aa,
    0x3fef387a6e756238, 0x3fef1e9df51fdee1, 0x3fef06fe0a31b715,
    0x3feef1a7373aa9cb, 0x3feedea64c123422, 0x3feece086061892d,
    0x3feebfdad5362a27, 0x3feeb42b569d4f82, 0x3feeab07dd485429,
    0x3feea47eb03a5585, 0x3feea09e667f3bcd, 0x3fee9f75e8ec5f74,
    0x3feea11473eb0187, 0x3feea589994cce13, 0x3feeace5422aa0db,
    0x3feeb737b0cdc5e5, 0x3feec49182a3f090, 0x3feed503b23e255d,
    0x3feee89f995ad3ad, 0x3feeff76f2fb5e47, 0x3fef199bdd85529c,
    0x3fef3720dcef9069, 0x3fef5818dcfba487, 0x3fef7c97337b9b5f,
    0x3fefa4afa2a490da, 0x3fefd0765b6e4540,
};
inline constexpr double kInvLn2N = 0x1.71547652b82fep+0 * 32;
inline constexpr double kShift = 0x1.8p+52;
// 2^(r/32) ~= 1 + C2 r + C1 r^2 + C0 r^3 for r in [-1/2, 1/2].
inline constexpr double kC0 = 0x1.c6af84b912394p-5 / 32 / 32 / 32;
inline constexpr double kC1 = 0x1.ebfce50fac4f3p-3 / 32 / 32;
inline constexpr double kC2 = 0x1.62e42ff0c52d6p-1 / 32;
// -0x1.9fe368p6f ~= log(2^-150): anything more negative is +0.
inline constexpr std::uint32_t kUnderflowBits =
    std::bit_cast<std::uint32_t>(-0x1.9fe368p6f);
inline constexpr std::uint32_t kNegInfBits =
    std::bit_cast<std::uint32_t>(-HUGE_VALF);

}  // namespace detail

/// e^x for x <= 0 (or NaN), equal to glibc's expf bit for bit. Undefined
/// for x > 0.
inline float exp_nonpos(float x) {
  using namespace detail;
  const std::uint32_t bits = std::bit_cast<std::uint32_t>(x);
  // x < log(2^-150), -inf included, NaN excluded: the result is +0. The
  // polynomial still runs on every lane (on the threshold instead, so it
  // sees only in-range values); the mask picks the answer afterwards.
  const std::uint32_t under =
      -static_cast<std::uint32_t>((bits > kUnderflowBits) & (bits <= kNegInfBits));
  const double xd =
      std::bit_cast<float>(bits ^ ((bits ^ kUnderflowBits) & under));
  const double shifted = std::fma(kInvLn2N, xd, kShift);
  const std::uint64_t ki = std::bit_cast<std::uint64_t>(shifted);
  const double kd = shifted - kShift;
  const double r = std::fma(kInvLn2N, xd, -kd);
  const double s = std::bit_cast<double>(kExp2Tab[ki % 32] + (ki << 47));
  const double z = std::fma(kC0, r, kC1);
  const double r2 = r * r;
  double y = std::fma(kC2, r, 1.0);
  y = std::fma(z, r2, y);
  y = y * s;
  const std::uint32_t out = std::bit_cast<std::uint32_t>(static_cast<float>(y));
  return std::bit_cast<float>(out & ~under);
}

/// Numerically-stable logistic sigmoid, 1 / (1 + e^-x). Bit-identical to
/// the two-branch form (x >= 0 ? 1 / (1 + e^-x) : e^x / (1 + e^x)) over
/// std::exp; one division keeps it if-convertible.
inline float sigmoidf(float x) {
  const float e = exp_nonpos(-std::fabs(x));
  return (x >= 0.f ? 1.f : e) / (1.f + e);
}

}  // namespace advp
