// Exhaustive parity sweeps for tensor/activation.h: exp_nonpos against
// libm's expf over every non-positive float (as scalar calls and as an
// auto-vectorized loop), and sigmoidf (scalar) and the SiLU array loop
// (vectorized) against the out-of-line sigmoid they replaced over every
// float bit pattern. "Equal" means the same bits, or NaN on both sides.
//
// Each sweep fans 2^14-element chunks out with parallel_for; at 4 workers
// the whole file runs in about 20 s on a Release build.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <string>
#include <vector>

#include "core/parallel.h"
#include "tensor/activation.h"

namespace advp {
namespace {

// Loops compiled as scalar code whatever the build's flags.
#define ADVP_SCALAR __attribute__((noinline, optimize("no-tree-vectorize")))

// The out-of-line sigmoidf that tensor/activation.h replaced, verbatim:
// the oracle, always a scalar libm call per element.
__attribute__((optimize("no-tree-vectorize"))) float ref_sigmoidf(float x) {
  if (x >= 0.f) {
    const float e = std::exp(-x);
    return 1.f / (1.f + e);
  }
  const float e = std::exp(x);
  return e / (1.f + e);
}

ADVP_SCALAR void ref_loops(const float* x, float* sig, float* silu,
                           std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const float s = ref_sigmoidf(x[i]);
    sig[i] = s;
    silu[i] = x[i] * s;
  }
}

ADVP_SCALAR void libm_exp_loop(const float* x, float* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] = std::exp(x[i]);
}

ADVP_SCALAR void scalar_sigmoid_loop(const float* x, float* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] = sigmoidf(x[i]);
}

ADVP_SCALAR void scalar_exp_loop(const float* x, float* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] = exp_nonpos(x[i]);
}

// The shape of the library's SiLU loops; this and exp_loop auto-vectorize.
void silu_loop(const float* x, float* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] = x[i] * sigmoidf(x[i]);
}

void exp_loop(const float* x, float* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] = exp_nonpos(x[i]);
}

bool same(float a, float b) {
  return std::bit_cast<std::uint32_t>(a) == std::bit_cast<std::uint32_t>(b) ||
         (std::isnan(a) && std::isnan(b));
}

constexpr std::size_t kChunk = std::size_t{1} << 14;

// Counts mismatches and keeps the first few for the failure message.
struct Mismatches {
  std::atomic<std::uint64_t> count{0};
  std::mutex mu;
  std::string first;

  // Compares got[] with want[] over x[0, n): one memcmp unless they differ.
  void check(const char* what, const float* x, const float* got,
             const float* want, std::size_t n) {
    if (std::memcmp(got, want, n * sizeof(float)) == 0) return;
    for (std::size_t j = 0; j < n; ++j) check(what, x[j], got[j], want[j]);
  }

  void check(const char* what, float x, float got, float want) {
    if (same(got, want)) return;
    if (count.fetch_add(1) >= 8) return;
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%s(%a [0x%08x]): got %a, want %a\n", what,
                  x, std::bit_cast<std::uint32_t>(x), got, want);
    std::lock_guard<std::mutex> lock(mu);
    first += buf;
  }
};

// Runs body(x, n) over every float whose bit pattern lies in
// [lo_bits, lo_bits + chunks * kChunk), one chunk per parallel_for index.
template <class Body>
void sweep(std::uint64_t lo_bits, std::size_t chunks, const Body& body) {
  parallel_for(0, chunks, [&](std::size_t c) {
    thread_local std::vector<float> x(kChunk);
    const std::uint64_t base = lo_bits + c * kChunk;
    for (std::size_t j = 0; j < kChunk; ++j)
      x[j] = std::bit_cast<float>(static_cast<std::uint32_t>(base + j));
    body(x.data(), kChunk);
  });
}

TEST(ActivationTest, ExpNonposEqualsStdExpForEveryNonPositiveFloat) {
  Mismatches bad;
  // Bit patterns 0x80000000.. are -0 down to -inf, then the negative NaNs
  // (checked too: NaN in, NaN out).
  sweep(0x80000000u, (std::size_t{1} << 31) / kChunk,
        [&](const float* x, std::size_t n) {
          thread_local std::vector<float> want(kChunk), vec(kChunk),
              scal(kChunk);
          libm_exp_loop(x, want.data(), n);
          exp_loop(x, vec.data(), n);
          scalar_exp_loop(x, scal.data(), n);
          bad.check("exp_nonpos[vector]", x, vec.data(), want.data(), n);
          bad.check("exp_nonpos[scalar]", x, scal.data(), want.data(), n);
        });
  bad.check("exp_nonpos", 0.f, exp_nonpos(0.f), std::exp(0.f));
  EXPECT_EQ(bad.count.load(), 0u) << bad.first;
}

TEST(ActivationTest, SigmoidAndSiluEqualOracleForEveryFloat) {
  Mismatches bad;
  sweep(0, (std::size_t{1} << 32) / kChunk,
        [&](const float* x, std::size_t n) {
          thread_local std::vector<float> rsig(kChunk), rsilu(kChunk),
              sig(kChunk), silu(kChunk);
          ref_loops(x, rsig.data(), rsilu.data(), n);
          scalar_sigmoid_loop(x, sig.data(), n);
          silu_loop(x, silu.data(), n);
          bad.check("sigmoidf", x, sig.data(), rsig.data(), n);
          bad.check("silu[vector]", x, silu.data(), rsilu.data(), n);
        });
  EXPECT_EQ(bad.count.load(), 0u) << bad.first;
}

}  // namespace
}  // namespace advp
