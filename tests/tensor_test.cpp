// Unit + property tests for the tensor substrate.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "core/check.h"
#include "core/obs.h"
#include "core/parallel.h"
#include "core/rng.h"
#include "tensor/gemm.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"

namespace advp {
namespace {

TEST(TensorTest, ConstructZeroFilled) {
  Tensor t({2, 3});
  EXPECT_EQ(t.numel(), 6u);
  EXPECT_EQ(t.rank(), 2);
  for (std::size_t i = 0; i < t.numel(); ++i) EXPECT_EQ(t[i], 0.f);
}

TEST(TensorTest, AtIndexingRowMajor) {
  Tensor t({2, 3});
  t.at(1, 2) = 5.f;
  EXPECT_EQ(t[5], 5.f);
  t.at(0, 1) = 3.f;
  EXPECT_EQ(t[1], 3.f);
}

TEST(TensorTest, Rank4Indexing) {
  Tensor t({2, 3, 4, 5});
  t.at(1, 2, 3, 4) = 9.f;
  EXPECT_EQ(t[static_cast<std::size_t>(1 * 3 * 4 * 5 + 2 * 4 * 5 + 3 * 5 + 4)], 9.f);
}

TEST(TensorTest, ElementwiseArithmetic) {
  Tensor a = Tensor::full({2, 2}, 2.f);
  Tensor b = Tensor::full({2, 2}, 3.f);
  Tensor c = a + b;
  EXPECT_EQ(c[0], 5.f);
  c -= a;
  EXPECT_EQ(c[3], 3.f);
  c *= b;
  EXPECT_EQ(c[1], 9.f);
  c *= 0.5f;
  EXPECT_EQ(c[2], 4.5f);
}

TEST(TensorTest, ShapeMismatchThrows) {
  Tensor a({2, 2}), b({2, 3});
  EXPECT_THROW(a += b, CheckError);
  EXPECT_THROW(a.dot(b), CheckError);
}

TEST(TensorTest, ReshapeInfersDim) {
  Tensor a({2, 6});
  Tensor b = a.reshape({3, -1});
  EXPECT_EQ(b.dim(0), 3);
  EXPECT_EQ(b.dim(1), 4);
  EXPECT_THROW(a.reshape({5, -1}), CheckError);
}

TEST(TensorTest, Reductions) {
  Tensor t = Tensor::from_vector({4}, {1.f, -2.f, 3.f, 0.5f});
  EXPECT_FLOAT_EQ(t.sum(), 2.5f);
  EXPECT_FLOAT_EQ(t.mean(), 0.625f);
  EXPECT_FLOAT_EQ(t.min(), -2.f);
  EXPECT_FLOAT_EQ(t.max(), 3.f);
  EXPECT_EQ(t.argmax(), 2u);
  EXPECT_FLOAT_EQ(t.abs_max(), 3.f);
  EXPECT_FLOAT_EQ(t.sq_norm(), 1.f + 4.f + 9.f + 0.25f);
}

TEST(TensorTest, ClampAndApply) {
  Tensor t = Tensor::from_vector({3}, {-1.f, 0.5f, 2.f});
  t.clamp(0.f, 1.f);
  EXPECT_EQ(t[0], 0.f);
  EXPECT_EQ(t[1], 0.5f);
  EXPECT_EQ(t[2], 1.f);
  t.apply([](float v) { return v * 2.f; });
  EXPECT_EQ(t[2], 2.f);
}

TEST(TensorTest, AxpyMatchesManual) {
  Tensor a = Tensor::from_vector({3}, {1.f, 2.f, 3.f});
  Tensor b = Tensor::from_vector({3}, {4.f, 5.f, 6.f});
  Tensor c = axpy(a, 0.5f, b);
  EXPECT_FLOAT_EQ(c[0], 3.f);
  EXPECT_FLOAT_EQ(c[2], 6.f);
}

TEST(TensorTest, RandnStatistics) {
  Rng rng(1);
  Tensor t = Tensor::randn({64, 64}, rng, 2.f);
  EXPECT_NEAR(t.mean(), 0.f, 0.15f);
  const float var = t.sq_norm() / static_cast<float>(t.numel());
  EXPECT_NEAR(var, 4.f, 0.5f);
}

TEST(MatmulTest, SmallKnownProduct) {
  Tensor a = Tensor::from_vector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b = Tensor::from_vector({3, 2}, {7, 8, 9, 10, 11, 12});
  Tensor c = matmul(a, b);
  EXPECT_FLOAT_EQ(c.at(0, 0), 58.f);
  EXPECT_FLOAT_EQ(c.at(0, 1), 64.f);
  EXPECT_FLOAT_EQ(c.at(1, 0), 139.f);
  EXPECT_FLOAT_EQ(c.at(1, 1), 154.f);
}

TEST(MatmulTest, TransposeRoundTrip) {
  Rng rng(2);
  Tensor a = Tensor::randn({5, 7}, rng);
  Tensor t = transpose(transpose(a));
  for (std::size_t i = 0; i < a.numel(); ++i) EXPECT_EQ(a[i], t[i]);
}

TEST(MatmulTest, InnerDimMismatchThrows) {
  Tensor a({2, 3}), b({4, 2});
  EXPECT_THROW(matmul(a, b), CheckError);
}

TEST(ConvTest, IdentityKernelPreservesInput) {
  Rng rng(3);
  Tensor x = Tensor::randn({1, 1, 5, 5}, rng);
  Conv2dSpec spec{1, 1, 3, 1, 1};
  Tensor w({1, 1, 3, 3});
  w.at(0, 0, 1, 1) = 1.f;  // delta kernel
  Tensor b({1});
  Tensor y = conv2d_forward(x, w, b, spec);
  ASSERT_TRUE(y.same_shape(x));
  for (std::size_t i = 0; i < x.numel(); ++i) EXPECT_NEAR(y[i], x[i], 1e-6f);
}

TEST(ConvTest, StrideTwoHalvesOutput) {
  Tensor x({1, 2, 8, 8});
  Conv2dSpec spec{2, 4, 3, 2, 1};
  Rng rng(4);
  Tensor w = Tensor::randn({4, 2, 3, 3}, rng);
  Tensor b({4});
  Tensor y = conv2d_forward(x, w, b, spec);
  EXPECT_EQ(y.dim(2), 4);
  EXPECT_EQ(y.dim(3), 4);
}

TEST(ConvTest, BiasAddsUniformly) {
  Tensor x({1, 1, 4, 4});
  Conv2dSpec spec{1, 2, 3, 1, 1};
  Tensor w({2, 1, 3, 3});
  Tensor b = Tensor::from_vector({2}, {1.5f, -0.5f});
  Tensor y = conv2d_forward(x, w, b, spec);
  EXPECT_FLOAT_EQ(y.at(0, 0, 2, 2), 1.5f);
  EXPECT_FLOAT_EQ(y.at(0, 1, 1, 1), -0.5f);
}

// Property: conv2d_backward's input gradient matches numeric differentiation.
TEST(ConvTest, BackwardMatchesNumericGradient) {
  Rng rng(5);
  Tensor x = Tensor::randn({1, 2, 5, 5}, rng, 0.5f);
  Conv2dSpec spec{2, 3, 3, 1, 1};
  Tensor w = Tensor::randn({3, 2, 3, 3}, rng, 0.3f);
  Tensor b = Tensor::randn({3}, rng, 0.1f);

  // Scalar objective: sum of outputs.
  auto f = [&](const Tensor& xx) {
    return conv2d_forward(xx, w, b, spec).sum();
  };
  Tensor dy = Tensor::ones({1, 3, 5, 5});
  Conv2dGrads g = conv2d_backward(x, w, dy, spec);

  const float h = 1e-3f;
  for (std::size_t i : {0ul, 7ul, 23ul, 49ul}) {
    Tensor xp = x;
    xp[i] += h;
    Tensor xm = x;
    xm[i] -= h;
    const float num = (f(xp) - f(xm)) / (2.f * h);
    EXPECT_NEAR(g.dx[i], num, 5e-2f) << "at index " << i;
  }
}

TEST(ConvTest, WeightGradientMatchesNumeric) {
  Rng rng(6);
  Tensor x = Tensor::randn({2, 1, 4, 4}, rng, 0.5f);
  Conv2dSpec spec{1, 2, 3, 1, 1};
  Tensor w = Tensor::randn({2, 1, 3, 3}, rng, 0.3f);
  Tensor b({2});
  auto f = [&](const Tensor& ww) {
    return conv2d_forward(x, ww, b, spec).sum();
  };
  Tensor dy = Tensor::ones({2, 2, 4, 4});
  Conv2dGrads g = conv2d_backward(x, w, dy, spec);
  const float h = 1e-3f;
  for (std::size_t i : {0ul, 5ul, 11ul, 17ul}) {
    Tensor wp = w;
    wp[i] += h;
    Tensor wm = w;
    wm[i] -= h;
    const float num = (f(wp) - f(wm)) / (2.f * h);
    EXPECT_NEAR(g.dw[i], num, 5e-2f) << "at index " << i;
  }
}

bool bitwise_equal(const Tensor& a, const Tensor& b) {
  if (a.shape() != b.shape()) return false;
  return std::memcmp(a.data(), b.data(), a.numel() * sizeof(float)) == 0;
}

// Reference conv forward built without conv2d_forward_items: per item, the
// test's own [patch, pixels] column matrix (element (p, j) is the input
// pixel patch entry p of output pixel j reads, zero outside the image)
// times the weights through one plain gemm() with the bias epilogue.
Tensor column_gemm_conv(const Tensor& x, const Tensor& w, const Tensor& b,
                        const Conv2dSpec& s, GemmPrecision prec,
                        float act_scale) {
  const int n = x.dim(0), c_in = x.dim(1), h = x.dim(2), wd = x.dim(3);
  const int ho = s.out_h(h), wo = s.out_w(wd);
  const int kk = s.kernel * s.kernel;
  const int patch = c_in * kk, pixels = ho * wo;
  GemmEpilogue epi;
  epi.bias = b.data();
  GemmExtra extra;
  extra.epilogue = &epi;
  extra.precision = prec;
  extra.act_scale = act_scale;
  Tensor y({n, s.out_channels, ho, wo});
  std::vector<float> cols(static_cast<std::size_t>(patch) * pixels);
  for (int i = 0; i < n; ++i) {
    for (int p = 0; p < patch; ++p) {
      const int c = p / kk, ky = (p % kk) / s.kernel, kx = p % s.kernel;
      for (int oy = 0; oy < ho; ++oy)
        for (int ox = 0; ox < wo; ++ox) {
          const int iy = oy * s.stride + ky - s.pad;
          const int ix = ox * s.stride + kx - s.pad;
          cols[static_cast<std::size_t>(p) * pixels + oy * wo + ox] =
              (iy >= 0 && iy < h && ix >= 0 && ix < wd) ? x.at(i, c, iy, ix)
                                                        : 0.f;
        }
    }
    gemm(s.out_channels, pixels, patch, w.data(), patch, /*trans_a=*/false,
         cols.data(), pixels, /*trans_b=*/false,
         y.data() + static_cast<std::size_t>(i) * s.out_channels * pixels,
         pixels, /*accumulate=*/false, extra);
  }
  return y;
}

struct Geo {
  int c_in, h, w, kernel, stride, pad;
  const char* name;
};

// The one conv lowering against the column-matrix reference, bit for bit,
// for one geometry x tier (fp32, calibrated int8) x batch (1, 3) x worker
// count (1, 4). Each call runs cold on a fresh weight-cache slot.
void expect_forward_matches_columns(const Geo& g, int c_out, Rng& rng) {
  const Conv2dSpec spec{g.c_in, c_out, g.kernel, g.stride, g.pad};
  const Tensor w = Tensor::randn({c_out, g.c_in, g.kernel, g.kernel}, rng);
  const Tensor b = Tensor::randn({c_out}, rng);
  for (int batch : {1, 3}) {
    // Signed inputs so int8 quantization sees both polarities.
    Tensor x = Tensor::rand({batch, g.c_in, g.h, g.w}, rng);
    for (std::size_t i = 0; i < x.numel(); ++i) x[i] = x[i] * 2.f - 1.f;
    for (GemmPrecision prec : {GemmPrecision::kFp32, GemmPrecision::kInt8}) {
      const float act_scale =
          prec == GemmPrecision::kInt8 ? x.abs_max() / 127.f : 0.f;
      Tensor expected;
      {
        ScopedMaxWorkers serial(1);
        expected = column_gemm_conv(x, w, b, spec, prec, act_scale);
      }
      for (int workers : {1, 4}) {
        ScopedMaxWorkers scoped(static_cast<std::size_t>(workers));
        GemmCacheSlot slot;
        ConvFusion fusion;
        fusion.weight_cache = &slot;
        fusion.precision = prec;
        fusion.act_scale = act_scale;
        EXPECT_TRUE(bitwise_equal(conv2d_forward(x, w, b, spec, &fusion),
                                  expected))
            << g.name << ", tier " << precision_name(prec) << ", batch "
            << batch << ", workers " << workers;
      }
    }
  }
}

// The three cases below keep the suite names they had when an implicit
// (gather-in-the-packer) lowering still ran beside the staged one; each
// now pins the one staged lowering against the test-built reference.

// Conv geometries: stride 2, pad 0/1, 1x1 and 5x5 kernels, non-square
// inputs.
TEST(ImplicitGemmPack, BitIdenticalToStagedAcrossGeometriesTiersWorkers) {
  const Geo geos[] = {
      {5, 16, 16, 3, 1, 1, "k3s1p1"},
      {5, 17, 13, 3, 2, 1, "k3s2p1 non-square"},
      {5, 12, 20, 1, 1, 0, "k1s1p0"},
      {4, 9, 9, 5, 2, 2, "k5s2p2"},
  };
  Rng rng(11);
  for (const Geo& g : geos) expect_forward_matches_columns(g, 24, rng);
}

// A product small enough for the fp32 naive fallback (n < 8) stays
// bit-exact too.
TEST(ImplicitGemmPack, NaiveFallbackGathersIdenticalDenseMatrix) {
  Rng rng(13);
  expect_forward_matches_columns({2, 2, 3, 3, 1, 1, "6 output pixels"}, 4,
                                 rng);
}

// The fused eager forward (ConvFusion with a weight-cache slot) matches the
// reference cold and warm, and in fp32 matches the unfused eager forward.
TEST(ImplicitConvForward, FusedEagerMatchesStagedOracle) {
  Rng rng(21);
  expect_forward_matches_columns({3, 20, 20, 3, 1, 1, "k3s1p1 20x20"}, 8,
                                 rng);
  const Conv2dSpec spec{3, 8, 3, 1, 1};
  const Tensor w = Tensor::rand({8, 3, 3, 3}, rng);
  const Tensor b = Tensor::rand({8}, rng);
  const Tensor x = Tensor::rand({3, 3, 20, 20}, rng);
  for (int workers : {1, 4}) {
    ScopedMaxWorkers scoped(static_cast<std::size_t>(workers));
    const Tensor unfused = conv2d_forward(x, w, b, spec);
    GemmCacheSlot slot;
    ConvFusion fusion;
    fusion.weight_cache = &slot;
    const Tensor cold = conv2d_forward(x, w, b, spec, &fusion);
    const Tensor warm = conv2d_forward(x, w, b, spec, &fusion);
    EXPECT_TRUE(bitwise_equal(cold, unfused)) << "workers " << workers;
    EXPECT_TRUE(bitwise_equal(warm, unfused)) << "workers " << workers;
  }
}

// Forward and backward share the one staged lowering: each must tick the
// im2col_bytes_staged counter (unless ADVP_TRACE=0 forces tracing off).
TEST(ConvTest, ForwardAndBackwardStageIm2col) {
  Rng rng(33);
  const Conv2dSpec spec{3, 6, 3, 1, 1};
  const Tensor x = Tensor::rand({2, 3, 12, 12}, rng);
  const Tensor w = Tensor::rand({6, 3, 3, 3}, rng);
  const Tensor b = Tensor::rand({6}, rng);
  const Tensor dy = Tensor::rand({2, 6, 12, 12}, rng);
  obs::enable();
  const std::uint64_t before_fwd =
      obs::counter_value(obs::Counter::kIm2colBytesStaged);
  conv2d_forward(x, w, b, spec);
  const std::uint64_t before_bwd =
      obs::counter_value(obs::Counter::kIm2colBytesStaged);
  conv2d_backward(x, w, dy, spec);
  const std::uint64_t after_bwd =
      obs::counter_value(obs::Counter::kIm2colBytesStaged);
  obs::enable(false);
  if (obs::trace_disabled()) return;
  EXPECT_GT(before_bwd, before_fwd) << "forward staged no im2col bytes";
  EXPECT_GT(after_bwd, before_bwd) << "backward staged no im2col bytes";
}

TEST(PoolTest, MaxPoolPicksMaxAndRoutesGradient) {
  Tensor x({1, 1, 2, 2});
  x.at(0, 0, 0, 0) = 1.f;
  x.at(0, 0, 0, 1) = 4.f;
  x.at(0, 0, 1, 0) = 2.f;
  x.at(0, 0, 1, 1) = 3.f;
  std::vector<int> argmax;
  Tensor y = maxpool2x2_forward(x, &argmax);
  EXPECT_FLOAT_EQ(y.at(0, 0, 0, 0), 4.f);
  Tensor dy = Tensor::ones({1, 1, 1, 1});
  Tensor dx = maxpool2x2_backward(dy, argmax, x.shape());
  EXPECT_FLOAT_EQ(dx.at(0, 0, 0, 1), 1.f);
  EXPECT_FLOAT_EQ(dx.at(0, 0, 0, 0), 0.f);
}

TEST(PoolTest, GlobalAvgPoolForwardBackward) {
  Tensor x = Tensor::full({1, 2, 2, 2}, 3.f);
  x.at(0, 0, 0, 0) = 7.f;
  Tensor y = global_avgpool_forward(x);
  EXPECT_FLOAT_EQ(y.at(0, 0), 4.f);
  EXPECT_FLOAT_EQ(y.at(0, 1), 3.f);
  Tensor dy = Tensor::ones({1, 2});
  Tensor dx = global_avgpool_backward(dy, x.shape());
  EXPECT_FLOAT_EQ(dx.at(0, 0, 1, 1), 0.25f);
}

TEST(UpsampleTest, ForwardReplicatesBackwardSums) {
  Tensor x({1, 1, 2, 2});
  x.at(0, 0, 0, 0) = 1.f;
  x.at(0, 0, 1, 1) = 2.f;
  Tensor y = upsample2x_forward(x);
  EXPECT_EQ(y.dim(2), 4);
  EXPECT_FLOAT_EQ(y.at(0, 0, 0, 1), 1.f);
  EXPECT_FLOAT_EQ(y.at(0, 0, 3, 3), 2.f);
  Tensor dx = upsample2x_backward(y);
  EXPECT_FLOAT_EQ(dx.at(0, 0, 0, 0), 4.f);
  EXPECT_FLOAT_EQ(dx.at(0, 0, 1, 1), 8.f);
}

TEST(SoftmaxTest, RowsSumToOneAndStable) {
  Tensor logits = Tensor::from_vector({2, 3}, {1000.f, 1000.f, 1000.f,
                                               -5.f, 0.f, 5.f});
  Tensor p = softmax_rows(logits);
  for (int i = 0; i < 2; ++i) {
    float s = 0.f;
    for (int j = 0; j < 3; ++j) s += p.at(i, j);
    EXPECT_NEAR(s, 1.f, 1e-5f);
  }
  EXPECT_NEAR(p.at(0, 0), 1.f / 3.f, 1e-5f);
  EXPECT_GT(p.at(1, 2), p.at(1, 1));
}

TEST(SigmoidTest, StableAtExtremes) {
  EXPECT_NEAR(sigmoidf(0.f), 0.5f, 1e-6f);
  EXPECT_NEAR(sigmoidf(100.f), 1.f, 1e-6f);
  EXPECT_NEAR(sigmoidf(-100.f), 0.f, 1e-6f);
}

// The two-branch sigmoid over std::exp that tensor/activation.h replaced.
float two_branch_sigmoid(float x) {
  if (x >= 0.f) {
    const float e = std::exp(-x);
    return 1.f / (1.f + e);
  }
  const float e = std::exp(x);
  return e / (1.f + e);
}

bool same_bits_or_nan(float a, float b) {
  std::uint32_t ua, ub;
  std::memcpy(&ua, &a, 4);
  std::memcpy(&ub, &b, 4);
  return ua == ub || (std::isnan(a) && std::isnan(b));
}

// Edge values of the inline exp/sigmoid: signed zeros, infinities, NaN, and
// 16 floats either side of the underflow threshold log(2^-150) ~= -103.97,
// of log(2^-149) ~= -103.28 and of log(FLT_MIN) ~= -87.34, where results
// turn subnormal. tests/activation_test.cpp sweeps every float; this is the
// cheap subset the sanitizer builds run.
TEST(SigmoidTest, EdgeValuesMatchLibmBitForBit) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  std::vector<float> xs = {0.f, -0.f, inf, -inf, nan, -nan};
  for (float c : {-0x1.9fe368p6f, -0x1.9d1d9ep6f, -0x1.5d58a0p6f}) {
    float lo = c, hi = c;
    xs.push_back(c);
    for (int i = 0; i < 16; ++i) {
      lo = std::nextafter(lo, -inf);
      hi = std::nextafter(hi, 0.f);
      xs.push_back(lo);
      xs.push_back(hi);
    }
  }
  for (float x : xs) {
    const float nonpos = -std::fabs(x);
    EXPECT_TRUE(same_bits_or_nan(exp_nonpos(nonpos), std::exp(nonpos)))
        << nonpos;
    EXPECT_TRUE(same_bits_or_nan(sigmoidf(x), two_branch_sigmoid(x))) << x;
    EXPECT_TRUE(same_bits_or_nan(sigmoidf(-x), two_branch_sigmoid(-x))) << x;
  }
  // The same values through a (vectorizable) array loop.
  const Tensor t = Tensor::from_vector({static_cast<int>(xs.size())}, xs);
  const Tensor silu = t.map([](float v) { return v * sigmoidf(v); });
  for (std::size_t i = 0; i < xs.size(); ++i)
    EXPECT_TRUE(
        same_bits_or_nan(silu[i], xs[i] * two_branch_sigmoid(xs[i])))
        << xs[i];

  EXPECT_EQ(exp_nonpos(-inf), 0.f);
  EXPECT_FALSE(std::signbit(exp_nonpos(-inf)));
  EXPECT_EQ(exp_nonpos(-0.f), 1.f);
  EXPECT_GT(exp_nonpos(-0x1.9fe368p6f), 0.f);  // 2^-149, the last nonzero
  EXPECT_EQ(exp_nonpos(std::nextafter(-0x1.9fe368p6f, -inf)), 0.f);
  EXPECT_EQ(sigmoidf(inf), 1.f);
  EXPECT_EQ(sigmoidf(-inf), 0.f);
  EXPECT_EQ(sigmoidf(-0.f), 0.5f);
  EXPECT_TRUE(std::isnan(sigmoidf(nan)));
  EXPECT_TRUE(std::isnan(sigmoidf(-nan)));
}

// Parameterized property sweep: conv forward/backward shape coherence
// across geometries.
struct ConvGeom {
  int cin, cout, k, stride, pad, size;
};

class ConvGeometryTest : public ::testing::TestWithParam<ConvGeom> {};

TEST_P(ConvGeometryTest, ShapesAndGradShapesAgree) {
  const ConvGeom g = GetParam();
  Rng rng(42);
  Tensor x = Tensor::randn({2, g.cin, g.size, g.size}, rng);
  Conv2dSpec spec{g.cin, g.cout, g.k, g.stride, g.pad};
  Tensor w = Tensor::randn({g.cout, g.cin, g.k, g.k}, rng);
  Tensor b({g.cout});
  Tensor y = conv2d_forward(x, w, b, spec);
  EXPECT_EQ(y.dim(1), g.cout);
  EXPECT_EQ(y.dim(2), spec.out_h(g.size));
  Conv2dGrads grads = conv2d_backward(x, w, y, spec);
  EXPECT_TRUE(grads.dx.same_shape(x));
  EXPECT_TRUE(grads.dw.same_shape(w));
  EXPECT_EQ(grads.db.dim(0), g.cout);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, ConvGeometryTest,
    ::testing::Values(ConvGeom{1, 1, 1, 1, 0, 4}, ConvGeom{3, 8, 3, 1, 1, 8},
                      ConvGeom{2, 4, 3, 2, 1, 8}, ConvGeom{4, 2, 5, 1, 2, 9},
                      ConvGeom{8, 16, 1, 1, 0, 6}));

}  // namespace
}  // namespace advp
