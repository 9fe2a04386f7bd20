// Implicit-GEMM convolution: the fused im2col-in-the-packer path must be
// bit-identical to the staged column-matrix path across conv geometries
// (stride > 1, padding, 1x1 kernels, non-square inputs), precision tiers
// (fp32 / calibrated int8), and worker counts; the backward pass must
// stay pinned to the staged lowering; and a warm implicit plan forward
// must stage zero im2col bytes.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "core/obs.h"
#include "core/parallel.h"
#include "core/rng.h"
#include "models/tiny_yolo.h"
#include "nn/plan.h"
#include "nn/precision.h"
#include "tensor/gemm.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"

namespace advp {
namespace {

// Restores the im2col/plan hooks to their environment defaults on scope
// exit so one test cannot leak a forced mode into the next.
struct HookGuard {
  ~HookGuard() {
    gemm_detail::force_im2col(-1);
    nn::plan_detail::force_plan(-1);
  }
};

bool bitwise_equal(const Tensor& a, const Tensor& b) {
  if (a.shape() != b.shape()) return false;
  return std::memcmp(a.data(), b.data(), a.numel() * sizeof(float)) == 0;
}

float absmax_of(const Tensor& t) {
  float amax = 0.f;
  for (std::size_t i = 0; i < t.numel(); ++i)
    amax = std::max(amax, std::fabs(t[i]));
  return amax;
}

struct Geo {
  int c_in, h, w, kernel, stride, pad, items;
  const char* name;
};

PackSource pack_source(const Tensor& x, const Conv2dSpec& s) {
  PackSource ps;
  ps.base = x.data();
  ps.item_stride =
      static_cast<std::size_t>(x.dim(1)) * x.dim(2) * x.dim(3);
  ps.items = x.dim(0);
  ps.c_in = x.dim(1);
  ps.h = x.dim(2);
  ps.w = x.dim(3);
  ps.kernel = s.kernel;
  ps.stride = s.stride;
  ps.pad = s.pad;
  ps.out_h = s.out_h(x.dim(2));
  ps.out_w = s.out_w(x.dim(3));
  return ps;
}

// Reference im2col: the wide [patch, items*pixels] column matrix, each
// item owning a disjoint pixel-column block; element (p, j) is the input
// pixel patch entry p of output pixel j reads (zero outside the image).
std::vector<float> stage_cols(const Tensor& x, const Conv2dSpec& s) {
  const int c_in = x.dim(1), h = x.dim(2), w = x.dim(3);
  const int ho = s.out_h(h), wo = s.out_w(w);
  const int kk = s.kernel * s.kernel;
  const int patch = c_in * kk;
  const std::size_t n = static_cast<std::size_t>(x.dim(0)) * ho * wo;
  std::vector<float> cols(static_cast<std::size_t>(patch) * n);
  for (int p = 0; p < patch; ++p) {
    const int c = p / kk, ky = (p % kk) / s.kernel, kx = p % s.kernel;
    std::size_t j = 0;
    for (int i = 0; i < x.dim(0); ++i)
      for (int oy = 0; oy < ho; ++oy)
        for (int ox = 0; ox < wo; ++ox, ++j) {
          const int iy = oy * s.stride + ky - s.pad;
          const int ix = ox * s.stride + kx - s.pad;
          cols[static_cast<std::size_t>(p) * n + j] =
              (iy >= 0 && iy < h && ix >= 0 && ix < w) ? x.at(i, c, iy, ix)
                                                       : 0.f;
        }
  }
  return cols;
}

// The raw-GEMM identity matrix: for every geometry x tier x worker count,
// a gemm() fed a PackSource must produce the same bits as the same gemm()
// fed the staged column matrix.
TEST(ImplicitGemmPack, BitIdenticalToStagedAcrossGeometriesTiersWorkers) {
  const Geo geos[] = {
      {5, 16, 16, 3, 1, 1, 3, "k3s1p1"},
      {5, 17, 13, 3, 2, 1, 2, "k3s2p1 non-square"},
      {5, 12, 20, 1, 1, 0, 3, "k1s1p0"},
      {4, 9, 9, 5, 2, 2, 2, "k5s2p2"},
  };
  const int m = 24;
  Rng rng(11);
  for (const Geo& g : geos) {
    Conv2dSpec spec;
    spec.in_channels = g.c_in;
    spec.out_channels = m;
    spec.kernel = g.kernel;
    spec.stride = g.stride;
    spec.pad = g.pad;
    // Signed inputs so int8 quantization sees both polarities.
    Tensor x = Tensor::rand({g.items, g.c_in, g.h, g.w}, rng);
    for (std::size_t i = 0; i < x.numel(); ++i) x[i] = x[i] * 2.f - 1.f;
    const int patch = g.c_in * g.kernel * g.kernel;
    const int pixels = spec.out_h(g.h) * spec.out_w(g.w);
    const int n = g.items * pixels;
    const Tensor a = Tensor::rand({m, patch}, rng);
    const std::vector<float> cols = stage_cols(x, spec);
    const PackSource ps = pack_source(x, spec);

    struct Tier {
      GemmPrecision prec;
      float act_scale;
      const char* name;
    };
    const Tier tiers[] = {
        {GemmPrecision::kFp32, 0.f, "fp32"},
        {GemmPrecision::kInt8, absmax_of(x) / 127.f, "int8-calibrated"},
    };
    for (const Tier& tier : tiers) {
      for (int workers : {1, 4}) {
        ScopedMaxWorkers scoped(static_cast<std::size_t>(workers));
        GemmExtra extra;
        extra.precision = tier.prec;
        extra.act_scale = tier.act_scale;

        Tensor c_staged({m, n});
        gemm(m, n, patch, a.data(), patch, /*trans_a=*/false, cols.data(),
             n, /*trans_b=*/false, c_staged.data(), n, /*accumulate=*/false,
             extra);

        GemmExtra implicit = extra;
        implicit.b_pack = &ps;
        Tensor c_implicit({m, n});
        gemm(m, n, patch, a.data(), patch, /*trans_a=*/false,
             /*b=*/nullptr, n, /*trans_b=*/false, c_implicit.data(), n,
             /*accumulate=*/false, implicit);

        EXPECT_TRUE(bitwise_equal(c_staged, c_implicit))
            << g.name << ", tier " << tier.name << ", workers " << workers;
      }
    }
  }
}

// Products small enough for the fp32 naive fallback (n < 8) must stay
// bit-exact too: with a PackSource the fallback gathers the dense column
// matrix instead of reading a staged one.
TEST(ImplicitGemmPack, NaiveFallbackGathersIdenticalDenseMatrix) {
  Conv2dSpec spec;
  spec.in_channels = 2;
  spec.out_channels = 4;
  spec.kernel = 3;
  spec.stride = 1;
  spec.pad = 1;
  Rng rng(13);
  Tensor x = Tensor::rand({1, 2, 2, 3}, rng);  // 6 output pixels -> naive
  const int patch = 2 * 3 * 3, pixels = 6;
  const Tensor a = Tensor::rand({4, patch}, rng);
  const std::vector<float> cols = stage_cols(x, spec);
  const PackSource ps = pack_source(x, spec);

  Tensor c_staged({4, pixels});
  gemm(4, pixels, patch, a.data(), patch, false, cols.data(), pixels, false,
       c_staged.data(), pixels);
  GemmExtra extra;
  extra.b_pack = &ps;
  Tensor c_implicit({4, pixels});
  gemm(4, pixels, patch, a.data(), patch, false, nullptr, pixels, false,
       c_implicit.data(), pixels, /*accumulate=*/false, extra);
  EXPECT_TRUE(bitwise_equal(c_staged, c_implicit));
}

// The eager conv must agree between the two routes for every tier, batch
// size, and worker count — the ADVP_IM2COL kill-switch is the oracle.
TEST(ImplicitConvForward, FusedEagerMatchesStagedOracle) {
  HookGuard guard;
  Rng rng(21);
  Conv2dSpec spec;
  spec.in_channels = 3;
  spec.out_channels = 8;
  spec.kernel = 3;
  spec.stride = 1;
  spec.pad = 1;
  const Tensor w = Tensor::rand({8, 3, 3, 3}, rng);
  const Tensor b = Tensor::rand({8}, rng);
  struct Tier {
    GemmPrecision prec;
    const char* name;
  };
  const Tier tiers[] = {
      {GemmPrecision::kFp32, "fp32"},
      {GemmPrecision::kInt8, "int8-calibrated"},
  };
  for (int batch : {1, 3}) {
    Tensor x = Tensor::rand({batch, 3, 20, 20}, rng);
    for (std::size_t i = 0; i < x.numel(); ++i) x[i] = x[i] * 2.f - 1.f;
    for (const Tier& tier : tiers) {
      for (int workers : {1, 4}) {
        ScopedMaxWorkers scoped(static_cast<std::size_t>(workers));
        GemmCacheSlot slot_staged, slot_implicit;
        ConvFusion fusion;
        fusion.precision = tier.prec;
        fusion.act_scale = absmax_of(x) / 127.f;

        gemm_detail::force_im2col(0);
        fusion.weight_cache = &slot_staged;
        const Tensor y_staged = conv2d_forward(x, w, b, spec, &fusion);

        gemm_detail::force_im2col(1);
        fusion.weight_cache = &slot_implicit;
        const Tensor y_implicit = conv2d_forward(x, w, b, spec, &fusion);

        EXPECT_TRUE(bitwise_equal(y_staged, y_implicit))
            << tier.name << ", batch " << batch << ", workers " << workers;
      }
    }
  }
}

// The backward pass stays on the staged lowering even when implicit mode
// is forced on: the staged-bytes counter must tick, and gradients must not
// depend on the mode at all. A forward without ConvFusion takes the same
// implicit route as every other forward and stages nothing.
TEST(ImplicitConvBackward, GradientsStayStagedAndModeIndependent) {
  HookGuard guard;
  Rng rng(33);
  Conv2dSpec spec;
  spec.in_channels = 3;
  spec.out_channels = 6;
  spec.kernel = 3;
  spec.stride = 1;
  spec.pad = 1;
  const Tensor x = Tensor::rand({2, 3, 12, 12}, rng);
  const Tensor w = Tensor::rand({6, 3, 3, 3}, rng);
  const Tensor b = Tensor::rand({6}, rng);
  const Tensor dy = Tensor::rand({2, 6, 12, 12}, rng);

  obs::enable();
  gemm_detail::force_im2col(1);
  const std::uint64_t before =
      obs::counter_value(obs::Counter::kIm2colBytesStaged);
  const Conv2dGrads g_implicit = conv2d_backward(x, w, dy, spec);
  if (!obs::trace_disabled())
    EXPECT_GT(obs::counter_value(obs::Counter::kIm2colBytesStaged), before)
        << "backward must keep running the staged lowering";
  const std::uint64_t before_fwd =
      obs::counter_value(obs::Counter::kIm2colBytesStaged);
  const Tensor y_implicit = conv2d_forward(x, w, b, spec);
  EXPECT_EQ(obs::counter_value(obs::Counter::kIm2colBytesStaged),
            before_fwd)
      << "a forward without ConvFusion staged im2col bytes";
  obs::enable(false);

  gemm_detail::force_im2col(0);
  EXPECT_TRUE(bitwise_equal(y_implicit, conv2d_forward(x, w, b, spec)));
  const Conv2dGrads g_staged = conv2d_backward(x, w, dy, spec);
  EXPECT_TRUE(bitwise_equal(g_implicit.dx, g_staged.dx));
  EXPECT_TRUE(bitwise_equal(g_implicit.dw, g_staged.dw));
  EXPECT_TRUE(bitwise_equal(g_implicit.db, g_staged.db));
}

// A warm implicit-path plan forward must stage zero im2col bytes (the
// per-item column matrix is gone), stay bit-identical to the staged plan
// run, and the staged run must tick the counter (proving the probe sees
// this workload at all).
TEST(ImplicitPlanForward, WarmPlanForwardStagesZeroBytes) {
  HookGuard guard;
  Rng rng(41);
  models::TinyYolo model({}, rng);
  const Tensor x = Tensor::rand({2, 3, 48, 48}, rng);
  nn::plan_detail::force_plan(1);
  // Plan structure, not tiers: pinned to fp32 so an ADVP_PRECISION=int8
  // environment (which this uncalibrated model cannot plan) does not apply.
  nn::PrecisionScope fp32(GemmPrecision::kFp32);

  gemm_detail::force_im2col(1);
  Tensor y_implicit;
  {
    nn::InferenceModeScope inference;
    model.forward_raw(x, /*train=*/false);  // compile + warm the plan
    y_implicit = model.forward_raw(x, /*train=*/false);
  }
  obs::enable();
  const std::uint64_t before =
      obs::counter_value(obs::Counter::kIm2colBytesStaged);
  {
    nn::InferenceModeScope inference;
    y_implicit = model.forward_raw(x, /*train=*/false);
  }
  EXPECT_EQ(obs::counter_value(obs::Counter::kIm2colBytesStaged), before)
      << "warm implicit plan forward staged im2col bytes";

  gemm_detail::force_im2col(0);
  const std::uint64_t staged_before =
      obs::counter_value(obs::Counter::kIm2colBytesStaged);
  Tensor y_staged;
  {
    nn::InferenceModeScope inference;
    y_staged = model.forward_raw(x, /*train=*/false);
  }
  if (!obs::trace_disabled())
    EXPECT_GT(obs::counter_value(obs::Counter::kIm2colBytesStaged),
              staged_before)
        << "staged plan forward must tick the counter";
  obs::enable(false);

  EXPECT_TRUE(bitwise_equal(y_implicit, y_staged));
}

}  // namespace
}  // namespace advp
