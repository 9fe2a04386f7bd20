#include "tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/check.h"
#include "core/obs.h"
#include "core/parallel.h"
#include "core/scratch.h"
#include "tensor/gemm.h"

namespace advp {

Tensor matmul(const Tensor& a, const Tensor& b) {
  ADVP_CHECK_MSG(a.rank() == 2 && b.rank() == 2, "matmul: rank-2 required");
  const int m = a.dim(0), k = a.dim(1), k2 = b.dim(0), n = b.dim(1);
  ADVP_CHECK_MSG(k == k2, "matmul: inner dims mismatch " << k << " vs " << k2);
  Tensor c({m, n});
  gemm(m, n, k, a.data(), k, /*trans_a=*/false, b.data(), n,
       /*trans_b=*/false, c.data(), n);
  return c;
}

Tensor transpose(const Tensor& a) {
  ADVP_CHECK_MSG(a.rank() == 2, "transpose: rank-2 required");
  const int m = a.dim(0), n = a.dim(1);
  Tensor t({n, m});
  transpose_blocked(a.data(), m, n, t.data());
  return t;
}

namespace {

// Lowers x [Cin,H,W] to columns: row p of the [Cin*K*K, Ho*Wo] column
// matrix lands at cols[p*Ho*Wo ...]. The one conv lowering: every forward
// item and every backward item stages its columns here.
void im2col_lower(const float* x, int c_in, int h, int w,
                  const Conv2dSpec& s, float* cols) {
  const int ho = s.out_h(h), wo = s.out_w(w);
  const int patch = c_in * s.kernel * s.kernel;
  ADVP_OBS_COUNT(kIm2colBytesStaged, static_cast<std::uint64_t>(patch) *
                                         ho * wo * sizeof(float));
  for (int p = 0; p < patch; ++p) {
    const int c = p / (s.kernel * s.kernel);
    const int ky = (p / s.kernel) % s.kernel;
    const int kx = p % s.kernel;
    float* out_row = cols + static_cast<std::size_t>(p) * ho * wo;
    for (int oy = 0; oy < ho; ++oy) {
      const int iy = oy * s.stride + ky - s.pad;
      for (int ox = 0; ox < wo; ++ox) {
        const int ix = ox * s.stride + kx - s.pad;
        float v = 0.f;
        if (iy >= 0 && iy < h && ix >= 0 && ix < w)
          v = x[(static_cast<std::size_t>(c) * h + iy) * w + ix];
        out_row[oy * wo + ox] = v;
      }
    }
  }
}

// Scatters columns [Cin*K*K, Ho*Wo] back into dx [Cin,H,W] (accumulating).
void col2im(const float* cols, int c_in, int h, int w, const Conv2dSpec& s,
            float* dx) {
  const int ho = s.out_h(h), wo = s.out_w(w);
  const int patch = c_in * s.kernel * s.kernel;
  for (int p = 0; p < patch; ++p) {
    const int c = p / (s.kernel * s.kernel);
    const int ky = (p / s.kernel) % s.kernel;
    const int kx = p % s.kernel;
    const float* in_row = cols + static_cast<std::size_t>(p) * ho * wo;
    for (int oy = 0; oy < ho; ++oy) {
      const int iy = oy * s.stride + ky - s.pad;
      if (iy < 0 || iy >= h) continue;
      for (int ox = 0; ox < wo; ++ox) {
        const int ix = ox * s.stride + kx - s.pad;
        if (ix < 0 || ix >= w) continue;
        dx[(static_cast<std::size_t>(c) * h + iy) * w + ix] +=
            in_row[oy * wo + ox];
      }
    }
  }
}

}  // namespace

void conv2d_forward_items(const float* x, int n, int h, int w,
                          const float* weights, const Conv2dSpec& spec,
                          const GemmExtra& extra, float* y) {
  if (n <= 0) return;
  const int c_in = spec.in_channels;
  const int patch = c_in * spec.kernel * spec.kernel;
  const int pixels = spec.out_h(h) * spec.out_w(w);
  const std::size_t x_stride = static_cast<std::size_t>(c_in) * h * w;
  const std::size_t y_stride =
      static_cast<std::size_t>(spec.out_channels) * pixels;
  // One MAC per (item, out-channel, patch entry, output pixel); the GEMMs
  // below also land in matmul_flops (documented overlap).
  ADVP_OBS_COUNT(kConv2dFlops, 2ull * n * y_stride * patch);

  // Item columns are disjoint and every element keeps its ascending-k FMA
  // chain, so per-item GEMMs give the same bits as any grouping. Each item
  // stages its column matrix in the running thread's scratch arena.
  auto run_item = [&](std::size_t i) {
    ScratchArena& arena = ScratchArena::local();
    ScratchArena::Frame frame(arena);
    float* cols =
        arena.alloc_floats(static_cast<std::size_t>(patch) * pixels);
    im2col_lower(x + i * x_stride, c_in, h, w, spec, cols);
    gemm(spec.out_channels, pixels, patch, weights, patch, /*trans_a=*/false,
         cols, pixels, /*trans_b=*/false, y + i * y_stride, pixels,
         /*accumulate=*/false, extra);
  };
  run_item(0);
  if (n > 1 && max_workers() > 1 && !in_parallel_region())
    parallel_for(1, static_cast<std::size_t>(n), run_item);
  else
    for (std::size_t i = 1; i < static_cast<std::size_t>(n); ++i)
      run_item(i);
}

Tensor conv2d_forward(const Tensor& x, const Tensor& w, const Tensor& b,
                      const Conv2dSpec& spec, const ConvFusion* fusion) {
  ADVP_CHECK_MSG(x.rank() == 4, "conv2d: input must be NCHW");
  const int n = x.dim(0), c_in = x.dim(1), h = x.dim(2), wd = x.dim(3);
  ADVP_CHECK_MSG(c_in == spec.in_channels, "conv2d: Cin mismatch");
  ADVP_CHECK(w.rank() == 4 && w.dim(0) == spec.out_channels &&
             w.dim(1) == spec.in_channels && w.dim(2) == spec.kernel &&
             w.dim(3) == spec.kernel);
  ADVP_CHECK(b.rank() == 1 && b.dim(0) == spec.out_channels);
  const int ho = spec.out_h(h), wo = spec.out_w(wd);
  ADVP_CHECK_MSG(ho > 0 && wo > 0, "conv2d: output collapses to zero size");
  Tensor y({n, spec.out_channels, ho, wo});

  // The bias add is the GEMM epilogue: the same float add, applied once
  // after each element's full k-accumulation. The weight tensor is
  // already the [Cout, patch] GEMM operand in row-major order.
  GemmEpilogue epi;
  epi.bias = b.data();  // rows of the conv GEMM are out-channels
  GemmExtra extra;
  extra.epilogue = &epi;
  if (fusion) {
    extra.a_cache = fusion->weight_cache;
    extra.precision = fusion->precision;  // weights_in_a: conv W is op(A)
    extra.act_scale = fusion->act_scale;
  }
  conv2d_forward_items(x.data(), n, h, wd, w.data(), spec, extra, y.data());
  return y;
}

Conv2dGrads conv2d_backward(const Tensor& x, const Tensor& w,
                            const Tensor& dy, const Conv2dSpec& spec,
                            GemmCacheSlot* wt_cache) {
  const int n = x.dim(0), c_in = x.dim(1), h = x.dim(2), wd = x.dim(3);
  const int ho = spec.out_h(h), wo = spec.out_w(wd);
  ADVP_CHECK(dy.rank() == 4 && dy.dim(0) == n &&
             dy.dim(1) == spec.out_channels && dy.dim(2) == ho &&
             dy.dim(3) == wo);
  const int patch = c_in * spec.kernel * spec.kernel;

  Conv2dGrads g;
  g.dx = Tensor({n, c_in, h, wd});
  g.dw = Tensor({spec.out_channels, c_in, spec.kernel, spec.kernel});
  g.db = Tensor({spec.out_channels});

  Tensor dwmat({spec.out_channels, patch});

  const int pixels = ho * wo;
  const std::size_t x_stride = static_cast<std::size_t>(c_in) * h * wd;
  const std::size_t y_stride =
      static_cast<std::size_t>(spec.out_channels) * pixels;
  // dW and dX each cost one forward-sized GEMM per item.
  ADVP_OBS_COUNT(kConv2dFlops, 4ull * n * y_stride * patch);
  // Per-item weight/bias partials computed in parallel (dx planes are
  // disjoint), then reduced on the caller in index order — the same
  // accumulation order as a plain serial loop, so gradients are
  // bit-identical for any worker count. The transposed operands (cols^T
  // for dW, W^T for dcols) are handled by the GEMM packing layer, and the
  // per-item column/dcols buffers come from the worker's scratch arena —
  // the steady-state loop performs no heap allocations beyond the
  // returned gradient tensors.
  std::vector<Tensor> dw_part(static_cast<std::size_t>(n));
  std::vector<Tensor> db_part(static_cast<std::size_t>(n));
  // The dX product reads the same transposed weights for every item; its
  // packing is reusable across items and calls through `wt_cache`. Cache
  // slots are single-owner, so the slot is only handed down when the item
  // loop runs serially (the single-image attack hot path).
  const bool items_parallel =
      n > 1 && max_workers() > 1 && !in_parallel_region();
  GemmExtra dx_extra;
  dx_extra.a_cache = items_parallel ? nullptr : wt_cache;
  auto item = [&](std::size_t i) {
    const float* dyp = dy.data() + i * y_stride;
    Tensor dbi({spec.out_channels});
    for (int oc = 0; oc < spec.out_channels; ++oc) {
      const float* row = dyp + static_cast<std::size_t>(oc) * pixels;
      double s = 0.0;
      for (int j = 0; j < pixels; ++j) s += row[j];
      dbi[static_cast<std::size_t>(oc)] = static_cast<float>(s);
    }
    db_part[i] = std::move(dbi);
    ScratchArena& arena = ScratchArena::local();
    ScratchArena::Frame frame(arena);
    float* cols =
        arena.alloc_floats(static_cast<std::size_t>(patch) * pixels);
    im2col_lower(x.data() + i * x_stride, c_in, h, wd, spec, cols);
    // dW_i = dY_i * cols_i^T  [Cout, patch]
    Tensor dwi({spec.out_channels, patch});
    gemm(spec.out_channels, patch, pixels, dyp, pixels, /*trans_a=*/false,
         cols, pixels, /*trans_b=*/true, dwi.data(), patch);
    dw_part[i] = std::move(dwi);
    // dcols = W^T * dY_i  [patch, Ho*Wo], then scatter back to dx_i
    float* dcols =
        arena.alloc_floats(static_cast<std::size_t>(patch) * pixels);
    gemm(patch, pixels, spec.out_channels, w.data(), patch, /*trans_a=*/true,
         dyp, pixels, /*trans_b=*/false, dcols, pixels, /*accumulate=*/false,
         dx_extra);
    col2im(dcols, c_in, h, wd, spec, g.dx.data() + i * x_stride);
  };
  if (items_parallel)
    parallel_for(0, static_cast<std::size_t>(n), item);
  else
    for (std::size_t i = 0; i < static_cast<std::size_t>(n); ++i) item(i);
  for (std::size_t i = 0; i < static_cast<std::size_t>(n); ++i) {
    dwmat += dw_part[i];
    g.db += db_part[i];
  }
  g.dw = dwmat.reshape({spec.out_channels, c_in, spec.kernel, spec.kernel});
  return g;
}

Tensor maxpool2x2_forward(const Tensor& x, std::vector<int>* argmax) {
  ADVP_CHECK(x.rank() == 4);
  const int n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  ADVP_CHECK_MSG(h % 2 == 0 && w % 2 == 0, "maxpool2x2: H,W must be even");
  const int ho = h / 2, wo = w / 2;
  Tensor y({n, c, ho, wo});
  if (argmax) argmax->assign(y.numel(), 0);
  std::size_t oi = 0;
  for (int i = 0; i < n; ++i)
    for (int cc = 0; cc < c; ++cc) {
      const std::size_t plane =
          (static_cast<std::size_t>(i) * c + cc) * h * w;
      for (int oy = 0; oy < ho; ++oy)
        for (int ox = 0; ox < wo; ++ox, ++oi) {
          float best = -1e30f;
          std::size_t best_off = 0;
          for (int dy = 0; dy < 2; ++dy)
            for (int dx = 0; dx < 2; ++dx) {
              const std::size_t off =
                  plane + static_cast<std::size_t>(2 * oy + dy) * w +
                  (2 * ox + dx);
              if (x[off] > best) {
                best = x[off];
                best_off = off;
              }
            }
          y[oi] = best;
          if (argmax) (*argmax)[oi] = static_cast<int>(best_off);
        }
    }
  return y;
}

Tensor maxpool2x2_backward(const Tensor& dy, const std::vector<int>& argmax,
                           const std::vector<int>& input_shape) {
  Tensor dx(input_shape);
  ADVP_CHECK(argmax.size() == dy.numel());
  for (std::size_t i = 0; i < dy.numel(); ++i)
    dx[static_cast<std::size_t>(argmax[i])] += dy[i];
  return dx;
}

Tensor global_avgpool_forward(const Tensor& x) {
  ADVP_CHECK(x.rank() == 4);
  const int n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  Tensor y({n, c});
  const float inv = 1.f / static_cast<float>(h * w);
  for (int i = 0; i < n; ++i)
    for (int cc = 0; cc < c; ++cc) {
      const float* p =
          x.data() + (static_cast<std::size_t>(i) * c + cc) * h * w;
      double s = 0.0;
      for (int j = 0; j < h * w; ++j) s += p[j];
      y.at(i, cc) = static_cast<float>(s) * inv;
    }
  return y;
}

Tensor global_avgpool_backward(const Tensor& dy,
                               const std::vector<int>& input_shape) {
  ADVP_CHECK(dy.rank() == 2 && input_shape.size() == 4);
  const int n = input_shape[0], c = input_shape[1], h = input_shape[2],
            w = input_shape[3];
  ADVP_CHECK(dy.dim(0) == n && dy.dim(1) == c);
  Tensor dx({n, c, h, w});
  const float inv = 1.f / static_cast<float>(h * w);
  for (int i = 0; i < n; ++i)
    for (int cc = 0; cc < c; ++cc) {
      const float g = dy.at(i, cc) * inv;
      float* p = dx.data() + (static_cast<std::size_t>(i) * c + cc) * h * w;
      for (int j = 0; j < h * w; ++j) p[j] = g;
    }
  return dx;
}

Tensor upsample2x_forward(const Tensor& x) {
  ADVP_CHECK(x.rank() == 4);
  const int n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  Tensor y({n, c, 2 * h, 2 * w});
  for (int i = 0; i < n; ++i)
    for (int cc = 0; cc < c; ++cc)
      for (int yy = 0; yy < 2 * h; ++yy)
        for (int xx = 0; xx < 2 * w; ++xx)
          y.at(i, cc, yy, xx) = x.at(i, cc, yy / 2, xx / 2);
  return y;
}

Tensor upsample2x_backward(const Tensor& dy) {
  ADVP_CHECK(dy.rank() == 4);
  const int n = dy.dim(0), c = dy.dim(1), h2 = dy.dim(2), w2 = dy.dim(3);
  ADVP_CHECK(h2 % 2 == 0 && w2 % 2 == 0);
  Tensor dx({n, c, h2 / 2, w2 / 2});
  for (int i = 0; i < n; ++i)
    for (int cc = 0; cc < c; ++cc)
      for (int yy = 0; yy < h2; ++yy)
        for (int xx = 0; xx < w2; ++xx)
          dx.at(i, cc, yy / 2, xx / 2) += dy.at(i, cc, yy, xx);
  return dx;
}

Tensor softmax_rows(const Tensor& logits) {
  ADVP_CHECK(logits.rank() == 2);
  const int n = logits.dim(0), k = logits.dim(1);
  Tensor p({n, k});
  for (int i = 0; i < n; ++i) {
    float mx = -1e30f;
    for (int j = 0; j < k; ++j) mx = std::max(mx, logits.at(i, j));
    double z = 0.0;
    for (int j = 0; j < k; ++j) {
      const float e = exp_nonpos(logits.at(i, j) - mx);
      p.at(i, j) = e;
      z += e;
    }
    const float inv = static_cast<float>(1.0 / z);
    for (int j = 0; j < k; ++j) p.at(i, j) *= inv;
  }
  return p;
}

}  // namespace advp
