// Dense neural-network primitives over NCHW tensors.
//
// All convolution/pooling routines come in forward/backward pairs; the
// backward functions return gradients with respect to *inputs* as well as
// parameters, because white-box attacks (FGSM, Auto-PGD, RP2, CAP) need
// d(loss)/d(image) all the way back to the pixels.
#pragma once

#include "tensor/activation.h"  // sigmoidf, exp_nonpos
#include "tensor/gemm.h"
#include "tensor/tensor.h"

namespace advp {

// ---- matmul --------------------------------------------------------------

/// C = A(mxk) * B(kxn). Inputs must be rank-2.
Tensor matmul(const Tensor& a, const Tensor& b);
/// Rank-2 transpose.
Tensor transpose(const Tensor& a);

// ---- conv2d ---------------------------------------------------------------

/// Geometry of a 2-D convolution; shared by forward and backward.
struct Conv2dSpec {
  int in_channels = 0;
  int out_channels = 0;
  int kernel = 3;
  int stride = 1;
  int pad = 1;

  int out_h(int in_h) const { return (in_h + 2 * pad - kernel) / stride + 1; }
  int out_w(int in_w) const { return (in_w + 2 * pad - kernel) / stride + 1; }
};

/// Inference options for conv2d_forward: the weight operand's packing is
/// reused across calls through `weight_cache`, and `precision` selects the
/// GEMM tier. The bias always rides the GEMM epilogue.
struct ConvFusion {
  GemmCacheSlot* weight_cache = nullptr;  ///< pack-once cache for W
  /// Numeric tier for the conv GEMMs (see tensor/gemm.h). Non-fp32 tiers
  /// are only legal on backward-free inference paths; weights quantize per
  /// out-channel into `weight_cache` under kInt8.
  GemmPrecision precision = GemmPrecision::kFp32;
  /// kInt8 only: calibrated per-tensor activation scale (range / 127);
  /// must be > 0 at kInt8.
  float act_scale = 0.f;
};

/// x: [N, Cin, H, W]; w: [Cout, Cin, K, K]; b: [Cout].
/// Returns [N, Cout, Ho, Wo]. Runs conv2d_forward_items with the bias as
/// the GEMM epilogue.
Tensor conv2d_forward(const Tensor& x, const Tensor& w, const Tensor& b,
                      const Conv2dSpec& spec,
                      const ConvFusion* fusion = nullptr);

/// The one conv forward loop, shared by conv2d_forward and compiled
/// execution plans (nn/plan): one GEMM per batch item of x [n, Cin, h, w]
/// with the weights [Cout, Cin*K*K] as op(A), written straight into
/// y [n, Cout, Ho, Wo] through `extra` (weight cache, epilogue, tier).
/// op(B) is each item's column matrix, lowered by im2col into the running
/// thread's scratch arena (the same lowering conv2d_backward uses).
/// Item 0 runs first on the calling thread so a cold weight slot fills
/// exactly once; the remaining items then fan out over the worker pool,
/// each GEMM serial inside the region, so any worker count gives the same
/// bits.
void conv2d_forward_items(const float* x, int n, int h, int w,
                          const float* weights, const Conv2dSpec& spec,
                          const GemmExtra& extra, float* y);

struct Conv2dGrads {
  Tensor dx;  ///< gradient w.r.t. input, same shape as x
  Tensor dw;  ///< gradient w.r.t. weights
  Tensor db;  ///< gradient w.r.t. bias
};

/// `wt_cache`, when given, caches the packed transposed-weight operand of
/// the dX GEMM across calls (only used when the per-item loop runs
/// serially — the slot is single-owner).
Conv2dGrads conv2d_backward(const Tensor& x, const Tensor& w,
                            const Tensor& dy, const Conv2dSpec& spec,
                            GemmCacheSlot* wt_cache = nullptr);

// ---- pooling ---------------------------------------------------------------

/// 2x2 stride-2 max pooling. `argmax` (same shape as output) records the
/// flat input offset of each winner for the backward pass.
Tensor maxpool2x2_forward(const Tensor& x, std::vector<int>* argmax);
Tensor maxpool2x2_backward(const Tensor& dy, const std::vector<int>& argmax,
                           const std::vector<int>& input_shape);

/// Global average pool over H,W: [N,C,H,W] -> [N,C].
Tensor global_avgpool_forward(const Tensor& x);
Tensor global_avgpool_backward(const Tensor& dy,
                               const std::vector<int>& input_shape);

// ---- upsample ---------------------------------------------------------------

/// Nearest-neighbour 2x upsample: [N,C,H,W] -> [N,C,2H,2W].
Tensor upsample2x_forward(const Tensor& x);
Tensor upsample2x_backward(const Tensor& dy);

// ---- activations on logits -------------------------------------------------

/// Softmax over the last dimension of a rank-2 tensor [N, K].
Tensor softmax_rows(const Tensor& logits);

}  // namespace advp
