#include "nn/loss.h"

#include <cmath>

#include "core/check.h"
#include "tensor/gemm.h"
#include "tensor/ops.h"

namespace advp::nn {

LossResult mse_loss(const Tensor& pred, const Tensor& target) {
  ADVP_CHECK_MSG(pred.same_shape(target), "mse_loss: shape mismatch");
  LossResult r;
  r.grad = Tensor(pred.shape());
  const float inv_n = 1.f / static_cast<float>(pred.numel());
  double acc = 0.0;
  for (std::size_t i = 0; i < pred.numel(); ++i) {
    const float d = pred[i] - target[i];
    acc += static_cast<double>(d) * d;
    r.grad[i] = 2.f * d * inv_n;
  }
  r.value = static_cast<float>(acc) * inv_n;
  return r;
}

LossResult smooth_l1_loss(const Tensor& pred, const Tensor& target,
                          float beta) {
  ADVP_CHECK_MSG(pred.same_shape(target), "smooth_l1_loss: shape mismatch");
  ADVP_CHECK(beta > 0.f);
  LossResult r;
  r.grad = Tensor(pred.shape());
  const float inv_n = 1.f / static_cast<float>(pred.numel());
  double acc = 0.0;
  for (std::size_t i = 0; i < pred.numel(); ++i) {
    const float d = pred[i] - target[i];
    const float ad = std::fabs(d);
    if (ad < beta) {
      acc += 0.5 * d * d / beta;
      r.grad[i] = d / beta * inv_n;
    } else {
      acc += ad - 0.5 * beta;
      r.grad[i] = (d > 0.f ? 1.f : -1.f) * inv_n;
    }
  }
  r.value = static_cast<float>(acc) * inv_n;
  return r;
}

LossResult bce_with_logits_loss(const Tensor& logits, const Tensor& target,
                                const Tensor& weights) {
  ADVP_CHECK_MSG(logits.same_shape(target), "bce: shape mismatch");
  const bool weighted = !weights.empty();
  if (weighted) ADVP_CHECK_MSG(weights.same_shape(logits), "bce: bad weights");
  LossResult r;
  r.grad = Tensor(logits.shape());
  double acc = 0.0, wsum = 0.0;
  for (std::size_t i = 0; i < logits.numel(); ++i) {
    const float w = weighted ? weights[i] : 1.f;
    if (w == 0.f) continue;
    const float z = logits[i], y = target[i];
    // log(1+exp(-|z|)) + max(z,0) - z*y  (numerically stable)
    const float loss =
        std::log1p(exp_nonpos(-std::fabs(z))) + std::max(z, 0.f) - z * y;
    acc += static_cast<double>(w) * loss;
    r.grad[i] = w * (sigmoidf(z) - y);
    wsum += w;
  }
  const float inv = wsum > 0.0 ? static_cast<float>(1.0 / wsum) : 0.f;
  r.value = static_cast<float>(acc) * inv;
  r.grad *= inv;
  return r;
}

LossResult cross_entropy_loss(const Tensor& logits,
                              const std::vector<int>& labels) {
  ADVP_CHECK(logits.rank() == 2);
  const int n = logits.dim(0), k = logits.dim(1);
  ADVP_CHECK(static_cast<int>(labels.size()) == n);
  Tensor p = softmax_rows(logits);
  LossResult r;
  r.grad = p;
  double acc = 0.0;
  const float inv_n = 1.f / static_cast<float>(n);
  for (int i = 0; i < n; ++i) {
    const int y = labels[static_cast<std::size_t>(i)];
    ADVP_CHECK(y >= 0 && y < k);
    acc -= std::log(std::max(1e-12f, p.at(i, y)));
    r.grad.at(i, y) -= 1.f;
  }
  r.grad *= inv_n;
  r.value = static_cast<float>(acc) * inv_n;
  return r;
}

LossResult info_nce_loss(const Tensor& embeddings, float temperature,
                         float margin) {
  ADVP_CHECK(embeddings.rank() == 2);
  const int m = embeddings.dim(0), d = embeddings.dim(1);
  ADVP_CHECK_MSG(m % 2 == 0 && m >= 4, "info_nce: need >=2 pairs");
  ADVP_CHECK(temperature > 0.f);

  // L2-normalize rows: z = e / ||e||.
  Tensor z({m, d});
  std::vector<float> norms(static_cast<std::size_t>(m));
  for (int i = 0; i < m; ++i) {
    double s = 0.0;
    for (int j = 0; j < d; ++j)
      s += static_cast<double>(embeddings.at(i, j)) * embeddings.at(i, j);
    const float nm = std::max(1e-8f, static_cast<float>(std::sqrt(s)));
    norms[static_cast<std::size_t>(i)] = nm;
    for (int j = 0; j < d; ++j) z.at(i, j) = embeddings.at(i, j) / nm;
  }

  // Similarity matrix sim = z z^T / tau, with positive-pair margin. The
  // kernel layer reads the second operand transposed while packing.
  Tensor sim({m, m});
  gemm(m, m, d, z.data(), d, /*trans_a=*/false, z.data(), d,
       /*trans_b=*/true, sim.data(), m);
  auto pos_of = [](int i) { return i ^ 1; };
  for (int i = 0; i < m; ++i) sim.at(i, pos_of(i)) -= margin;
  sim *= 1.f / temperature;
  for (int i = 0; i < m; ++i) sim.at(i, i) = -1e9f;  // exclude self

  Tensor p = softmax_rows(sim);
  LossResult r;
  r.value = 0.f;
  Tensor dsim({m, m});
  for (int i = 0; i < m; ++i) {
    const int pos = pos_of(i);
    r.value -= std::log(std::max(1e-12f, p.at(i, pos)));
    for (int j = 0; j < m; ++j) dsim.at(i, j) = p.at(i, j);
    dsim.at(i, pos) -= 1.f;
    dsim.at(i, i) = 0.f;
  }
  const float inv_m = 1.f / static_cast<float>(m);
  r.value *= inv_m;
  dsim *= inv_m / temperature;

  // dL/dz = (dsim + dsim^T) z   (sim is symmetric in z).
  Tensor dz = matmul(dsim, z);
  Tensor dzt({m, d});
  gemm(m, d, m, dsim.data(), m, /*trans_a=*/true, z.data(), d,
       /*trans_b=*/false, dzt.data(), d);
  dz += dzt;

  // Back through normalization: de = (dz - (dz.z) z) / ||e||.
  r.grad = Tensor({m, d});
  for (int i = 0; i < m; ++i) {
    double dot = 0.0;
    for (int j = 0; j < d; ++j)
      dot += static_cast<double>(dz.at(i, j)) * z.at(i, j);
    for (int j = 0; j < d; ++j)
      r.grad.at(i, j) = (dz.at(i, j) - static_cast<float>(dot) * z.at(i, j)) /
                        norms[static_cast<std::size_t>(i)];
  }
  return r;
}

}  // namespace advp::nn
