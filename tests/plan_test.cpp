// Execution-plan compiler: bit-identity of compiled plans against their
// oracle, the eager walk under an InferenceModeScope, across precision
// tiers, worker counts, and batch sizes; cache invalidation
// on weight-generation bumps; per-shape plan caching; and the
// zero-steady-state-allocation contract.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "core/obs.h"
#include "core/parallel.h"
#include "core/rng.h"
#include "models/distnet.h"
#include "models/tiny_yolo.h"
#include "nn/layers.h"
#include "nn/plan.h"
#include "nn/precision.h"
#include "tensor/gemm.h"

namespace advp::nn {
namespace {

// Restores the plan hook to its default on scope exit so one test cannot
// leak a forced mode into the next.
struct HookGuard {
  ~HookGuard() { plan_detail::force_plan(-1); }
};

bool bitwise_equal(const Tensor& a, const Tensor& b) {
  if (a.shape() != b.shape()) return false;
  return std::memcmp(a.data(), b.data(),
                     a.numel() * sizeof(float)) == 0;
}

std::vector<Tensor> random_batches(int n_batches, int batch, int c, int h,
                                   int w, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Tensor> out;
  for (int i = 0; i < n_batches; ++i)
    out.push_back(Tensor::rand({batch, c, h, w}, rng));
  return out;
}

TEST(PlanBitIdentity, TinyYoloAcrossTiersWorkersBatches) {
  HookGuard guard;
  Rng rng(7);
  models::TinyYolo model({}, rng);
  model.calibrate(random_batches(2, 2, 3, 48, 48, 70));  // enables int8
  const GemmPrecision tiers[] = {GemmPrecision::kFp32, GemmPrecision::kInt8};
  for (GemmPrecision tier : tiers) {
    for (int batch : {1, 3, 8}) {
      Rng xr(100 + batch);
      const Tensor x = Tensor::rand({batch, 3, 48, 48}, xr);
      // Oracle: the eager walk, single-threaded, plans off.
      Tensor eager;
      {
        ScopedMaxWorkers workers(1);
        plan_detail::force_plan(0);
        InferenceModeScope inference;
        PrecisionScope scope(tier);
        eager = model.forward_raw(x, /*train=*/false);
      }
      // At fp32 the scopeless walk (the attack oracles' forward, which
      // keeps its backward caches) gives the same bits too.
      if (tier == GemmPrecision::kFp32) {
        ScopedMaxWorkers workers(1);
        PrecisionScope scope(tier);
        Tensor cached = model.forward_raw(x, /*train=*/false);
        EXPECT_TRUE(bitwise_equal(cached, eager))
            << "scopeless vs scoped eager, batch " << batch;
      }
      plan_detail::force_plan(1);
      for (int workers : {1, 4}) {
        ScopedMaxWorkers scoped(static_cast<std::size_t>(workers));
        InferenceModeScope inference;
        PrecisionScope scope(tier);
        ASSERT_NE(model.compile_plan(batch), nullptr);
        Tensor planned = model.forward_raw(x, /*train=*/false);
        EXPECT_TRUE(bitwise_equal(planned, eager))
            << "plan vs eager: tier " << precision_name(tier) << ", batch "
            << batch << ", workers " << workers;
      }
    }
  }
}

TEST(PlanBitIdentity, DistNetPredictAcrossTiersWorkersBatches) {
  HookGuard guard;
  Rng rng(8);
  models::DistNet model({}, rng);
  model.calibrate(random_batches(2, 2, 3, 48, 96, 80));
  const GemmPrecision tiers[] = {GemmPrecision::kFp32, GemmPrecision::kInt8};
  for (GemmPrecision tier : tiers) {
    for (int batch : {1, 3, 8}) {
      Rng xr(200 + batch);
      const Tensor x = Tensor::rand({batch, 3, 48, 96}, xr);
      // Oracle: predict() (which opens its own InferenceModeScope) on
      // the eager walk, single-threaded, plans off.
      std::vector<float> eager;
      {
        ScopedMaxWorkers workers(1);
        plan_detail::force_plan(0);
        ThreadPrecisionScope scope(tier);
        eager = model.predict(x);
      }
      plan_detail::force_plan(1);
      for (int workers : {1, 4}) {
        ScopedMaxWorkers scoped(static_cast<std::size_t>(workers));
        ThreadPrecisionScope scope(tier);
        ASSERT_NE(model.compile_plan(batch), nullptr);
        const std::vector<float> planned = model.predict(x);
        ASSERT_EQ(planned.size(), eager.size());
        for (std::size_t i = 0; i < eager.size(); ++i)
          EXPECT_EQ(planned[i], eager[i])
              << "item " << i << ": tier " << precision_name(tier)
              << ", batch " << batch << ", workers " << workers;
      }
    }
  }
}

// Layer kinds the two perception models never exercise — Upsample2x,
// GlobalAvgPool, a standalone (unfused) BatchNorm, a leaky ReLU after a
// non-conv — compiled and compared against the eager walk directly.
TEST(PlanBitIdentity, UncommonLayersMatchEager) {
  HookGuard guard;
  Rng rng(9);
  Sequential net;
  net.emplace<Conv2d>(3, 8, 3, 1, 1, rng);
  net.emplace<SiLU>();
  net.emplace<Upsample2x>();
  net.emplace<BatchNorm2d>(8);
  net.emplace<ReLU>(0.1f);
  net.emplace<MaxPool2x2>();
  net.emplace<GlobalAvgPool>();
  net.emplace<Linear>(8, 4, rng);
  // Plan structure, not tiers: pinned to fp32 so an ADVP_PRECISION=int8
  // environment (which this uncalibrated net cannot plan) does not apply.
  PrecisionScope fp32(GemmPrecision::kFp32);

  Rng xr(90);
  const Tensor x = Tensor::rand({3, 3, 16, 16}, xr);
  InferenceModeScope inference;
  const Tensor eager = net.forward(x, /*train=*/false);
  std::vector<Module*> layers;
  for (std::size_t i = 0; i < net.size(); ++i) layers.push_back(&net.child(i));
  PlanCache cache("custom");
  ExecPlan* plan = cache.plan_for(layers, x);
  ASSERT_NE(plan, nullptr);
  EXPECT_TRUE(bitwise_equal(plan->execute(x), eager));
}

TEST(PlanCacheTest, RecompilesAfterGenerationBumpAndTracksShapes) {
  HookGuard guard;
  plan_detail::force_plan(1);
  Rng rng(10);
  models::TinyYolo model({}, rng);
  Rng xr(91);
  const Tensor x2 = Tensor::rand({2, 3, 48, 48}, xr);
  const Tensor x5 = Tensor::rand({5, 3, 48, 48}, xr);

  obs::enable();
  obs::reset();
  {
    InferenceModeScope inference;
    PrecisionScope fp32(GemmPrecision::kFp32);
    model.forward_raw(x2, false);  // compile
    model.forward_raw(x2, false);  // hit
    EXPECT_EQ(obs::counter_value(obs::Counter::kPlanCompiles), 1u);
    EXPECT_EQ(obs::counter_value(obs::Counter::kPlanCacheHits), 1u);
    model.forward_raw(x5, false);  // different shape -> second plan
    EXPECT_EQ(obs::counter_value(obs::Counter::kPlanCompiles), 2u);
  }

  // An optimizer-step-style weight mutation invalidates compiled plans;
  // the recompiled plan must track the new weights (and still match the
  // eager walk on them).
  model.params()[0]->value *= 1.25f;
  bump_weight_generation();
  Tensor eager;
  {
    plan_detail::force_plan(0);
    ScopedMaxWorkers workers(1);
    InferenceModeScope inference;
    PrecisionScope fp32(GemmPrecision::kFp32);
    eager = model.forward_raw(x2, false);
  }
  plan_detail::force_plan(1);
  {
    InferenceModeScope inference;
    PrecisionScope fp32(GemmPrecision::kFp32);
    const std::uint64_t compiles_before =
        obs::counter_value(obs::Counter::kPlanCompiles);
    Tensor planned = model.forward_raw(x2, false);
    EXPECT_GT(obs::counter_value(obs::Counter::kPlanCompiles),
              compiles_before);
    EXPECT_TRUE(bitwise_equal(planned, eager));
  }
  obs::enable(false);
  obs::reset();
}

TEST(PlanCacheTest, WarmExecutionPerformsZeroSteadyAllocations) {
  HookGuard guard;
  plan_detail::force_plan(1);
  Rng rng(11);
  models::TinyYolo model({}, rng);
  Rng xr(92);
  const Tensor x = Tensor::rand({4, 3, 48, 48}, xr);
  InferenceModeScope inference;
  PrecisionScope fp32(GemmPrecision::kFp32);
  model.forward_raw(x, false);  // compile (includes its own warm-up)
  model.forward_raw(x, false);  // fully warm on this thread
  obs::enable();
  obs::reset();
  model.forward_raw(x, false);
  EXPECT_EQ(obs::counter_value(obs::Counter::kPlanSteadyAllocs), 0u);
  EXPECT_EQ(obs::counter_value(obs::Counter::kPlanCacheHits), 1u);
  obs::enable(false);
  obs::reset();
}

TEST(PlanGateTest, DisabledPlanAndUncalibratedInt8FallBack) {
  HookGuard guard;
  Rng rng(13);
  models::TinyYolo model({}, rng);

  plan_detail::force_plan(0);
  EXPECT_EQ(model.compile_plan(1), nullptr);
  obs::enable();
  obs::reset();
  {
    InferenceModeScope inference;
    Rng xr(94);
    model.forward_raw(Tensor::rand({1, 3, 48, 48}, xr), false);
  }
  EXPECT_EQ(obs::counter_value(obs::Counter::kPlanCompiles), 0u);
  obs::enable(false);
  obs::reset();

  // An uncalibrated model has no int8 activation scales: it cannot
  // compile at int8, and the forward falls back to the eager walk, where
  // every uncalibrated layer runs fp32 — the int8 request yields exactly
  // the fp32 bits.
  Rng xr(95);
  const Tensor x = Tensor::rand({2, 3, 48, 48}, xr);
  Tensor fp32_eager;
  {
    ScopedMaxWorkers workers(1);
    InferenceModeScope inference;
    PrecisionScope fp32(GemmPrecision::kFp32);
    fp32_eager = model.forward_raw(x, false);
  }
  plan_detail::force_plan(1);
  {
    ScopedMaxWorkers workers(1);
    InferenceModeScope inference;
    PrecisionScope int8(GemmPrecision::kInt8);
    EXPECT_EQ(model.compile_plan(2), nullptr);
    Tensor out = model.forward_raw(x, false);
    EXPECT_TRUE(bitwise_equal(out, fp32_eager));
  }
}

// The white-box attack oracles run eval-mode forwards *without* an
// InferenceModeScope so the layer backward caches stay populated; the
// plan gate must leave those on the eager path or every gradient-based
// attack breaks.
TEST(PlanGateTest, BackwardPathStaysEager) {
  HookGuard guard;
  plan_detail::force_plan(1);
  Rng rng(14);
  models::DistNet model({}, rng);
  Rng xr(96);
  const Tensor x = Tensor::rand({2, 3, 48, 96}, xr);
  obs::enable();
  obs::reset();
  models::DistLossGrad g = model.prediction_grad(x);
  EXPECT_EQ(obs::counter_value(obs::Counter::kPlanCompiles), 0u);
  EXPECT_EQ(obs::counter_value(obs::Counter::kPlanCacheHits), 0u);
  EXPECT_EQ(g.grad.shape(), x.shape());
  obs::enable(false);
  obs::reset();
}

}  // namespace
}  // namespace advp::nn
