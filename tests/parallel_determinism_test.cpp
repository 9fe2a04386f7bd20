// Serial-vs-parallel equivalence tests: the load-bearing guarantee of the
// threading layer is that worker count is a pure scheduling choice — every
// parallelized loop (tensor kernels, harness evaluation, adversarial
// dataset generation) must produce bit-identical results with 1 worker and
// with many. Also covers the parallel_for contract itself: edge cases,
// slot bounds, and exception propagation.
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <vector>

#include "attacks/fgsm.h"
#include "core/parallel.h"
#include "defenses/adv_train.h"
#include "defenses/preprocess.h"
#include "eval/harness.h"
#include "sim/campaign.h"
#include "tensor/ops.h"

namespace advp {
namespace {

// ---- parallel_for contract ------------------------------------------------

TEST(ParallelForTest, EmptyRangeDoesNothing) {
  ScopedMaxWorkers workers(8);
  int calls = 0;
  parallel_for(5, 5, [&](std::size_t) { ++calls; });
  parallel_for(7, 3, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ParallelForTest, SingleItemRunsInlineOnCaller) {
  ScopedMaxWorkers workers(8);
  int calls = 0;
  std::size_t seen = 0;
  parallel_for(3, 4, [&](std::size_t i) {
    ++calls;
    seen = i;
    EXPECT_FALSE(in_parallel_region());  // degenerate range stays serial
  });
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(seen, 3u);
}

TEST(ParallelForTest, VisitsEveryIndexExactlyOnce) {
  ScopedMaxWorkers workers(8);
  const std::size_t n = 1000;
  std::vector<std::atomic<int>> hits(n);
  for (auto& h : hits) h.store(0);
  parallel_for(0, n, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ParallelForTest, GrainedVariantVisitsEveryIndex) {
  ScopedMaxWorkers workers(8);
  const std::size_t n = 103;  // not a multiple of the grain
  std::vector<std::atomic<int>> hits(n);
  for (auto& h : hits) h.store(0);
  parallel_for(0, n, 8, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ParallelForTest, PropagatesExceptionsToCaller) {
  ScopedMaxWorkers workers(8);
  EXPECT_THROW(parallel_for(0, 64,
                            [&](std::size_t i) {
                              if (i == 13)
                                throw std::runtime_error("body failed");
                            }),
               std::runtime_error);
  // The pool must stay usable after a failed job.
  std::atomic<int> calls{0};
  parallel_for(0, 64, [&](std::size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 64);
}

TEST(ParallelForTest, SlottedStaysInBoundsAndCoversRange) {
  ScopedMaxWorkers workers(8);
  const std::size_t slots = 3, n = 200;
  std::vector<std::atomic<int>> hits(n);
  for (auto& h : hits) h.store(0);
  std::atomic<bool> slot_ok{true};
  parallel_for_slotted(0, n, slots, [&](std::size_t slot, std::size_t i) {
    if (slot >= slots) slot_ok.store(false);
    hits[i].fetch_add(1);
  });
  EXPECT_TRUE(slot_ok.load());
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ParallelForTest, NestedCallRunsSerially) {
  ScopedMaxWorkers workers(4);
  std::atomic<int> inner_total{0};
  parallel_for(0, 8, [&](std::size_t) {
    // From inside a parallel region, nested loops must degenerate to
    // serial inline execution instead of deadlocking on the pool.
    parallel_for(0, 10, [&](std::size_t) { inner_total.fetch_add(1); });
  });
  EXPECT_EQ(inner_total.load(), 80);
}

TEST(ParallelForTest, WorkerCapOverride) {
  EXPECT_GE(hardware_workers(), 1u);
  set_max_workers(3);
  EXPECT_EQ(max_workers(), 3u);
  set_max_workers(0);
  EXPECT_EQ(max_workers(), hardware_workers());
}

// Regression: hosts with >64 logical cores derived a participant count
// above the pool's 64-thread capacity and deadlocked waiting for workers
// that were never created. Every worker-count source — the hardware
// default, the override, and caller-requested slots — must clamp to the
// pool capacity, and dispatched slot indices must stay below it.
TEST(ParallelForTest, WorkerCountsClampToPoolCapacity) {
  constexpr std::size_t kPoolCap = 64;  // kMaxPoolThreads in parallel.cpp
  EXPECT_LE(hardware_workers(), kPoolCap);
  set_max_workers(1 << 20);
  EXPECT_LE(max_workers(), kPoolCap);
  set_max_workers(0);

  const std::size_t n = 300;
  std::vector<std::atomic<int>> hits(n);
  for (auto& h : hits) h.store(0);
  std::atomic<std::size_t> worst_slot{0};
  parallel_for_slotted(0, n, /*slots=*/1 << 20,
                       [&](std::size_t slot, std::size_t i) {
                         std::size_t seen = worst_slot.load();
                         while (slot > seen &&
                                !worst_slot.compare_exchange_weak(seen, slot)) {
                         }
                         hits[i].fetch_add(1);
                       });
  EXPECT_LT(worst_slot.load(), kPoolCap);
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

// ---- kernel determinism ---------------------------------------------------

template <typename Fn>
Tensor with_workers(std::size_t n, Fn fn) {
  ScopedMaxWorkers workers(n);
  return fn();
}

void expect_identical(const Tensor& a, const Tensor& b, const char* what) {
  ASSERT_TRUE(a.same_shape(b)) << what;
  for (std::size_t i = 0; i < a.numel(); ++i)
    ASSERT_EQ(a[i], b[i]) << what << " diverges at " << i;
}

TEST(ParallelDeterminismTest, MatmulBitIdenticalAcrossWorkerCounts) {
  Rng rng(31);
  Tensor a = Tensor::randn({64, 48}, rng);
  Tensor b = Tensor::randn({48, 96}, rng);
  Tensor serial = with_workers(1, [&] { return matmul(a, b); });
  Tensor parallel = with_workers(8, [&] { return matmul(a, b); });
  expect_identical(serial, parallel, "matmul");
}

TEST(ParallelDeterminismTest, Conv2dBitIdenticalAcrossWorkerCounts) {
  Rng rng(32);
  Conv2dSpec spec;
  spec.in_channels = 3;
  spec.out_channels = 8;
  Tensor x = Tensor::randn({6, 3, 16, 16}, rng);
  Tensor w = Tensor::randn({8, 3, 3, 3}, rng, 0.5f);
  Tensor b = Tensor::randn({8}, rng, 0.5f);
  Tensor y1 = with_workers(1, [&] { return conv2d_forward(x, w, b, spec); });
  Tensor y8 = with_workers(8, [&] { return conv2d_forward(x, w, b, spec); });
  expect_identical(y1, y8, "conv2d_forward");

  Tensor dy = Tensor::randn(y1.shape(), rng);
  Conv2dGrads g1, g8;
  {
    ScopedMaxWorkers workers(1);
    g1 = conv2d_backward(x, w, dy, spec);
  }
  {
    ScopedMaxWorkers workers(8);
    g8 = conv2d_backward(x, w, dy, spec);
  }
  expect_identical(g1.dx, g8.dx, "conv2d dx");
  expect_identical(g1.dw, g8.dw, "conv2d dw");
  expect_identical(g1.db, g8.db, "conv2d db");
}

// ---- harness determinism --------------------------------------------------

eval::HarnessConfig tiny_config(const char* tag) {
  eval::HarnessConfig cfg;
  cfg.sign_train = 24;
  cfg.sign_test = 8;
  cfg.detector_epochs = 2;
  cfg.drive_train = 24;
  cfg.distnet_epochs = 2;
  cfg.sequences_per_bin = 1;
  cfg.frames_per_sequence = 4;
  cfg.cache_dir = ::testing::TempDir() + "/advp_par_determinism";
  cfg.cache_tag = tag;
  return cfg;
}

eval::SceneAttack fgsm_scene_attack(models::TinyYolo& victim,
                                    std::uint64_t seed) {
  return [&victim, seed](const data::SignScene& scene, std::size_t index) {
    Rng rng(Rng::stream_seed(seed, index));
    return defenses::attack_sign_scene(scene, defenses::AttackKind::kFgsm,
                                       victim, rng);
  };
}

TEST(ParallelDeterminismTest, EvaluateSignTaskIdenticalMetrics) {
  eval::Harness h(tiny_config("sign"));
  models::TinyYolo& det = h.detector();
  eval::SceneAttack attack = fgsm_scene_attack(det, 99);
  eval::ImageTransform defense = [](const Image& img) {
    defenses::MedianBlurDefense d(3);
    return d.apply(img);
  };
  eval::DetectionMetrics m1, m8;
  {
    ScopedMaxWorkers workers(1);
    m1 = h.evaluate_sign_task(det, h.sign_test(), attack, defense);
  }
  {
    ScopedMaxWorkers workers(8);
    m8 = h.evaluate_sign_task(det, h.sign_test(), attack, defense);
  }
  EXPECT_EQ(m1.map50, m8.map50);
  EXPECT_EQ(m1.precision, m8.precision);
  EXPECT_EQ(m1.recall, m8.recall);
  EXPECT_EQ(m1.true_positives, m8.true_positives);
  EXPECT_EQ(m1.false_positives, m8.false_positives);
  EXPECT_EQ(m1.false_negatives, m8.false_negatives);
}

TEST(ParallelDeterminismTest, EvaluateDistanceTaskIdenticalMetrics) {
  eval::Harness h(tiny_config("dist"));
  models::DistNet& dist = h.distnet();
  eval::SequenceAttackFactory factory =
      [&dist](std::size_t seq) -> eval::FrameAttack {
    auto rng = std::make_shared<Rng>(Rng::stream_seed(4242, seq));
    return [&dist, rng](const data::DrivingFrame& f) {
      return defenses::attack_driving_frame(
          f, defenses::AttackKind::kGaussian, dist, *rng);
    };
  };
  eval::Harness::DistanceEval e1, e8;
  {
    ScopedMaxWorkers workers(1);
    e1 = h.evaluate_distance_task(dist, factory, nullptr);
  }
  {
    ScopedMaxWorkers workers(8);
    e8 = h.evaluate_distance_task(dist, factory, nullptr);
  }
  ASSERT_EQ(e1.bin_means.size(), e8.bin_means.size());
  for (std::size_t i = 0; i < e1.bin_means.size(); ++i) {
    EXPECT_EQ(e1.bin_means[i], e8.bin_means[i]) << "bin " << i;
    EXPECT_EQ(e1.bin_counts[i], e8.bin_counts[i]) << "bin " << i;
  }
  EXPECT_EQ(e1.overall_mean_abs, e8.overall_mean_abs);
}

TEST(ParallelDeterminismTest, AdversarialDatasetIdenticalAcrossWorkerCounts) {
  Rng mrng(5);
  models::TinyYolo det(models::TinyYoloConfig{}, mrng);
  auto corpus = data::make_sign_dataset(6, 808);
  data::SignDataset a, b;
  {
    ScopedMaxWorkers workers(1);
    a = defenses::make_adversarial_sign_dataset(
        corpus, defenses::AttackKind::kFgsm, det, 303);
  }
  {
    ScopedMaxWorkers workers(8);
    b = defenses::make_adversarial_sign_dataset(
        corpus, defenses::AttackKind::kFgsm, det, 303);
  }
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    const Tensor ta = a.scenes[i].image.to_batch();
    const Tensor tb = b.scenes[i].image.to_batch();
    ASSERT_TRUE(ta.same_shape(tb));
    for (std::size_t j = 0; j < ta.numel(); ++j)
      ASSERT_EQ(ta[j], tb[j]) << "scene " << i << " pixel " << j;
  }
}

TEST(ParallelDeterminismTest, CampaignCapRunsIdenticalToSerialRuns) {
  Rng mrng(21);
  models::DistNet dist(models::DistNetConfig{}, mrng);
  sim::campaign::MatrixSpec spec;
  spec.trajectories.clear();
  for (int i = 0; i < 4; ++i) {
    sim::AccScenario sc;
    sc.duration = 1.2f;
    sc.initial_gap = 25.f + 5.f * static_cast<float>(i);
    spec.trajectories.push_back({"gap" + std::to_string(i), sc});
  }
  // CAP on every frame, querying the runner's own model: the stateful
  // attack the engine has to keep deterministic across runners.
  spec.attacks = {sim::campaign::AttackFamily::kCap};
  const std::uint64_t n = spec.size();
  sim::campaign::CampaignConfig cfg;
  cfg.base_seed = 909;
  cfg.record_trace = true;
  std::vector<sim::AccResult> got(n);
  cfg.on_result = [&got](const sim::campaign::ScenarioPoint& p,
                         const sim::AccResult& r) { got[p.index] = r; };
  sim::campaign::CampaignEngine engine(dist, data::DrivingSceneGenerator{},
                                       sim::AccParams{}, spec, cfg);
  // Serial reference: one run_scenario_serial per index on `dist` itself.
  std::vector<sim::AccResult> serial;
  for (std::uint64_t i = 0; i < n; ++i)
    serial.push_back(engine.run_scenario_serial(i));
  for (std::size_t workers : {1, 8}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    ScopedMaxWorkers scoped(workers);
    got.assign(n, sim::AccResult{});
    EXPECT_EQ(engine.run_range(0, n).scenarios, n);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(got[i].min_gap, serial[i].min_gap) << "scenario " << i;
      EXPECT_EQ(got[i].min_ttc, serial[i].min_ttc) << "scenario " << i;
      EXPECT_EQ(got[i].mean_abs_gap_error, serial[i].mean_abs_gap_error);
      EXPECT_EQ(got[i].collided, serial[i].collided);
      ASSERT_EQ(got[i].trace.size(), serial[i].trace.size());
      for (std::size_t k = 0; k < serial[i].trace.size(); ++k) {
        EXPECT_EQ(got[i].trace[k].predicted_gap,
                  serial[i].trace[k].predicted_gap)
            << "scenario " << i << " step " << k;
        EXPECT_EQ(got[i].trace[k].accel_cmd, serial[i].trace[k].accel_cmd);
      }
    }
  }
}

}  // namespace
}  // namespace advp
