// Execution-plan compiler: compile a layer list once, execute many times.
//
// ExecPlan is the one fused inference path. The eager child-by-child walk
// (Sequential::forward) allocates (and zero-fills) a fresh intermediate
// Tensor per layer and runs bias, BatchNorm and activation as separate
// sweeps; ExecPlan moves that work to compile time. Compiling a model for
// one (input shape, precision tier) runs three passes:
//
//  1. Shape inference over the layer list — every intermediate's geometry
//     is known before the first real forward.
//  2. Fusion — Conv2d[+BatchNorm2d][+ReLU|SiLU] and Linear[+ReLU] runs are
//     resolved once into a flat op list; eval-BN and the activation fold
//     into the GEMM epilogue.
//  3. Buffer schedule — the op chain is single-input/single-output, so
//     liveness analysis degenerates to two ping-pong arena slots (plus
//     the plan-owned output tensor), pre-allocated at compile time.
//     Reshapes (Flatten) and eval-mode Dropout are aliases: zero copies,
//     zero ops. Steady-state execution performs zero heap allocations —
//     asserted through the plan_steady_allocs obs counter, not by eye.
//
// Every planned GEMM runs the kernel's build-constant Mc/Kc/Nc blocking.
// Execution is bit-identical to the eager walk under an
// InferenceModeScope at the same tier, which stays as the fallback for
// unsupported layers and uncalibrated int8 models and as the bit-identity
// oracle in tests: the fused epilogue performs the same float ops, in the
// same order, as the separate layer passes, and convs run the same
// per-item GEMM loop (conv2d_forward_items) as the eager conv.
//
// Invalidation mirrors GemmCacheSlot: a plan records the weight
// generation at compile time and PlanCache recompiles after any optimizer
// step, parameter load, or `.advp` adoption. Precision changes select a
// different cache entry outright, since the tier is part of the plan key.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "nn/layers.h"

namespace advp::nn {

namespace plan_detail {
/// @brief Test/bench hook: 0 turns plans off so every forward takes the
/// eager walk (the plan's oracle); 1 or -1 restores the default (on).
void force_plan(int mode);
/// @brief True when PlanCache may hand out compiled plans.
bool plan_enabled();
}  // namespace plan_detail

/// A model compiled for one (input shape, precision tier). Compile once,
/// execute on every matching forward; see the file comment for what the
/// compiler does. Not thread-safe: one plan serves one caller at a time
/// (the serve layer already serializes per-tenant execution).
class ExecPlan {
 public:
  ExecPlan();
  ~ExecPlan();
  ExecPlan(ExecPlan&&) noexcept;
  ExecPlan& operator=(ExecPlan&&) noexcept;

  /// @brief Compiles `layers` (run in order, as a Sequential would) for
  /// inputs of `in_shape` at tier `tier`. Runs shape inference, fusion,
  /// the buffer schedule, and one warm-up execute
  /// (so steady-state calls hit warm pack slots and a warm arena).
  /// @param label Model name recorded in obs plan records.
  /// @return false — leaving the plan invalid — when a layer kind or
  ///   shape is unsupported, or when `tier` is int8 and a Conv2d/Linear
  ///   has no calibration range; callers fall back to the eager walk.
  bool compile(const std::vector<Module*>& layers,
               const std::vector<int>& in_shape, GemmPrecision tier,
               const std::string& label = "model");

  bool compiled() const;

  /// @brief True when the plan can serve a forward right now: compiled,
  /// shape and tier match, and no weight-generation bump happened since
  /// compile (optimizer step / load_params / `.advp` adoption / recalibration
  /// all bump it, exactly like the pack-cache slots).
  bool valid_for(const std::vector<int>& in_shape, GemmPrecision tier) const;

  /// @brief Runs the compiled op list on `x`. The returned tensor is
  /// owned by the plan and stays valid until the next execute/compile.
  /// Steady-state calls perform zero heap allocations.
  const Tensor& execute(const Tensor& x);

  const std::vector<int>& input_shape() const;
  GemmPrecision tier() const;
  /// Bytes pre-allocated for intermediate buffers (the ping-pong arena).
  std::size_t arena_bytes() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Per-model cache of compiled plans keyed on (input shape, tier).
/// Models own one and consult it from their forward entry points; the
/// cache compiles lazily, recompiles stale plans in place, and remembers
/// (shape, tier) keys that failed to compile so unsupported models pay
/// one attempt, not one per forward.
class PlanCache {
 public:
  explicit PlanCache(std::string label = "model") : label_(std::move(label)) {}

  /// @brief An executable plan for (layers, x.shape(), the active tier),
  /// or nullptr when planning is disabled (force_plan(0)),
  /// the calling context is not a backward-free inference forward (no
  /// InferenceModeScope, or a CalibrationScope is active), or the model
  /// failed to compile. Compiles or recompiles as needed.
  ExecPlan* plan_for(const std::vector<Module*>& layers, const Tensor& x);

  /// @brief Eagerly compiles (or revalidates) the plan for `in_shape` at
  /// `tier` — the serve layer calls this at tenant registration and
  /// server start so the first request finds a warm plan. Returns nullptr
  /// when planning is disabled or compilation fails.
  ExecPlan* compile_now(const std::vector<Module*>& layers,
                        const std::vector<int>& in_shape,
                        GemmPrecision tier);

  void clear();
  std::size_t size() const { return plans_.size(); }

 private:
  ExecPlan* lookup(const std::vector<Module*>& layers,
                   const std::vector<int>& shape, GemmPrecision tier,
                   bool count_hit);

  std::string label_;
  // MRU at the front; bounded (kMaxPlans) so a shape-churning caller
  // cannot grow the cache without limit.
  std::vector<std::unique_ptr<ExecPlan>> plans_;
  // (shape, tier) keys that failed to compile at the current generation.
  struct FailedKey {
    std::vector<int> shape;
    GemmPrecision tier;
    std::uint64_t generation;
  };
  std::vector<FailedKey> failed_;
};

}  // namespace advp::nn
