// Campaign-engine throughput: CampaignEngine at 1 worker versus full
// workers, plus the sharding CLI. Emits a JSON object on stdout:
//
//   {"schema": "advp.campaign_bench/2", "max_workers": 4, "scenarios": 30,
//    "serial_sps": ..., "engine_sps": ..., "engine_vs_serial": ...,
//    "p95_step_ms": ..., "identity_checked": 10, "identical": true,
//    "lost": 0, "shard2_sps": ..., "shard_merge_identical": true}
//
// Measurements (same clean matrix — noon lighting, 5 standard
// trajectories, noise x1, no attack — so every path simulates the exact
// same scenario streams):
//  - serial_sps: CampaignEngine::run_range under ScopedMaxWorkers(1) — one
//    runner, one batch-1 forward per control step;
//  - engine_sps: the same run_range at full workers — one runner per
//    worker, each on its own model clone;
//  - shard2_sps: tools/advp_campaign --shards 2 wall clock, and
//    shard_merge_identical checks its merged aggregate is byte-identical
//    to the in-process engine aggregate.
//
// `identical` re-runs a slice at full workers with traces on and demands
// every engine trace match a plain AccSimulator::run loop bit-for-bit;
// `lost` counts indices that never reported. p95_step_ms is the engine's
// p95 over per-scenario mean step times.
//
// Machine portability: scenarios/second is hardware-bound, so
// tools/check_campaign_perf.py gates on the intra-run ratio
// (engine_vs_serial) keyed to the recorded max_workers — scenarios are
// independent, so runners scale with cores (>= 2x at >= 4 workers), a win
// a single-core runner cannot show (the floor there only rejects
// collapse) — and gates the determinism columns hard everywhere.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/parallel.h"
#include "core/rng.h"
#include "models/distnet.h"
#include "sim/campaign.h"

namespace {

using namespace advp;
using namespace advp::sim;
using namespace advp::sim::campaign;
using Clock = std::chrono::steady_clock;

constexpr std::uint64_t kRepeats = 6;   // x5 trajectories = 30 scenarios
constexpr std::uint64_t kIdentityN = 10;
constexpr std::uint64_t kWarmN = 4;
constexpr std::uint64_t kSeed = 1234;

// The clean matrix every measurement runs: identical to what
// `advp_campaign --lighting 1 --noise 1 --attacks none` builds, so the
// shard-merge check can compare against the CLI byte-for-byte.
MatrixSpec bench_spec(std::uint64_t repeats) {
  MatrixSpec spec = MatrixSpec::standard();
  spec.lighting.resize(1);  // noon = identity transform
  spec.noise_scales = {1.f};
  spec.attacks = {AttackFamily::kNone};
  spec.repeats = repeats;
  return spec;
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

bool same_trace(const AccResult& a, const AccResult& b) {
  if (a.trace.size() != b.trace.size() || a.min_gap != b.min_gap ||
      a.min_ttc != b.min_ttc ||
      a.mean_abs_gap_error != b.mean_abs_gap_error ||
      a.collided != b.collided)
    return false;
  for (std::size_t k = 0; k < a.trace.size(); ++k)
    if (a.trace[k].true_gap != b.trace[k].true_gap ||
        a.trace[k].predicted_gap != b.trace[k].predicted_gap ||
        a.trace[k].v_ego != b.trace[k].v_ego ||
        a.trace[k].accel_cmd != b.trace[k].accel_cmd)
      return false;
  return true;
}

}  // namespace

int main() {
  advp::bench::BenchRun run("campaign_throughput");

  Rng rng(7);
  models::DistNet model(models::DistNetConfig{}, rng);
  const MatrixSpec spec = bench_spec(kRepeats);
  const std::uint64_t n = spec.size();
  CampaignConfig cfg;
  cfg.base_seed = kSeed;

  // ---- one runner (1 worker, batch-1 forwards) ----
  double serial_sps;
  {
    ScopedMaxWorkers workers(1);
    CampaignEngine engine(model, data::DrivingSceneGenerator{}, AccParams{},
                          spec, cfg);
    engine.run_range(0, kWarmN);
    const auto t0 = Clock::now();
    engine.run_range(0, n);
    serial_sps = static_cast<double>(n) / seconds_since(t0);
  }

  // ---- one runner per worker ----
  double engine_sps, p95_step_ms;
  std::string engine_json;
  {
    CampaignEngine engine(model, data::DrivingSceneGenerator{}, AccParams{},
                          spec, cfg);
    engine.run_range(0, kWarmN);
    const auto t0 = Clock::now();
    const CampaignAggregate agg = engine.run_range(0, n);
    engine_sps = static_cast<double>(n) / seconds_since(t0);
    engine_json = agg.to_json();
    p95_step_ms = engine.progress().p95_step_ms();
  }

  // ---- bit-identity slice: engine traces vs a plain AccSimulator loop ----
  int lost = 0, wrong = 0;
  {
    const MatrixSpec id_spec = bench_spec(2);  // 10 scenarios
    std::vector<AccResult> got(kIdentityN);
    std::vector<int> seen(kIdentityN, 0);
    CampaignConfig id_cfg = cfg;
    id_cfg.record_trace = true;
    id_cfg.on_result = [&](const ScenarioPoint& p, const AccResult& r) {
      got[p.index] = r;
      ++seen[p.index];
    };
    CampaignEngine engine(model, data::DrivingSceneGenerator{}, AccParams{},
                          id_spec, id_cfg);
    engine.run_range(0, kIdentityN);

    AccSimulator sim(model, data::DrivingSceneGenerator{});
    for (std::uint64_t i = 0; i < kIdentityN; ++i) {
      Rng srng(Rng::stream_seed(kSeed, i));
      const AccResult ref = sim.run(id_spec.at(i).scenario, srng);
      if (seen[i] != 1)
        ++lost;
      else if (!same_trace(got[i], ref))
        ++wrong;
    }
  }

  // ---- 2-shard CLI run, merged aggregate must match in-process ----
  double shard2_sps = 0.0;
  bool shard_merge_identical = false;
#ifdef ADVP_CAMPAIGN_BIN
  {
    const std::string out = advp::bench::out_path("campaign_bench_s2.json");
    char cmd[512];
    std::snprintf(cmd, sizeof cmd,
                  "%s --shards 2 --lighting 1 --noise 1 --attacks none "
                  "--repeats %llu --seed %llu --quiet --out %s 2> /dev/null",
                  ADVP_CAMPAIGN_BIN,
                  static_cast<unsigned long long>(kRepeats),
                  static_cast<unsigned long long>(kSeed), out.c_str());
    const auto t0 = Clock::now();
    const int rc = std::system(cmd);
    const double secs = seconds_since(t0);
    if (rc == 0) {
      shard2_sps = static_cast<double>(n) / secs;
      std::ifstream in(out);
      std::stringstream ss;
      ss << in.rdbuf();
      std::string shard_json = ss.str();
      while (!shard_json.empty() &&
             (shard_json.back() == '\n' || shard_json.back() == '\r'))
        shard_json.pop_back();
      shard_merge_identical = (shard_json == engine_json);
    }
  }
#endif

  std::printf(
      "{\"schema\": \"advp.campaign_bench/2\", \"max_workers\": %zu, "
      "\"scenarios\": %llu,\n"
      " \"serial_sps\": %.3f, \"engine_sps\": %.3f, "
      "\"engine_vs_serial\": %.3f, \"p95_step_ms\": %.3f,\n"
      " \"identity_checked\": %llu, \"identical\": %s, \"lost\": %d, "
      "\"shard2_sps\": %.3f, \"shard_merge_identical\": %s}\n",
      max_workers(), static_cast<unsigned long long>(n), serial_sps,
      engine_sps, engine_sps / serial_sps, p95_step_ms,
      static_cast<unsigned long long>(kIdentityN),
      (wrong == 0 && lost == 0) ? "true" : "false", lost, shard2_sps,
      shard_merge_identical ? "true" : "false");

  run.manifest().set("scenarios", static_cast<double>(n));
  run.manifest().set("serial_sps", serial_sps);
  run.manifest().set("engine_sps", engine_sps);
  run.manifest().set("engine_vs_serial", engine_sps / serial_sps);
  return 0;
}
