// `campaign`: CampaignEngine::run_range over 3 lighting x 5 trajectories x
// {none, gaussian, patch} against fp32 DistNet, with the default
// CampaignConfig. Time goes to render -> to_tensor -> batched plan predict
// -> AccStepper; the nn/tensor work is forward-only fp32.
#include <algorithm>
#include <cstdio>
#include <memory>

#include "core/check.h"
#include "image/image.h"
#include "models/zoo.h"
#include "nn/serialize.h"
#include "parts.h"
#include "sim/campaign.h"

namespace perfbench {
namespace {

namespace cp = advp::sim::campaign;

constexpr std::uint64_t kSliceLen = 4;  ///< scenarios re-run serially

cp::MatrixSpec bench_spec() {
  cp::MatrixSpec spec = cp::MatrixSpec::standard();
  spec.noise_scales = {1.f};
  return spec;
}

bool same_trace(const advp::sim::AccResult& a, const advp::sim::AccResult& b) {
  if (a.trace.size() != b.trace.size() || a.steps != b.steps ||
      a.collided != b.collided || a.min_gap != b.min_gap ||
      a.min_ttc != b.min_ttc || a.mean_abs_gap_error != b.mean_abs_gap_error)
    return false;
  for (std::size_t k = 0; k < a.trace.size(); ++k) {
    const advp::sim::AccStepLog &x = a.trace[k], &y = b.trace[k];
    if (x.time != y.time || x.true_gap != y.true_gap ||
        x.predicted_gap != y.predicted_gap || x.v_ego != y.v_ego ||
        x.v_lead != y.v_lead || x.accel_cmd != y.accel_cmd)
      return false;
  }
  return true;
}

class Campaign final : public Part {
 public:
  Campaign(const Options& o, const WeightCache& c) : opt_(o), cache_(c) {}
  const char* name() const override { return "campaign"; }

  void setup() override {
    engine_.reset();
    model_ = advp::models::make_distnet_from_advp(cache_.distnet_fp32());
    ADVP_CHECK_MSG(model_, "perfbench: cannot load " << cache_.distnet_fp32());
    model_->compile_plan(cp::CampaignConfig{}.cohort);
    cp::CampaignConfig cfg;
    cfg.base_seed = opt_.seed;  // scenario draws derive from the workload seed
    engine_ = std::make_unique<cp::CampaignEngine>(
        *model_, advp::data::DrivingSceneGenerator{}, advp::sim::AccParams{},
        bench_spec(), cfg);
  }

  void warm() override { engine_->run_range(0, 4); }

  // A pass is long, so unlike the other parts a call past its target runs
  // no pass at all.
  void measure(double seconds, Report& r) override {
    while (rates_.empty() || measured_s_ < seconds) {
      const auto tr = Clock::now();
      cp::CampaignAggregate agg;
      {
        Span s("sim.run_range");
        agg = engine_->run_range(0, range_end());
      }
      const double pass_s = seconds_since(tr);
      measured_s_ += pass_s;
      rates_.push_back(static_cast<double>(agg.scenarios) / pass_s);
      const cp::CampaignProgress& p = engine_->progress();
      steps_ += static_cast<double>(agg.steps);
      useful_ += static_cast<double>(p.steps.load());
      rows_ += static_cast<double>(p.batch_predicts.load()) *
               engine_->config().cohort;
      engine_p95_ms_ = p.p95_step_ms();
      scenarios_ += static_cast<double>(agg.scenarios);
      // Same range, same seed: every pass must aggregate identically.
      const std::string json = agg.to_json();
      r.part("campaign").add(agg_json_.empty() || json == agg_json_);
      if (agg_json_.empty()) agg_json_ = json;
    }
    r.metric("campaign_scenarios_per_s", headline(), "scenarios/s");
  }

  void reset() override {
    rates_.clear();
    measured_s_ = steps_ = scenarios_ = rows_ = useful_ = 0.0;
  }

  // The aggregate of a slice equals the fold of run_scenario_serial over
  // the same indices.
  void check(Report& r) override {
    const std::uint64_t n = engine_->spec().size();
    advp::Rng rng(advp::Rng::stream_seed(opt_.seed, 77));
    const std::uint64_t lo = rng.index(static_cast<std::size_t>(n - kSliceLen));
    const cp::CampaignAggregate got = engine_->run_range(lo, lo + kSliceLen);
    cp::CampaignAggregate want(engine_->spec());
    for (std::uint64_t i = lo; i < lo + kSliceLen; ++i)
      want.add(engine_->spec().at(i), engine_->run_scenario_serial(i, false));
    r.part("campaign").add(got.to_json() == want.to_json());
  }

  double headline() const override { return median(rates_); }
  double work_units() const override { return steps_; }

  void layer_metrics(Report& r) override {
    r.metric("sim.cohort_fill", rows_ > 0 ? useful_ / rows_ : 0.0, "ratio");
    r.metric("sim.steps_per_scenario",
             scenarios_ > 0 ? steps_ / scenarios_ : 0.0, "count");
    r.metric("sim.engine_step_p95_ms", engine_p95_ms_, "ms");
    replay(r);
  }

  std::string output_digest() const override {
    Digest d;
    d.str(agg_json_);
    return d.hex();
  }

  std::string input_digest() const override {
    // The scenario draws: each index's first sampled style.
    Digest d;
    advp::data::DrivingSceneGenerator gen;
    for (std::uint64_t i = 0; i < engine_->spec().size(); ++i) {
      advp::Rng rng(advp::Rng::stream_seed(opt_.seed, i));
      const advp::data::SceneStyle s = gen.sample_style(rng);
      d.f32(s.light_gain);
      d.f32(s.lane_offset);
      d.f32(s.road_shade);
    }
    return d.hex();
  }

  std::string weight_hashes() const override {
    char buf[64];
    std::snprintf(buf, sizeof buf, "distnet_fp32=%016llx",
                  static_cast<unsigned long long>(
                      advp::nn::param_fingerprint(model_->params())));
    return buf;
  }

 private:
  std::uint64_t range_end() const {
    return opt_.tiny ? 6 : engine_->spec().size();
  }

  // Drives one cohort of AccSteppers for the matrix's first clean
  // scenarios through the public calls the engine's lockstep loop makes
  // (render -> to_tensor -> images_to_batch -> predict -> step), timing
  // each, and checks every lane trace-for-trace against
  // run_scenario_serial.
  void replay(Report& r) {
    const cp::MatrixSpec& spec = engine_->spec();
    const int cohort = opt_.tiny ? 2 : engine_->config().cohort;
    std::vector<cp::ScenarioPoint> points;
    for (std::uint64_t i = 0; i < spec.size() && points.size() < static_cast<std::size_t>(cohort); ++i)
      if (spec.attacks[static_cast<std::size_t>(spec.at(i).attack)] ==
          cp::AttackFamily::kNone)
        points.push_back(spec.at(i));

    struct Lane {
      advp::Rng rng;
      advp::data::DrivingSceneGenerator gen;
      advp::data::SceneStyle style;
      advp::sim::AccStepper stepper;
    };
    std::vector<Lane> lanes;
    for (const cp::ScenarioPoint& p : points) {
      advp::Rng rng(advp::Rng::stream_seed(opt_.seed, p.index));
      advp::data::DrivingSceneParams gp;
      gp.noise_sigma *= spec.noise_scales[static_cast<std::size_t>(p.noise)];
      advp::data::DrivingSceneGenerator gen(gp);
      const advp::data::SceneStyle style = cp::apply_lighting(
          spec.lighting[static_cast<std::size_t>(p.lighting)], gen.sample_style(rng));
      lanes.push_back({rng, gen, style,
                       advp::sim::AccStepper(p.scenario, advp::sim::AccParams{})});
    }
    // Finished lanes keep their last frame so the batch shape never
    // changes, as in the engine.
    std::vector<advp::Image> frames(lanes.size());
    std::vector<double> step_us, cohort_step_ms;
    int steps = 0;
    for (;;) {
      bool any = false;
      const auto t0 = Clock::now();
      for (std::size_t c = 0; c < lanes.size(); ++c) {
        Lane& l = lanes[c];
        if (l.stepper.done()) continue;
        any = true;
        const float gap = std::clamp(l.stepper.gap(), l.gen.params().min_distance,
                                     l.gen.params().max_distance);
        advp::data::DrivingFrame f;
        {
          Span s("data.render");
          f = l.gen.render(gap, l.style, l.rng);
        }
        {
          Span s("image.to_tensor");
          (void)f.image.to_tensor();
        }
        frames[c] = std::move(f.image);
      }
      if (!any) break;
      advp::Tensor batch;
      {
        Span s("image.images_to_batch");
        batch = advp::images_to_batch(frames);
      }
      std::vector<float> preds;
      {
        Span s("models.distnet_predict");
        preds = model_->predict(batch);
      }
      if (opt_.inject == "diverge" && steps == 5) preds[0] += 1e-3f;
      for (std::size_t c = 0; c < lanes.size(); ++c) {
        if (lanes[c].stepper.done()) continue;
        const auto ts = Clock::now();
        {
          Span s("sim.step");
          lanes[c].stepper.step(preds[c]);
        }
        step_us.push_back(std::chrono::duration<double, std::micro>(Clock::now() - ts).count());
      }
      cohort_step_ms.push_back(
          std::chrono::duration<double, std::milli>(Clock::now() - t0).count());
      ++steps;
    }
    OpCount& ops = r.part("campaign");
    for (std::size_t c = 0; c < lanes.size(); ++c)
      ops.add(same_trace(lanes[c].stepper.finish(),
                         engine_->run_scenario_serial(points[c].index, true)));

    const Tracer& t = Tracer::get();
    const auto per_call = [&](const char* span) {
      const Tracer::Stat* s = t.stat(span);
      return s && s->calls ? median(s->samples_ms) : 0.0;
    };
    r.metric("data.render_ms", per_call("data.render"), "ms");
    r.metric("image.to_tensor_ms", per_call("image.to_tensor"), "ms");
    r.metric("sim.step_us", median(step_us), "us");
    r.metric("sim.replay_step_p95_ms", percentile(cohort_step_ms, 0.95), "ms");
  }

  Options opt_;
  WeightCache cache_;
  std::unique_ptr<advp::models::DistNet> model_;
  std::unique_ptr<cp::CampaignEngine> engine_;  // after model_
  std::string agg_json_;
  std::vector<double> rates_;  ///< scenarios/s per pass
  double measured_s_ = 0.0, steps_ = 0.0, scenarios_ = 0.0, rows_ = 0.0,
         useful_ = 0.0, engine_p95_ms_ = 0.0;
};

}  // namespace

std::unique_ptr<Part> make_campaign(const Options& o, const WeightCache& c) {
  return std::make_unique<Campaign>(o, c);
}

}  // namespace perfbench
