// `tables`: a warm-weights slice of Tables I/II through eval::Harness.
// Sign task: FGSM, Auto-PGD and SimBA against TinyYolo over the sign test
// set. Drive task: FGSM and CAP against DistNet over the eval sequences.
// Each attacked set is scored with no defense, median blur and bit depth.
// Nearly all time is in attacks and the eager forward+backward path.
#include <cstdio>
#include <memory>

#include "attacks/cap.h"
#include "defenses/adv_train.h"
#include "defenses/preprocess.h"
#include "eval/harness.h"
#include "models/zoo.h"
#include "nn/serialize.h"
#include "parts.h"

namespace perfbench {
namespace {

using advp::Image;
using advp::defenses::AttackKind;

struct SignAttack {
  AttackKind kind;
  const char* span;
};
const SignAttack kSignAttacks[] = {{AttackKind::kFgsm, "attacks.fgsm_sign"},
                                   {AttackKind::kAutoPgd, "attacks.autopgd_sign"},
                                   {AttackKind::kSimba, "attacks.simba_sign"}};

struct Defense {
  const char* span;  ///< nullptr: no defense
  std::shared_ptr<advp::defenses::InputDefense> impl;
};

class Tables final : public Part {
 public:
  Tables(const Options& o, const WeightCache& c) : opt_(o), cache_(c) {}
  const char* name() const override { return "tables"; }

  void setup() override {
    advp::eval::HarnessConfig hc;
    hc.seed = opt_.seed;  // test corpora derive from the workload seed
    hc.cache_dir = cache_.dir;
    hc.cache_tag = WeightCache::kHarnessTag;
    hc.sign_test = opt_.tiny ? 3 : 8;
    hc.sequences_per_bin = 1;
    hc.frames_per_sequence = opt_.tiny ? 3 : 6;
    harness_ = std::make_unique<advp::eval::Harness>(hc);
    harness_->detector();
    harness_->distnet();
    harness_->sign_test();
    harness_->eval_sequences();
  }

  // The first round's cold costs fall out of the per-block medians.
  void warm() override {}

  // The rate is the frames of one round over the sum of per-block median
  // times (a block is one attack and its three scorings), so a stall that
  // hits one block of one round does not move it.
  void measure(double seconds, Report& r) override {
    const Counters c0 = Counters::now();
    do {
      Digest d;
      const auto t0 = Clock::now();
      round_frames_ = round(&d, &block_s_);
      measured_s_ += seconds_since(t0);
      frames_ += round_frames_;
      // Every round sees the same inputs, so it must give the same outputs.
      const bool same = digest_.empty() || d.hex() == digest_;
      for (int i = 0; i < round_frames_; ++i) r.part("tables").add(same);
      if (digest_.empty()) digest_ = d.hex();
    } while (measured_s_ < seconds);
    oracle_calls_ += (Counters::now() - c0)[advp::obs::Counter::kAttackIterations];
    double round_s = 0.0;
    for (const auto& b : block_s_) round_s += median(b);
    rate_ = round_frames_ / round_s;
    r.metric("tables_frames_per_s", rate_, "frames/s");
  }

  void reset() override {
    block_s_.clear();
    measured_s_ = frames_ = scored_scenes_ = scored_frames_ = 0.0;
    oracle_calls_ = 0;
  }

  double headline() const override { return rate_; }
  double work_units() const override { return frames_; }

  void layer_metrics(Report& r) override {
    const Tracer& t = Tracer::get();
    const auto per_call = [&](const char* span) {
      const Tracer::Stat* s = t.stat(span);
      return s && s->calls ? s->total_ms / static_cast<double>(s->calls) : 0.0;
    };
    for (const SignAttack& a : kSignAttacks)
      r.metric(std::string(a.span) + "_ms", per_call(a.span), "ms");
    r.metric("attacks.fgsm_drive_ms", per_call("attacks.fgsm_drive"), "ms");
    r.metric("attacks.cap_drive_ms", per_call("attacks.cap_drive"), "ms");
    r.metric("attacks.oracle_calls_per_frame",
             static_cast<double>(oracle_calls_) / frames_,
             "count");
    r.metric("defenses.median_blur_ms", per_call("defenses.median_blur"), "ms");
    r.metric("defenses.bit_depth_ms", per_call("defenses.bit_depth"), "ms");
    // Scoring spans contain the defense spans they call; self time is the
    // decode/NMS/AP (sign) or predict/binning (drive) work.
    const auto self_per_item = [&](const char* span, double items) {
      const Tracer::Stat* s = t.stat(span);
      return s ? (s->total_ms - s->child_ms) / items : 0.0;
    };
    r.metric("eval.sign_score_ms_per_scene",
             self_per_item("eval.sign_score", scored_scenes_), "ms");
    r.metric("eval.drive_score_ms_per_frame",
             self_per_item("eval.drive_score", scored_frames_), "ms");
  }

  std::string output_digest() const override { return digest_; }

  std::string input_digest() const override {
    Digest d;
    for (const auto& s : harness_->sign_test().scenes)
      d.f32s(s.image.data(), s.image.numel());
    for (const auto& seq : harness_->eval_sequences())
      for (const auto& f : seq) d.f32s(f.image.data(), f.image.numel());
    return d.hex();
  }

  std::string weight_hashes() const override {
    char buf[96];
    std::snprintf(
        buf, sizeof buf, "detector_fp32=%016llx distnet_fp32=%016llx",
        static_cast<unsigned long long>(
            advp::nn::param_fingerprint(harness_->detector().params())),
        static_cast<unsigned long long>(
            advp::nn::param_fingerprint(harness_->distnet().params())));
    return buf;
  }

 private:
  // Times one defense application under its span.
  advp::eval::ImageTransform defense_fn(const Defense& def) {
    if (!def.impl) return nullptr;
    return [&def](const Image& img) {
      Span s(def.span);
      return def.impl->apply(img);
    };
  }

  // Attacks the sign set and the drive sequences once per attack, scores
  // each attacked set under every defense, folds attacked pixels and scores
  // into `d` and appends each block's seconds to `block_s`. Returns the
  // number of attacked frames.
  int round(Digest* d, std::vector<std::vector<double>>* block_s) {
    std::size_t block = 0;
    auto block_t0 = Clock::now();
    const auto end_block = [&] {
      if (block_s) {
        if (block_s->size() <= block) block_s->resize(block + 1);
        (*block_s)[block].push_back(seconds_since(block_t0));
      }
      ++block;
      block_t0 = Clock::now();
    };
    advp::eval::Harness& h = *harness_;
    advp::models::TinyYolo& det = h.detector();
    advp::models::DistNet& dist = h.distnet();
    const Defense defenses[] = {
        {nullptr, nullptr},
        {"defenses.median_blur",
         std::make_shared<advp::defenses::MedianBlurDefense>(3)},
        {"defenses.bit_depth",
         std::make_shared<advp::defenses::BitDepthDefense>(3)}};
    const auto fold = [d](const Image& img) {
      if (d) d->f32s(img.data(), img.numel());
    };
    int frames = 0;

    for (const SignAttack& a : kSignAttacks) {
      advp::data::SignDataset adv = h.sign_test();
      for (std::size_t i = 0; i < adv.scenes.size(); ++i) {
        advp::Rng rng(advp::Rng::stream_seed(opt_.seed * 31 + 7, i));
        Span s(a.span);
        adv.scenes[i].image = advp::defenses::attack_sign_scene(
            h.sign_test().scenes[i], a.kind, det, rng);
      }
      for (const auto& sc : adv.scenes) fold(sc.image);
      frames += static_cast<int>(adv.scenes.size());
      for (const Defense& def : defenses) {
        advp::eval::DetectionMetrics m;
        {
          Span s("eval.sign_score");
          m = h.evaluate_sign_task(det, adv, nullptr, defense_fn(def));
        }
        scored_scenes_ += static_cast<double>(adv.scenes.size());
        if (d) {
          d->f32(m.map50);
          d->f32(m.precision);
          d->f32(m.recall);
        }
      }
      end_block();
    }

    for (const bool cap : {false, true}) {
      // Attack each sequence once, in frame order (CAP carries its patch
      // from frame to frame); the scoring passes replay these frames.
      std::vector<std::vector<Image>> attacked;
      std::size_t seq_index = 0;
      for (const auto& seq : h.eval_sequences()) {
        attacked.emplace_back();
        advp::Rng rng(advp::Rng::stream_seed(opt_.seed * 31 + 11, seq_index++));
        advp::attacks::CapAttack cap_attack;
        for (const auto& f : seq) {
          if (cap) {
            Span s("attacks.cap_drive");
            const advp::attacks::GradOracle oracle =
                [&dist, this](const advp::Tensor& x) {
                  ++oracle_calls_;
                  dist.zero_grad();
                  auto g = dist.prediction_grad(x);
                  return advp::attacks::LossGrad{g.loss, std::move(g.grad)};
                };
            attacked.back().push_back(Image::from_batch(
                cap_attack.attack_frame(f.image.to_batch(), f.lead_box, oracle),
                0));
          } else {
            Span s("attacks.fgsm_drive");
            attacked.back().push_back(advp::defenses::attack_driving_frame(
                f, AttackKind::kFgsm, dist, rng));
          }
          fold(attacked.back().back());
          ++frames;
        }
      }
      const advp::eval::SequenceAttackFactory replay =
          [&attacked](std::size_t s) -> advp::eval::FrameAttack {
        auto next = std::make_shared<std::size_t>(0);
        return [&attacked, s, next](const advp::data::DrivingFrame&) {
          return attacked[s][(*next)++];
        };
      };
      for (const Defense& def : defenses) {
        advp::eval::Harness::DistanceEval ev;
        {
          Span s("eval.drive_score");
          ev = h.evaluate_distance_task(dist, replay, defense_fn(def));
        }
        scored_frames_ += static_cast<double>(h.drive_test().size());
        if (d) {
          d->f32s(ev.bin_means.data(), ev.bin_means.size());
          d->f32(ev.overall_mean_abs);
        }
      }
      end_block();
    }
    return frames;
  }

  Options opt_;
  WeightCache cache_;
  std::unique_ptr<advp::eval::Harness> harness_;
  std::string digest_;
  std::vector<std::vector<double>> block_s_;  ///< per block, per round
  int round_frames_ = 0;
  double rate_ = 0.0, measured_s_ = 0.0, frames_ = 0.0;
  double scored_scenes_ = 0.0, scored_frames_ = 0.0;
  /// Library-counted white-box oracle calls plus the CAP oracle's own.
  std::uint64_t oracle_calls_ = 0;
};

}  // namespace

std::unique_ptr<Part> make_tables(const Options& o, const WeightCache& c) {
  return std::make_unique<Tables>(o, c);
}

}  // namespace perfbench
