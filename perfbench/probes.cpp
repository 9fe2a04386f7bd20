// Per-layer model timings for the traced run: the model calls each
// workload makes, at fp32/int8, batch 1/8 and 1/4 workers, each the median
// of repeated calls on rendered inputs after a warm-up.
#include <functional>

#include "core/parallel.h"
#include "data/dataset.h"
#include "image/image.h"
#include "models/zoo.h"
#include "nn/precision.h"
#include "parts.h"

namespace perfbench {

namespace {

struct Probe {
  double ms = 0.0;        ///< median per call
  double gflops = 0.0;    ///< GEMM flops / time over the timed calls
};

Probe run_probe(std::size_t workers, int reps, const std::function<void()>& call) {
  advp::ScopedMaxWorkers w(workers);
  for (int i = 0; i < 3; ++i) call();
  std::vector<double> ms;
  const Counters c0 = Counters::now();
  double total_s = 0.0;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    call();
    const double s = seconds_since(t0);
    total_s += s;
    ms.push_back(1e3 * s);
  }
  const Counters d = Counters::now() - c0;
  return {median(ms),
          static_cast<double>(d[advp::obs::Counter::kMatmulFlops]) / total_s / 1e9};
}

}  // namespace

void model_probes(const Options& o, const WeightCache& c, Report& r) {
  using advp::GemmPrecision;
  const int reps = o.tiny ? 3 : 40;
  const std::size_t nw = 4;  // the "_w4" probes
  auto dist32 = advp::models::make_distnet_from_advp(c.distnet_fp32());
  auto det32 = advp::models::make_detector_from_advp(c.detector_fp32());
  auto dist8 = advp::models::make_distnet_from_advp(c.distnet_int8());
  auto det8 = advp::models::make_detector_from_advp(c.detector_int8());

  std::vector<advp::Image> drive, sign;
  std::vector<std::vector<advp::Box>> boxes;
  for (const auto& f :
       advp::data::DrivingSceneGenerator().generate_frames(8, o.seed * 7 + 3))
    drive.push_back(f.image);
  for (const auto& s : advp::data::make_sign_dataset(8, o.seed * 7 + 4).scenes) {
    sign.push_back(s.image);
    boxes.push_back(s.stop_signs);
  }
  const advp::Tensor drive1 = drive[0].to_batch(), drive8 = advp::images_to_batch(drive);
  const advp::Tensor sign1 = sign[0].to_batch(), sign8 = advp::images_to_batch(sign);

  std::map<std::string, Probe> p;
  p["distnet_predict_fp32_b1_w1"] = run_probe(1, reps, [&] { dist32->predict(drive1); });
  p["distnet_predict_fp32_b1_w4"] = run_probe(nw, reps, [&] { dist32->predict(drive1); });
  p["distnet_predict_fp32_b8_w4"] = run_probe(nw, reps, [&] { dist32->predict(drive8); });
  p["yolo_detect_fp32_b1_w1"] = run_probe(1, reps, [&] { det32->detect(sign1); });
  p["distnet_grad_fp32_b1_w1"] = run_probe(1, reps, [&] {
    dist32->zero_grad();
    dist32->prediction_grad(drive1);
  });
  p["yolo_grad_fp32_b1_w1"] = run_probe(1, reps, [&] {
    det32->zero_grad();
    det32->loss_backward(sign1, {boxes[0]}, /*train=*/false);
  });
  {
    advp::nn::ThreadPrecisionScope scope(GemmPrecision::kInt8);
    p["distnet_predict_int8_b1_w4"] = run_probe(nw, reps, [&] { dist8->predict(drive1); });
    p["distnet_predict_int8_b8_w4"] = run_probe(nw, reps, [&] { dist8->predict(drive8); });
    p["yolo_detect_int8_b1_w4"] = run_probe(nw, reps, [&] { det8->detect(sign1); });
    p["yolo_detect_int8_b8_w4"] = run_probe(nw, reps, [&] { det8->detect(sign8); });
  }
  for (const auto& [name, probe] : p) r.metric("models." + name + "_ms", probe.ms, "ms");

  // GEMM rate of the forward each workload leans on.
  const char* gemm_probe = o.workload == "tables"  ? "yolo_detect_fp32_b1_w1"
                           : o.workload == "serve" ? "yolo_detect_int8_b1_w4"
                                                   : "distnet_predict_fp32_b8_w4";
  r.metric("tensor.gemm_gflops", p[gemm_probe].gflops, "GFLOP/s");
}

}  // namespace perfbench
