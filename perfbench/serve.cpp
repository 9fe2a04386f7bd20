// `serve`: an open loop into one serve::BatchServer with two int8 tenants
// loaded from `.advp` artifacts (TinyYolo detect, DistNet predict). One
// seeded Poisson generator thread sends requests alternately to the two
// tenants at fixed absolute rates in three phases (light, heavy, overload).
// Frames are a pool of rendered sign and driving scenes, so decode/NMS work
// is realistic. Latency runs from each request's scheduled send time.
#include <condition_variable>
#include <cmath>
#include <future>
#include <limits>
#include <memory>
#include <mutex>
#include <thread>

#include "data/dataset.h"
#include "models/zoo.h"
#include "nn/precision.h"
#include "nn/serialize.h"
#include "parts.h"
#include "serve/serve.h"

namespace perfbench {
namespace {

using advp::models::Detection;

// Absolute phase rates (requests/s, both tenants together). They are
// constants so every commit is offered the same load. Measured on a 4-core
// Xeon VM (gcc 12, Release) at the commit that introduced this benchmark,
// where the overload phase completed a median of about 2000 requests/s:
//  - light: mean coalesced batch about 1.02 (at most 1.5);
//  - heavy: about 70% of that overload throughput;
//  - overload: more than twice what the server can complete.
struct Phase {
  const char* name;
  double rps;
  int requests;  ///< per cycle
};
constexpr Phase kPhases[] = {
    {"light", 400.0, 500}, {"heavy", 1400.0, 500}, {"overload", 4500.0, 800}};
// Overload throughput is taken per cycle and reported as its median over
// the cycles run (at least one per measuring slice); it is the end-to-end
// metric. Latencies at the
// fixed rates are reported per layer only: on that VM a host slowdown that
// cost throughput 40% raised light-phase p50 4x (idle vCPUs wake slowly),
// and over ten seeds the p50 spread reached 0.67 of the median and the p99
// spread 0.6-2.2, beyond any regression bound. p50 is the median over
// cycles of per-cycle p50; p99 is pooled over all cycles (>= 2000 samples,
// so >= 20 beyond it).
constexpr int kTinyRequests = 40;
constexpr int kPool = 32;  ///< rendered frames per tenant
constexpr double kLostAfterS = 30.0;
const advp::serve::ServeConfig kServeConfig{/*max_batch_size=*/8,
                                            /*max_wait_us=*/200,
                                            /*workers=*/2};

bool same_detections(const std::vector<Detection>& a,
                     const std::vector<Detection>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i].score != b[i].score || a[i].box.x != b[i].box.x ||
        a[i].box.y != b[i].box.y || a[i].box.w != b[i].box.w ||
        a[i].box.h != b[i].box.h)
      return false;
  return true;
}

/// Futures of one tenant in submission order, handed from the generator
/// thread to that tenant's collector thread.
template <typename T>
struct FutureQueue {
  std::mutex mu;
  std::condition_variable cv;
  std::vector<std::future<T>> futures;  // guarded by mu
  std::vector<int> request;             // guarded by mu: index into phase

  void push(std::future<T> f, int req) {
    {
      std::lock_guard<std::mutex> lk(mu);
      futures.push_back(std::move(f));
      request.push_back(req);
    }
    cv.notify_one();
  }
  // Blocks until item k is published; returns its future and request index.
  std::pair<std::future<T>, int> take(std::size_t k) {
    std::unique_lock<std::mutex> lk(mu);
    cv.wait(lk, [&] { return futures.size() > k; });
    return {std::move(futures[k]), request[k]};
  }
};

struct PhaseResult {
  std::vector<double> latency_ms;  ///< per request; +inf when failed/lost
  std::vector<double> gen_lag_ms;
  double completed_rps = 0.0;
  advp::serve::ServeStats stats;  ///< server counters over the phase
};

class Serve final : public Part {
 public:
  Serve(const Options& o, const WeightCache& c) : opt_(o), cache_(c) {}
  const char* name() const override { return "serve"; }

  void setup() override {
    server_.reset();
    registry_ = std::make_unique<advp::serve::ModelRegistry>();
    registry_->add_detector_advp("det", cache_.detector_int8(),
                                 advp::GemmPrecision::kInt8);
    registry_->add_distnet_advp("dist", cache_.distnet_int8(),
                                advp::GemmPrecision::kInt8);
    det_frames_.clear();
    dist_frames_.clear();
    for (const auto& s : advp::data::make_sign_dataset(kPool, opt_.seed * 7 + 1).scenes)
      det_frames_.push_back(s.image.to_batch());
    for (const auto& f : advp::data::DrivingSceneGenerator().generate_frames(
             kPool, opt_.seed * 7 + 2))
      dist_frames_.push_back(f.image.to_batch());
    server_ = std::make_unique<advp::serve::BatchServer>(*registry_, kServeConfig);
  }

  void warm() override {
    for (int i = 0; i < 16; ++i) {
      server_->submit_detect("det", det_frames_[i % kPool]).get();
      server_->submit_predict("dist", dist_frames_[i % kPool]).get();
    }
    reference();
  }

  void measure(double seconds, Report& r) override {
    do {
      const auto t0 = Clock::now();
      for (std::size_t p = 0; p < std::size(kPhases); ++p) {
        PhaseResult pr = run_phase(p, cycle_, r, cycle_ == 0 ? &digest_ : nullptr);
        p50_[p].push_back(percentile(pr.latency_ms, 0.50));
        PhaseResult& acc = pooled_[p];
        acc.latency_ms.insert(acc.latency_ms.end(), pr.latency_ms.begin(),
                              pr.latency_ms.end());
        acc.gen_lag_ms.insert(acc.gen_lag_ms.end(), pr.gen_lag_ms.begin(),
                              pr.gen_lag_ms.end());
        acc.stats.batches += pr.stats.batches;
        acc.stats.batch_items += pr.stats.batch_items;
        acc.stats.full_batches += pr.stats.full_batches;
        if (p == 2) overload_rps_.push_back(pr.completed_rps);
        requests_ += static_cast<double>(pr.latency_ms.size());
      }
      measured_s_ += seconds_since(t0);
      ++cycle_;
    } while (measured_s_ < seconds);
    r.metric("serve_overload_rps", headline(), "req/s");
  }

  // Restarts the cycle count too, so the next rounds replay the same
  // seeded schedules (and so the same output digest).
  void reset() override {
    pooled_.assign(std::size(kPhases), PhaseResult{});
    for (auto& v : p50_) v.clear();
    overload_rps_.clear();
    measured_s_ = requests_ = 0.0;
    cycle_ = 0;
  }

  double headline() const override { return median(overload_rps_); }
  double work_units() const override { return requests_; }

  void layer_metrics(Report& r) override {
    for (std::size_t p = 0; p < std::size(kPhases); ++p) {
      const PhaseResult& pr = pooled_[p];
      const std::string n = std::string("serve.") + kPhases[p].name;
      r.metric(n + ".coalesce", pr.stats.coalesce_ratio(), "items/batch");
      r.metric(n + ".full_batch_share",
               pr.stats.batches ? static_cast<double>(pr.stats.full_batches) /
                                      static_cast<double>(pr.stats.batches)
                                : 0.0,
               "ratio");
      r.metric(n + ".gen_lag_p99_ms", percentile(pr.gen_lag_ms, 0.99), "ms");
      if (p < 2) {
        r.metric(n + ".p50_ms", median(p50_[p]), "ms");
        r.metric(n + ".p99_ms", percentile(pr.latency_ms, 0.99), "ms");
      }
    }
    const Tracer::Stat* submit = Tracer::get().stat("serve.submit");
    r.metric("serve.submit_us", submit ? 1e3 * median(submit->samples_ms) : 0.0,
             "us");
  }

  std::string output_digest() const override { return digest_; }

  std::string input_digest() const override {
    Digest d;
    for (const auto& f : det_frames_) d.f32s(f.data(), f.numel());
    for (const auto& f : dist_frames_) d.f32s(f.data(), f.numel());
    return d.hex();
  }

  std::string weight_hashes() const override {
    advp::nn::AdvpInfo a, b;
    advp::nn::read_advp_info(cache_.detector_int8(), &a);
    advp::nn::read_advp_info(cache_.distnet_int8(), &b);
    char buf[96];
    std::snprintf(buf, sizeof buf, "detector_int8=%016llx distnet_int8=%016llx",
                  static_cast<unsigned long long>(a.content_hash),
                  static_cast<unsigned long long>(b.content_hash));
    return buf;
  }

 private:
  // Serial per-frame outputs at the tenants' tier: the bit-identity oracle
  // every served response is compared against.
  void reference() {
    auto det = advp::models::make_detector_from_advp(cache_.detector_int8());
    auto dist = advp::models::make_distnet_from_advp(cache_.distnet_int8());
    advp::nn::ThreadPrecisionScope scope(advp::GemmPrecision::kInt8);
    det_ref_.clear();
    dist_ref_.clear();
    for (const auto& f : det_frames_) det_ref_.push_back(det->detect(f)[0]);
    for (const auto& f : dist_frames_) dist_ref_.push_back(dist->predict(f)[0]);
  }

  PhaseResult run_phase(std::size_t phase, int cycle, Report& r,
                        std::string* digest) {
    const Phase& ph = kPhases[phase];
    const int n = opt_.tiny ? kTinyRequests : ph.requests;
    // Seeded schedule: exponential gaps, frames drawn from the pool.
    advp::Rng rng(advp::Rng::stream_seed(opt_.seed, 1000 + cycle * 10 + phase));
    std::vector<double> sched_s(static_cast<std::size_t>(n));
    std::vector<int> frame(static_cast<std::size_t>(n));
    double t = 0.0;
    for (int i = 0; i < n; ++i) {
      t += -std::log(1.0 - rng.uniform()) / ph.rps;
      sched_s[static_cast<std::size_t>(i)] = t;
      frame[static_cast<std::size_t>(i)] = static_cast<int>(rng.index(kPool));
    }

    PhaseResult res;
    res.latency_ms.assign(static_cast<std::size_t>(n),
                          std::numeric_limits<double>::infinity());
    res.gen_lag_ms.resize(static_cast<std::size_t>(n));
    std::vector<Clock::time_point> done(static_cast<std::size_t>(n));
    std::vector<std::vector<Detection>> det_out(static_cast<std::size_t>(n));
    std::vector<float> dist_out(static_cast<std::size_t>(n), 0.f);
    std::vector<char> ok(static_cast<std::size_t>(n), 0);
    FutureQueue<std::vector<Detection>> det_q;
    FutureQueue<float> dist_q;
    const int n_det = (n + 1) / 2, n_dist = n / 2;  // even requests -> det

    // One collector per tenant: a tenant completes its batches one at a
    // time in FIFO order, so waiting on its futures in submission order
    // stamps each completion when it happens.
    auto collect = [&](auto& q, int count, auto store) {
      for (int k = 0; k < count; ++k) {
        auto [fut, req] = q.take(static_cast<std::size_t>(k));
        const auto i = static_cast<std::size_t>(req);
        if (!fut.valid() ||
            fut.wait_for(std::chrono::duration<double>(kLostAfterS)) !=
                std::future_status::ready)
          continue;  // lost: latency stays +inf, ok stays 0
        try {
          store(i, fut.get());
          done[i] = Clock::now();
          ok[i] = 1;
        } catch (const std::exception&) {
        }
      }
    };
    const advp::serve::ServeStats s0 = server_->stats();
    const auto start = Clock::now();
    std::thread det_c([&] {
      collect(det_q, n_det, [&](std::size_t i, std::vector<Detection> v) {
        det_out[i] = std::move(v);
      });
    });
    std::thread dist_c([&] {
      collect(dist_q, n_dist, [&](std::size_t i, float v) { dist_out[i] = v; });
    });
    for (int i = 0; i < n; ++i) {
      const auto ui = static_cast<std::size_t>(i);
      const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(sched_s[ui]));
      std::this_thread::sleep_until(due);
      const auto t_send = Clock::now();
      res.gen_lag_ms[ui] =
          std::chrono::duration<double, std::milli>(t_send - due).count();
      const bool drop = opt_.inject == "lost" && phase == 0 && cycle == 0 && i == 2;
      if (i % 2 == 0) {
        std::future<std::vector<Detection>> f;
        try {
          Span s("serve.submit");
          f = server_->submit_detect("det", det_frames_[static_cast<std::size_t>(frame[ui])]);
        } catch (const std::exception&) {
          // A refused request leaves f invalid: counted as failed.
        }
        det_q.push(drop ? std::future<std::vector<Detection>>() : std::move(f), i);
      } else {
        std::future<float> f;
        try {
          Span s("serve.submit");
          f = server_->submit_predict("dist", dist_frames_[static_cast<std::size_t>(frame[ui])]);
        } catch (const std::exception&) {
        }
        dist_q.push(std::move(f), i);
      }
    }
    det_c.join();
    dist_c.join();
    const advp::serve::ServeStats s1 = server_->stats();
    res.stats.batches = s1.batches - s0.batches;
    res.stats.batch_items = s1.batch_items - s0.batch_items;
    res.stats.full_batches = s1.full_batches - s0.full_batches;

    if (opt_.inject == "wrong" && phase == 0 && cycle == 0) dist_out[1] += 1.f;
    Clock::time_point last = start;
    int completed = 0;
    Digest out;
    OpCount& ops = r.part("serve");
    for (int i = 0; i < n; ++i) {
      const auto ui = static_cast<std::size_t>(i);
      const auto f = static_cast<std::size_t>(frame[ui]);
      bool good = ok[ui] != 0;
      if (good)
        good = i % 2 == 0 ? same_detections(det_out[ui], det_ref_[f])
                          : dist_out[ui] == dist_ref_[f];
      ops.add(good);
      if (ok[ui]) {
        ++completed;
        if (done[ui] > last) last = done[ui];
      }
      if (!good) continue;  // a failed request misses every latency limit
      const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(sched_s[ui]));
      res.latency_ms[ui] =
          std::chrono::duration<double, std::milli>(done[ui] - due).count();
      if (i % 2 == 0) {
        for (const Detection& det : det_out[ui]) {
          out.f32(det.score);
          out.f32(det.box.x);
          out.f32(det.box.y);
          out.f32(det.box.w);
          out.f32(det.box.h);
        }
      } else {
        out.f32(dist_out[ui]);
      }
    }
    if (digest) *digest = out.hex();
    res.completed_rps =
        completed / std::chrono::duration<double>(last - start).count();
    return res;
  }

  Options opt_;
  WeightCache cache_;
  std::unique_ptr<advp::serve::ModelRegistry> registry_;
  std::unique_ptr<advp::serve::BatchServer> server_;  // after registry_
  std::vector<advp::Tensor> det_frames_, dist_frames_;
  std::vector<std::vector<Detection>> det_ref_;
  std::vector<float> dist_ref_;
  // Rounds since reset(): per-phase pooled latencies and counters,
  // per-cycle p50s and overload throughputs.
  std::vector<PhaseResult> pooled_ = std::vector<PhaseResult>(std::size(kPhases));
  std::vector<double> p50_[std::size(kPhases)];
  std::vector<double> overload_rps_;
  int cycle_ = 0;
  std::string digest_;
  double measured_s_ = 0.0, requests_ = 0.0;
};

}  // namespace

std::unique_ptr<Part> make_serve(const Options& o, const WeightCache& c) {
  return std::make_unique<Serve>(o, c);
}

}  // namespace perfbench
