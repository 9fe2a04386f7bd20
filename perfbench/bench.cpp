#include "bench.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>

#include "core/check.h"
#include "eval/harness.h"
#include "models/zoo.h"
#include "parts.h"

namespace perfbench {

// ---- tracer ----------------------------------------------------------------

Tracer& Tracer::get() {
  static Tracer t;
  return t;
}

void Tracer::clear() {
  stack_.clear();
  stats_.clear();
  top_level_ms_ = 0.0;
}

void Tracer::open(const char* name) {
  stack_.push_back({name, Clock::now(), 0.0});
}

void Tracer::close() {
  const Open o = stack_.back();
  stack_.pop_back();
  const double ms =
      std::chrono::duration<double, std::milli>(Clock::now() - o.t0).count();
  Stat& s = stats_[o.name];
  ++s.calls;
  s.total_ms += ms;
  s.child_ms += o.child_ms;
  s.samples_ms.push_back(ms);
  if (stack_.empty())
    top_level_ms_ += ms;
  else
    stack_.back().child_ms += ms;
}

std::map<std::string, double> Tracer::layer_self_ms() const {
  std::map<std::string, double> out;
  for (const auto& [name, s] : stats_)
    out[name.substr(0, name.find('.'))] += s.total_ms - s.child_ms;
  return out;
}

const Tracer::Stat* Tracer::stat(const std::string& name) const {
  const auto it = stats_.find(name);
  return it == stats_.end() ? nullptr : &it->second;
}

// ---- counters --------------------------------------------------------------

Counters Counters::now() {
  Counters c;
  for (int i = 0; i < static_cast<int>(advp::obs::Counter::kCount); ++i)
    c.v[i] = advp::obs::counter_value(static_cast<advp::obs::Counter>(i));
  return c;
}

Counters Counters::operator-(const Counters& o) const {
  Counters d;
  for (int i = 0; i < static_cast<int>(advp::obs::Counter::kCount); ++i)
    d.v[i] = v[i] - o.v[i];
  return d;
}

// ---- statistics ------------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

// ---- weight cache ----------------------------------------------------------

namespace {

// Writes through a temporary name so an interrupted run never leaves a
// truncated artifact behind.
template <typename SaveFn>
void save_atomically(const std::string& path, SaveFn save) {
  const std::string tmp = path + ".tmp";
  save(tmp);
  std::filesystem::rename(tmp, path);
}

}  // namespace

void prepare_weights(const WeightCache& cache) {
  std::filesystem::create_directories(cache.dir);
  if (std::filesystem::exists(cache.detector_int8()) &&
      std::filesystem::exists(cache.distnet_int8()) &&
      std::filesystem::exists(cache.detector_fp32()) &&
      std::filesystem::exists(cache.distnet_fp32()))
    return;
  // Fixed training seed: the weights never depend on the workload seed.
  advp::eval::HarnessConfig hc;
  hc.cache_dir = cache.dir;
  hc.cache_tag = WeightCache::kHarnessTag;
  advp::eval::Harness h(hc);
  advp::models::TinyYolo& det = h.detector();
  advp::models::DistNet& dist = h.distnet();

  // int8 serve tenants need recorded activation ranges; calibrate copies
  // on training data so the fp32 base models stay as trained.
  advp::models::TinyYolo det8 = advp::models::clone_detector(det);
  std::vector<advp::Image> imgs;
  std::vector<advp::Tensor> det_batches, dist_batches;
  for (int b = 0; b < 4; ++b) {
    imgs.clear();
    for (int i = 0; i < 16; ++i)
      imgs.push_back(h.sign_train().scenes[static_cast<std::size_t>(b * 16 + i)].image);
    det_batches.push_back(advp::images_to_batch(imgs));
    imgs.clear();
    for (int i = 0; i < 16; ++i)
      imgs.push_back(h.drive_train().frames[static_cast<std::size_t>(b * 16 + i)].image);
    dist_batches.push_back(advp::images_to_batch(imgs));
  }
  det8.calibrate(det_batches);
  advp::models::DistNet dist8 = advp::models::clone_distnet(dist);
  dist8.calibrate(dist_batches);
  save_atomically(cache.detector_int8(), [&](const std::string& p) {
    advp::models::save_detector_advp(det8, p);
  });
  save_atomically(cache.distnet_int8(), [&](const std::string& p) {
    advp::models::save_distnet_advp(dist8, p);
  });
  for (const std::string& p : {cache.detector_fp32(), cache.distnet_fp32()})
    ADVP_CHECK_MSG(std::filesystem::exists(p),
                   "perfbench: harness did not write " << p);
}

}  // namespace perfbench
