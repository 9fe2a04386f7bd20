// The three parts of the repo benchmark. Every run sets up and measures all
// three (each end-to-end metric must be present on every workload); the
// run's workload picks the primary part, which is measured for the full
// --seconds, while the other two get kSecondarySeconds each. Measuring is
// interleaved in kSlices slices, so a slow spell of the shared host lands
// on a few rounds of every part rather than on all rounds of one.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "bench.h"

namespace perfbench {

/// Measurement length of the non-primary parts of a run.
inline constexpr double kSecondarySeconds = 6.0;
/// Slices the measurement of each part is spread over.
inline constexpr int kSlices = 4;

/// Weight artifacts in the benchmark's own cache directory. Training runs
/// once per cache (never inside a timed window); every later run loads the
/// warm `.advp` files.
struct WeightCache {
  std::string dir;
  /// Cache key the eval::Harness stores its base models under.
  static constexpr const char* kHarnessTag = "perfbench_v1";
  std::string detector_int8() const { return dir + "/serve_detector_int8.advp"; }
  std::string distnet_int8() const { return dir + "/serve_distnet_int8.advp"; }
  std::string detector_fp32() const {
    return dir + "/base_detector_" + kHarnessTag + ".advp";
  }
  std::string distnet_fp32() const {
    return dir + "/base_distnet_" + kHarnessTag + ".advp";
  }
};

/// Trains and calibrates the cached models unless they are present.
void prepare_weights(const WeightCache& cache);

class Part {
 public:
  virtual ~Part() = default;
  virtual const char* name() const = 0;
  /// Builds everything the part measures (model load, input generation,
  /// plan compile, server start). Called several times; each call replaces
  /// the previous state, so set-up time is a median.
  virtual void setup() = 0;
  /// One untimed round so caches fill and lazy set-up finishes.
  virtual void warm() = 0;
  /// Measures rounds until the part's measuring time since reset() reaches
  /// `seconds` (at least one round in all), then records its end-to-end
  /// metrics over every round since reset() into `r`.
  virtual void measure(double seconds, Report& r) = 0;
  /// Drops the rounds measured so far.
  virtual void reset() = 0;
  /// Correctness checks beyond those made while measuring.
  virtual void check(Report&) {}
  /// The part's headline throughput (higher is better) over the rounds
  /// since reset(); the tracing-overhead figure compares it.
  virtual double headline() const = 0;
  /// Units of work processed since reset() (frames, requests or control
  /// steps), the denominator of per-frame layer counts.
  virtual double work_units() const = 0;
  /// Part-specific per-layer metrics over the (traced) rounds since reset().
  virtual void layer_metrics(Report& r) = 0;
  /// Digest of the part's outputs in its first measured round.
  virtual std::string output_digest() const = 0;
  /// Digest of the generated inputs.
  virtual std::string input_digest() const = 0;
  /// Content hashes of the weights the part runs, "name=hex" joined.
  virtual std::string weight_hashes() const = 0;
};

std::unique_ptr<Part> make_tables(const Options& o, const WeightCache& c);
std::unique_ptr<Part> make_serve(const Options& o, const WeightCache& c);
std::unique_ptr<Part> make_campaign(const Options& o, const WeightCache& c);

/// Per-layer model timings (models.*_ms) plus GEMM throughput of the probe
/// the `workload` names; traced runs only.
void model_probes(const Options& o, const WeightCache& c, Report& r);

}  // namespace perfbench
