// Shared plumbing for the repo benchmark: run options, the metric/operation
// report, a span tracer that times calls into library layers from the
// benchmark's own code, and small statistics and hashing helpers.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/obs.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Command-line options of one benchmark process.
struct Options {
  std::string workload;          ///< "tables" | "serve" | "campaign"
  std::uint64_t seed = 1;        ///< workload seed; every input derives from it
  double seconds = 10.0;         ///< measurement length of the primary part
  bool trace = false;            ///< per-layer (traced) run
  bool tiny = false;             ///< self-test sizes
  std::string inject;            ///< self-test fault: wrong | lost | diverge
  std::string cache_dir = ".bench_build/perfbench_cache";
  std::string source_id = "unavailable";  ///< git SHA or source digest
};

/// Sent/succeeded/failed accounting of one part of the run.
struct OpCount {
  std::uint64_t sent = 0, failed = 0;
  void add(bool ok) {
    ++sent;
    if (!ok) ++failed;
  }
};

/// Metrics with units and per-part operation counts of one run.
struct Report {
  std::map<std::string, std::pair<double, std::string>> metrics;
  std::map<std::string, OpCount> ops;

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  OpCount& part(const std::string& name) { return ops[name]; }
};

// ---- tracing ---------------------------------------------------------------

/// Times calls into library layers. A span's name is "<layer>.<what>";
/// nested spans on the calling thread are subtracted from their parent to
/// give self time. Disabled (no clock reads) unless the run is traced.
class Tracer {
 public:
  struct Stat {
    std::uint64_t calls = 0;
    double total_ms = 0.0, child_ms = 0.0;
    std::vector<double> samples_ms;  ///< per call, for medians
  };

  static Tracer& get();

  bool on() const { return on_; }
  void set_on(bool on) { on_ = on; }
  /// Drops all recorded spans (between untraced and traced passes).
  void clear();

  void open(const char* name);
  void close();

  /// Self time per layer (the span name up to its first '.').
  std::map<std::string, double> layer_self_ms() const;
  /// Summed duration of spans opened with no enclosing span.
  double top_level_ms() const { return top_level_ms_; }
  const Stat* stat(const std::string& name) const;

 private:
  struct Open {
    const char* name;
    Clock::time_point t0;
    double child_ms;
  };
  bool on_ = false;
  std::vector<Open> stack_;
  std::map<std::string, Stat> stats_;
  double top_level_ms_ = 0.0;
};

/// RAII span; records nothing when the tracer is off. Main thread only.
class Span {
 public:
  explicit Span(const char* name) : active_(Tracer::get().on()) {
    if (active_) Tracer::get().open(name);
  }
  ~Span() {
    if (active_) Tracer::get().close();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool active_;
};

/// Snapshot of the library's obs counters; differences give per-window
/// counts.
struct Counters {
  std::uint64_t v[static_cast<int>(advp::obs::Counter::kCount)] = {};
  static Counters now();
  std::uint64_t operator[](advp::obs::Counter c) const {
    return v[static_cast<int>(c)];
  }
  Counters operator-(const Counters& o) const;
};

// ---- statistics ------------------------------------------------------------

double median(std::vector<double> v);
/// Nearest-rank percentile of `v` (q in [0,1]); 0 for an empty vector.
double percentile(std::vector<double> v, double q);

// ---- hashing ---------------------------------------------------------------

/// FNV-1a accumulator for output and input digests.
struct Digest {
  std::uint64_t h = 1469598103934665603ull;
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 1099511628211ull;
    }
  }
  void f32(float x) { bytes(&x, sizeof x); }
  void f32s(const float* p, std::size_t n) { bytes(p, n * sizeof(float)); }
  void str(const std::string& s) { bytes(s.data(), s.size()); }
  std::string hex() const;
};

}  // namespace perfbench
