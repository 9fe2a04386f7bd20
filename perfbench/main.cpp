// The repo benchmark: one process per workload.
//
//   perfbench --workload tables|serve|campaign --seed N --seconds S
//             --trace 0|1 [--cache DIR] [--source-id ID]
//             [--tiny] [--inject wrong|lost|diverge]
//
// Untraced runs (--trace 0) print every end-to-end metric; traced runs
// (--trace 1) print every per-layer metric. The last stdout line is one JSON
// object {"correct", "attempted", "failed", "metrics"}; the line before it
// records the run (host, build, seed, weight hashes, digests, per-part
// sent/succeeded/failed). The exit code is 1 when any operation failed and
// 2 on a usage error or a refused environment.
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <thread>

#include "core/parallel.h"
#include "parts.h"

extern char** environ;

namespace perfbench {
namespace {

int usage(const char* why) {
  std::fprintf(stderr, "perfbench: %s\n", why);
  return 2;
}

bool parse(int argc, char** argv, Options* o) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--tiny") {
      o->tiny = true;
    } else if (!has_value) {
      return false;
    } else if (a == "--workload") {
      o->workload = argv[++i];
    } else if (a == "--seed") {
      o->seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds") {
      o->seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace") {
      o->trace = std::string(argv[++i]) == "1";
    } else if (a == "--cache") {
      o->cache_dir = argv[++i];
    } else if (a == "--source-id") {
      o->source_id = argv[++i];
    } else if (a == "--inject") {
      o->inject = argv[++i];
    } else {
      return false;
    }
  }
  return o->workload == "tables" || o->workload == "serve" ||
         o->workload == "campaign";
}

// ADVP_* variables select library code paths (plan, tuner, pack cache,
// im2col, precision, threads, tracing). A run with any of them set would
// not measure what users get, so it is refused. The prefix match keeps the
// guard valid as switches are added or deleted. A traced run may set
// ADVP_TRACE to anything but "0" (which would disable its tracing).
std::string refused_env(bool trace) {
  for (char** e = environ; *e; ++e) {
    const std::string kv = *e;
    if (kv.rfind("ADVP_", 0) != 0) continue;
    const std::string key = kv.substr(0, kv.find('='));
    if (trace && key == "ADVP_TRACE" && kv != "ADVP_TRACE=0") continue;
    return key;
  }
  return "";
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("model name", 0) == 0)
      return line.substr(line.find(':') + 2);
  return "unknown";
}

double peak_rss_mb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  out += advp::obs::json_escape(s);
  out += '"';
  return out;
}

/// One JSON member: key and already-rendered value.
using Field = std::pair<std::string, std::string>;

std::string object(const std::vector<Field>& fields) {
  std::string out = "{";
  for (const Field& f : fields) {
    if (out.size() > 1) out += ", ";
    out += quoted(f.first);
    out += ": ";
    out += f.second;
  }
  out += "}";
  return out;
}

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// Counts per unit of work over a traced window, for the generic
// tensor/nn/core layers.
void counter_metrics(const Counters& d, double work, double arena_bytes,
                     Report& r) {
  using C = advp::obs::Counter;
  const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  const auto u = [&](C c) { return static_cast<double>(d[c]); };
  r.metric("tensor.gemm_flop_per_frame", ratio(u(C::kMatmulFlops), work), "flop");
  r.metric("tensor.pack_bytes_per_frame", ratio(u(C::kGemmPackBytes), work), "B");
  r.metric("tensor.pack_cache_hit_ratio",
           ratio(u(C::kPackCacheHits), u(C::kPackCacheHits) + u(C::kPackCacheMisses)),
           "ratio");
  r.metric("tensor.im2col_staged_bytes_per_frame",
           ratio(u(C::kIm2colBytesStaged), work), "B");
  r.metric("nn.plan_compiles_timed", u(C::kPlanCompiles), "count");
  r.metric("nn.plan_hit_ratio",
           ratio(u(C::kPlanCacheHits), u(C::kPlanCacheHits) + u(C::kPlanCompiles)),
           "ratio");
  r.metric("nn.plan_steady_allocs", u(C::kPlanSteadyAllocs), "count");
  r.metric("nn.plan_arena_mb", arena_bytes / (1024.0 * 1024.0), "MB");
  r.metric("core.dispatches_per_frame", ratio(u(C::kParallelDispatches), work),
           "count");
  r.metric("core.workers_per_dispatch",
           ratio(u(C::kParallelWorkers), u(C::kParallelDispatches)), "count");
  r.metric("core.scratch_grows", u(C::kScratchGrows), "count");
}

// Layers the benchmark's spans are named after; each gets a self time.
const char* const kLayers[] = {"data",    "image", "models", "attacks",
                               "defenses", "eval", "serve",  "sim"};

// Traced run: the primary part untraced and then traced (tracing overhead,
// digest equality), per-layer metrics for every part, model probes.
void traced_run(const Options& o, const WeightCache& cache, Part& primary,
                std::vector<Part*>& secondaries, Report& r) {
  Tracer& tracer = Tracer::get();
  // Takes the end-to-end metrics of the measurements below (not reported by
  // a traced run); their operation counts are merged into `r` at the end.
  Report scratch;

  advp::obs::enable(false);
  primary.measure(o.seconds, scratch);
  const double untraced = primary.headline();
  const std::string untraced_digest = primary.output_digest();

  advp::obs::enable(true);
  tracer.clear();
  tracer.set_on(true);
  primary.reset();
  const Counters c0 = Counters::now();
  const auto t0 = Clock::now();
  primary.measure(o.seconds, scratch);
  const double wall_ms = 1e3 * seconds_since(t0);
  const Counters window = Counters::now() - c0;
  const double traced = primary.headline();
  r.part("trace").add(primary.output_digest() == untraced_digest);

  const auto self = tracer.layer_self_ms();
  for (const char* layer : kLayers) {
    const auto it = self.find(layer);
    r.metric(std::string(layer) + ".self_ms", it == self.end() ? 0.0 : it->second,
             "ms");
  }
  r.metric("trace.span_coverage", tracer.top_level_ms() / wall_ms, "ratio");
  r.metric("trace.overhead_pct", 100.0 * (untraced / traced - 1.0), "%");
  counter_metrics(window, primary.work_units(),
                  static_cast<double>(advp::obs::counter_value(
                      advp::obs::Counter::kPlanArenaBytes)),
                  r);
  primary.layer_metrics(r);

  for (Part* p : secondaries) {
    tracer.clear();
    p->measure(o.tiny ? 0 : kSecondarySeconds, scratch);
    p->layer_metrics(r);
  }
  tracer.clear();
  model_probes(o, cache, r);
  tracer.set_on(false);
  for (const auto& [name, c] : scratch.ops) {
    r.part(name).sent += c.sent;
    r.part(name).failed += c.failed;
  }
}

int run(const Options& o) {
  const WeightCache cache{o.cache_dir};
  prepare_weights(cache);  // trains once per cache; never timed

  // Parts are measured in this order on every workload. The throughput
  // parts run back to back and serve, whose light phase leaves the vCPUs
  // mostly idle, comes last.
  std::unique_ptr<Part> tables = make_tables(o, cache);
  std::unique_ptr<Part> campaign = make_campaign(o, cache);
  std::unique_ptr<Part> serve = make_serve(o, cache);
  std::vector<Part*> parts = {tables.get(), campaign.get(), serve.get()};
  Part* primary = nullptr;
  std::vector<Part*> secondaries;
  for (Part* p : parts) {
    if (o.workload == p->name())
      primary = p;
    else
      secondaries.push_back(p);
  }

  Report r;
  // In a traced run counters run from the start, so plan compiles and
  // arena sizes made during set-up are counted.
  advp::obs::enable(o.trace);
  std::vector<double> setup_s;
  for (int rep = 0; rep < (o.tiny ? 1 : 3); ++rep) {
    const auto t0 = Clock::now();
    for (Part* p : parts) p->setup();
    setup_s.push_back(seconds_since(t0));
  }
  for (Part* p : parts) p->warm();

  if (o.trace) {
    traced_run(o, cache, *primary, secondaries, r);
  } else {
    for (int k = 1; k <= kSlices; ++k)
      for (Part* p : parts)
        p->measure((p == primary ? o.seconds : o.tiny ? 0 : kSecondarySeconds) *
                       k / kSlices,
                   r);
    r.metric("setup_s", median(setup_s), "s");
  }
  for (Part* p : parts) p->check(r);
  if (!o.trace) r.metric("peak_rss_mb", peak_rss_mb(), "MB");

  // ---- record and result ----
  std::vector<Field> weights, digests, ops, metrics;
  for (Part* p : parts) {
    weights.push_back({p->name(), quoted(p->weight_hashes())});
    digests.push_back({p->name(), object({{"input", quoted(p->input_digest())},
                                          {"output", quoted(p->output_digest())}})});
  }
  std::uint64_t attempted = 0, failed = 0;
  for (const auto& [name, c] : r.ops) {
    ops.push_back({name, object({{"sent", std::to_string(c.sent)},
                                 {"succeeded", std::to_string(c.sent - c.failed)},
                                 {"failed", std::to_string(c.failed)}})});
    attempted += c.sent;
    failed += c.failed;
  }
  const std::string rec = object({{"perfbench", object({
      {"workload", quoted(o.workload)},
      {"seed", std::to_string(o.seed)},
      {"seconds", num(o.seconds)},
      {"trace", o.trace ? "1" : "0"},
      {"cpu", quoted(cpu_model())},
      {"nproc", std::to_string(std::thread::hardware_concurrency())},
      {"max_workers", std::to_string(advp::max_workers())},
      {"cxx_flags", quoted(PERFBENCH_CXX_FLAGS)},
      {"source", quoted(o.source_id)},
      {"weights", object(weights)},
      {"digests", object(digests)},
      {"ops", object(ops)}})}});

  // Untraced runs report the end-to-end metrics (names without a dot);
  // traced runs the per-layer ones (dotted "<layer>.<what>" names).
  for (const auto& [name, vu] : r.metrics) {
    if ((name.find('.') != std::string::npos) != o.trace) continue;
    std::printf("%-44s %16.6f %s\n", name.c_str(), vu.first, vu.second.c_str());
    metrics.push_back({name, object({{"value", num(vu.first)},
                                     {"unit", quoted(vu.second)}})});
  }
  for (const auto& [name, c] : r.ops)
    std::printf("ops %-40s sent %llu succeeded %llu failed %llu\n", name.c_str(),
                static_cast<unsigned long long>(c.sent),
                static_cast<unsigned long long>(c.sent - c.failed),
                static_cast<unsigned long long>(c.failed));
  std::printf("%s\n", rec.c_str());
  std::printf("%s\n", object({{"correct", failed == 0 ? "true" : "false"},
                              {"attempted", std::to_string(attempted)},
                              {"failed", std::to_string(failed)},
                              {"metrics", object(metrics)}})
                          .c_str());
  std::fflush(stdout);
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options o;
  if (!perfbench::parse(argc, argv, &o))
    return perfbench::usage(
        "usage: perfbench --workload tables|serve|campaign --seed N "
        "--seconds S --trace 0|1 [--cache DIR] [--source-id ID] [--tiny] "
        "[--inject wrong|lost|diverge]");
  const std::string env = perfbench::refused_env(o.trace);
  if (!env.empty())
    return perfbench::usage(("refusing to run with " + env +
                             " set: ADVP_* variables select library code paths")
                                .c_str());
  try {
    return perfbench::run(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 3;
  }
}
