#include "core/obs.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <unordered_map>

#include "core/parallel.h"

namespace advp::obs {

namespace detail {
std::atomic<bool> g_enabled{false};
}  // namespace detail

namespace {

enum class EnvMode { kDefault, kForceOff, kOn };

struct EnvTrace {
  EnvMode mode = EnvMode::kDefault;
  std::string path;  // non-empty for ADVP_TRACE=<path>
};

const EnvTrace& env_trace() {
  static const EnvTrace t = [] {
    EnvTrace out;
    const char* env = std::getenv("ADVP_TRACE");
    if (!env || !*env) return out;
    const std::string v(env);
    if (v == "0" || v == "false" || v == "off") {
      out.mode = EnvMode::kForceOff;
    } else if (v == "1" || v == "true" || v == "on") {
      out.mode = EnvMode::kOn;
    } else {
      out.mode = EnvMode::kOn;
      out.path = v;
    }
    return out;
  }();
  return t;
}

// Applies the environment's initial state once, at first use of the layer
// (dynamic init of this TU also calls it, covering processes that never
// call enable()).
struct EnvInit {
  EnvInit() {
    if (env_trace().mode == EnvMode::kOn)
      detail::g_enabled.store(true, std::memory_order_relaxed);
  }
};
EnvInit g_env_init;

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct SpanAccum {
  std::uint64_t calls = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t min_ns = 0;
  std::uint64_t max_ns = 0;
};

struct Registry {
  std::mutex m;
  std::unordered_map<std::string, SpanAccum> spans;
};

Registry& registry() {
  static Registry r;
  return r;
}

std::atomic<std::uint64_t> g_counters[static_cast<int>(Counter::kCount)];

struct ArtifactRegistry {
  std::mutex m;
  std::vector<ModelArtifact> items;  // first-observation order
};

ArtifactRegistry& artifact_registry() {
  static ArtifactRegistry r;
  return r;
}

struct PlanRegistry {
  std::mutex m;
  std::vector<PlanRecord> items;  // first-observation order
};

PlanRegistry& plan_registry() {
  static PlanRegistry r;
  return r;
}

struct CampaignRegistry {
  std::mutex m;
  std::vector<CampaignRecord> items;  // execution order
};

CampaignRegistry& campaign_registry() {
  static CampaignRegistry r;
  return r;
}

// Thread-local '/'-joined stack of open span names.
thread_local std::string tl_path;

void record_span(const std::string& path, std::uint64_t dur_ns) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lk(r.m);
  SpanAccum& a = r.spans[path];
  if (a.calls == 0) {
    a.min_ns = a.max_ns = dur_ns;
  } else {
    a.min_ns = std::min(a.min_ns, dur_ns);
    a.max_ns = std::max(a.max_ns, dur_ns);
  }
  ++a.calls;
  a.total_ns += dur_ns;
}

}  // namespace

void enable(bool on) {
  if (on && env_trace().mode == EnvMode::kForceOff) return;
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

bool trace_disabled() { return env_trace().mode == EnvMode::kForceOff; }

std::string trace_path() { return env_trace().path; }

void reset() {
  {
    Registry& r = registry();
    std::lock_guard<std::mutex> lk(r.m);
    r.spans.clear();
  }
  {
    ArtifactRegistry& r = artifact_registry();
    std::lock_guard<std::mutex> lk(r.m);
    r.items.clear();
  }
  {
    PlanRegistry& r = plan_registry();
    std::lock_guard<std::mutex> lk(r.m);
    r.items.clear();
  }
  {
    CampaignRegistry& r = campaign_registry();
    std::lock_guard<std::mutex> lk(r.m);
    r.items.clear();
  }
  for (auto& c : g_counters) c.store(0, std::memory_order_relaxed);
}

const char* counter_name(Counter c) {
  switch (c) {
    case Counter::kMatmulFlops: return "matmul_flops";
    case Counter::kConv2dFlops: return "conv2d_flops";
    case Counter::kImagesProcessed: return "images_processed";
    case Counter::kAttackIterations: return "attack_iterations";
    case Counter::kCacheHits: return "cache_hits";
    case Counter::kCacheMisses: return "cache_misses";
    case Counter::kTrainEpochs: return "train_epochs";
    case Counter::kParallelDispatches: return "parallel_dispatches";
    case Counter::kParallelChunks: return "parallel_chunks";
    case Counter::kParallelWorkers: return "parallel_workers_engaged";
    case Counter::kGemmPackBytes: return "gemm_pack_bytes";
    case Counter::kScratchHits: return "scratch_hits";
    case Counter::kScratchGrows: return "scratch_grows";
    case Counter::kPackCacheHits: return "pack_cache_hits";
    case Counter::kPackCacheMisses: return "pack_cache_misses";
    case Counter::kServeRequests: return "serve_requests";
    case Counter::kServeBatches: return "serve_batches";
    case Counter::kServeBatchItems: return "serve_batch_items";
    case Counter::kPlanCompiles: return "plan_compiles";
    case Counter::kPlanCacheHits: return "plan_cache_hits";
    case Counter::kPlanSteadyAllocs: return "plan_steady_allocs";
    case Counter::kPlanArenaBytes: return "plan_arena_bytes";
    case Counter::kSimSteps: return "sim_steps";
    case Counter::kSimScenarios: return "sim_scenarios";
    case Counter::kIm2colBytesStaged: return "im2col_bytes_staged";
    case Counter::kCount: break;
  }
  return "?";
}

void counter_add(Counter c, std::uint64_t n) {
  g_counters[static_cast<int>(c)].fetch_add(n, std::memory_order_relaxed);
}

std::uint64_t counter_value(Counter c) {
  return g_counters[static_cast<int>(c)].load(std::memory_order_relaxed);
}

void record_model_artifact(ModelArtifact artifact) {
  if (!enabled()) return;
  ArtifactRegistry& r = artifact_registry();
  std::lock_guard<std::mutex> lk(r.m);
  for (ModelArtifact& existing : r.items) {
    if (existing.path == artifact.path &&
        existing.content_hash == artifact.content_hash) {
      existing.format_version = artifact.format_version;
      existing.packed_adopted |= artifact.packed_adopted;
      return;
    }
  }
  r.items.push_back(std::move(artifact));
}

std::vector<ModelArtifact> model_artifacts() {
  ArtifactRegistry& r = artifact_registry();
  std::lock_guard<std::mutex> lk(r.m);
  return r.items;
}

void record_plan(PlanRecord record) {
  if (!enabled()) return;
  PlanRegistry& r = plan_registry();
  std::lock_guard<std::mutex> lk(r.m);
  for (PlanRecord& existing : r.items) {
    if (existing.model == record.model &&
        existing.input_shape == record.input_shape &&
        existing.tier == record.tier) {
      existing.arena_bytes = record.arena_bytes;
      return;
    }
  }
  r.items.push_back(std::move(record));
}

std::vector<PlanRecord> plan_records() {
  PlanRegistry& r = plan_registry();
  std::lock_guard<std::mutex> lk(r.m);
  return r.items;
}

void record_campaign(CampaignRecord record) {
  if (!enabled()) return;
  CampaignRegistry& r = campaign_registry();
  std::lock_guard<std::mutex> lk(r.m);
  r.items.push_back(std::move(record));
}

std::vector<CampaignRecord> campaign_records() {
  CampaignRegistry& r = campaign_registry();
  std::lock_guard<std::mutex> lk(r.m);
  return r.items;
}

ScopedTimer::ScopedTimer(const char* name) {
  if (!enabled()) return;
  active_ = true;
  parent_len_ = tl_path.size();
  if (!tl_path.empty()) tl_path += '/';
  tl_path += name;
  start_ns_ = now_ns();
}

ScopedTimer::~ScopedTimer() {
  if (!active_) return;
  const std::uint64_t dur = now_ns() - start_ns_;
  record_span(tl_path, dur);
  tl_path.resize(parent_len_);
}

std::vector<SpanStats> span_snapshot() {
  std::vector<SpanStats> out;
  {
    Registry& r = registry();
    std::lock_guard<std::mutex> lk(r.m);
    out.reserve(r.spans.size());
    for (const auto& [path, a] : r.spans) {
      SpanStats s;
      s.path = path;
      s.calls = a.calls;
      s.total_ms = static_cast<double>(a.total_ns) * 1e-6;
      s.min_ms = static_cast<double>(a.min_ns) * 1e-6;
      s.max_ms = static_cast<double>(a.max_ns) * 1e-6;
      out.push_back(std::move(s));
    }
  }
  std::sort(out.begin(), out.end(),
            [](const SpanStats& a, const SpanStats& b) { return a.path < b.path; });
  return out;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char ch : s) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", ch);
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  return out;
}

namespace {

std::string quoted(const std::string& s) { return '"' + json_escape(s) + '"'; }

std::string num(double v) {
  std::ostringstream os;
  os << v;
  return os.str();
}

// Best-effort git metadata: walks up from the working directory looking
// for .git/HEAD; resolves symbolic refs via the loose ref file or
// packed-refs. Never shells out.
struct GitInfo {
  std::string commit = "unknown";
  std::string branch = "unknown";
};

std::string read_first_line(const std::filesystem::path& p) {
  std::ifstream in(p);
  std::string line;
  if (in && std::getline(in, line)) {
    while (!line.empty() && (line.back() == '\n' || line.back() == '\r'))
      line.pop_back();
    return line;
  }
  return "";
}

GitInfo git_info() {
  namespace fs = std::filesystem;
  GitInfo info;
  std::error_code ec;
  fs::path dir = fs::current_path(ec);
  if (ec) return info;
  for (int depth = 0; depth < 6 && !dir.empty(); ++depth) {
    const fs::path head_path = dir / ".git" / "HEAD";
    if (fs::exists(head_path, ec)) {
      const std::string head = read_first_line(head_path);
      if (head.rfind("ref: ", 0) == 0) {
        const std::string ref = head.substr(5);
        const auto slash = ref.find_last_of('/');
        info.branch = slash == std::string::npos ? ref : ref.substr(slash + 1);
        const std::string loose = read_first_line(dir / ".git" / ref);
        if (!loose.empty()) {
          info.commit = loose;
        } else {
          std::ifstream packed(dir / ".git" / "packed-refs");
          std::string line;
          while (packed && std::getline(packed, line)) {
            if (line.size() >= ref.size() + 41 &&
                line.compare(41, ref.size(), ref) == 0) {
              info.commit = line.substr(0, 40);
              break;
            }
          }
        }
      } else if (!head.empty()) {
        info.commit = head;  // detached HEAD
      }
      return info;
    }
    const fs::path parent = dir.parent_path();
    if (parent == dir) break;
    dir = parent;
  }
  return info;
}

// Span tree node reconstructed from '/'-joined paths.
struct SpanNode {
  const SpanStats* stats = nullptr;  // null for never-closed intermediates
  std::map<std::string, SpanNode> children;
};

void emit_span_nodes(const std::map<std::string, SpanNode>& nodes,
                     int indent, std::ostringstream& os) {
  const std::string pad(static_cast<std::size_t>(indent), ' ');
  bool first = true;
  for (const auto& [name, node] : nodes) {
    if (!first) os << ",\n";
    first = false;
    os << pad << "{\n";
    os << pad << "  \"name\": " << quoted(name) << ",\n";
    const std::uint64_t calls = node.stats ? node.stats->calls : 0;
    os << pad << "  \"calls\": " << calls << ",\n";
    os << pad << "  \"total_ms\": " << num(node.stats ? node.stats->total_ms : 0.0)
       << ",\n";
    os << pad << "  \"min_ms\": " << num(node.stats ? node.stats->min_ms : 0.0)
       << ",\n";
    os << pad << "  \"max_ms\": " << num(node.stats ? node.stats->max_ms : 0.0);
    if (!node.children.empty()) {
      os << ",\n" << pad << "  \"children\": [\n";
      emit_span_nodes(node.children, indent + 4, os);
      os << "\n" << pad << "  ]";
    }
    os << "\n" << pad << "}";
  }
}

std::map<std::string, SpanNode> build_span_tree(
    const std::vector<SpanStats>& spans) {
  std::map<std::string, SpanNode> roots;
  for (const auto& s : spans) {
    std::map<std::string, SpanNode>* level = &roots;
    SpanNode* node = nullptr;
    std::size_t pos = 0;
    while (pos <= s.path.size()) {
      const std::size_t next = s.path.find('/', pos);
      const std::string seg =
          s.path.substr(pos, next == std::string::npos ? std::string::npos
                                                       : next - pos);
      node = &(*level)[seg];
      level = &node->children;
      if (next == std::string::npos) break;
      pos = next + 1;
    }
    if (node) node->stats = &s;
  }
  return roots;
}

}  // namespace

RunManifest::RunManifest(std::string name) : name_(std::move(name)) {}

void RunManifest::set(const std::string& key, const std::string& value) {
  config_.emplace_back(key, quoted(value));
}

void RunManifest::set(const std::string& key, std::uint64_t value) {
  config_.emplace_back(key, std::to_string(value));
}

void RunManifest::set(const std::string& key, double value) {
  config_.emplace_back(key, num(value));
}

std::string RunManifest::to_json() const {
  std::ostringstream os;
  os << "{\n";
  os << "  \"name\": " << quoted(name_) << ",\n";
  os << "  \"schema\": \"advp.manifest/1\",\n";

  os << "  \"config\": {";
  for (std::size_t i = 0; i < config_.size(); ++i) {
    if (i) os << ",";
    os << "\n    " << quoted(config_[i].first) << ": " << config_[i].second;
  }
  os << (config_.empty() ? "" : "\n  ") << "},\n";

  const char* env_threads = std::getenv("ADVP_THREADS");
  const std::uint64_t dispatches = counter_value(Counter::kParallelDispatches);
  const std::uint64_t engaged = counter_value(Counter::kParallelWorkers);
  os << "  \"threads\": {\n";
  os << "    \"hardware_workers\": " << hardware_workers() << ",\n";
  os << "    \"max_workers\": " << max_workers() << ",\n";
  os << "    \"env_ADVP_THREADS\": "
     << (env_threads ? quoted(env_threads) : "null") << ",\n";
  os << "    \"avg_workers_per_dispatch\": "
     << (dispatches ? num(static_cast<double>(engaged) /
                          static_cast<double>(dispatches))
                    : "0")
     << "\n  },\n";

  const GitInfo git = git_info();
  os << "  \"git\": {\n";
  os << "    \"commit\": " << quoted(git.commit) << ",\n";
  os << "    \"branch\": " << quoted(git.branch) << "\n  },\n";

  os << "  \"counters\": {\n";
  for (int c = 0; c < static_cast<int>(Counter::kCount); ++c) {
    os << "    " << quoted(counter_name(static_cast<Counter>(c))) << ": "
       << counter_value(static_cast<Counter>(c));
    os << (c + 1 < static_cast<int>(Counter::kCount) ? ",\n" : "\n");
  }
  os << "  },\n";

  const auto models = model_artifacts();
  os << "  \"models\": [";
  for (std::size_t i = 0; i < models.size(); ++i) {
    os << (i ? ",\n" : "\n");
    os << "    {\n";
    os << "      \"path\": " << quoted(models[i].path) << ",\n";
    os << "      \"format_version\": " << models[i].format_version << ",\n";
    char hash[32];
    std::snprintf(hash, sizeof(hash), "%016llx",
                  static_cast<unsigned long long>(models[i].content_hash));
    os << "      \"content_hash\": " << quoted(hash) << ",\n";
    os << "      \"packed_adopted\": "
       << (models[i].packed_adopted ? "true" : "false") << "\n    }";
  }
  os << (models.empty() ? "" : "\n  ") << "],\n";

  const auto plans = plan_records();
  os << "  \"plans\": [";
  for (std::size_t i = 0; i < plans.size(); ++i) {
    os << (i ? ",\n" : "\n");
    os << "    {\n";
    os << "      \"model\": " << quoted(plans[i].model) << ",\n";
    os << "      \"input_shape\": " << quoted(plans[i].input_shape) << ",\n";
    os << "      \"tier\": " << quoted(plans[i].tier) << ",\n";
    os << "      \"arena_bytes\": " << plans[i].arena_bytes << "\n    }";
  }
  os << (plans.empty() ? "" : "\n  ") << "],\n";

  const auto campaigns = campaign_records();
  os << "  \"campaigns\": [";
  for (std::size_t i = 0; i < campaigns.size(); ++i) {
    os << (i ? ",\n" : "\n");
    os << "    {\n";
    os << "      \"matrix\": " << quoted(campaigns[i].matrix) << ",\n";
    os << "      \"scenarios\": " << campaigns[i].scenarios << ",\n";
    os << "      \"shards\": " << campaigns[i].shards << ",\n";
    os << "      \"workers\": " << campaigns[i].workers << ",\n";
    os << "      \"scenarios_per_s\": " << num(campaigns[i].scenarios_per_s)
       << "\n    }";
  }
  os << (campaigns.empty() ? "" : "\n  ") << "],\n";

  const auto spans = span_snapshot();
  os << "  \"spans\": [";
  if (!spans.empty()) {
    os << "\n";
    emit_span_nodes(build_span_tree(spans), 4, os);
    os << "\n  ";
  }
  os << "]\n}\n";
  return os.str();
}

std::string RunManifest::write(const std::string& filename) const {
  namespace fs = std::filesystem;
  fs::path out(filename);
  const std::string override_path = trace_path();
  if (!override_path.empty()) {
    const fs::path p(override_path);
    if (p.extension() == ".json") {
      out = p;
    } else {
      std::error_code ec;
      fs::create_directories(p, ec);
      out = p / fs::path(filename).filename();
    }
  }
  std::ofstream f(out);
  if (!f) return "";
  f << to_json();
  return out.string();
}

}  // namespace advp::obs
