#include "src/obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "src/common/json.h"

namespace cloudtalk {
namespace obs {

namespace {

std::atomic<bool> g_runtime_enabled{true};

// Shortest round-trip double rendering (Prometheus accepts plain floats).
std::string FormatDouble(double v) {
  if (v == static_cast<int64_t>(v) && std::abs(v) < 1e15) {
    return std::to_string(static_cast<int64_t>(v));
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

constexpr HistogramSpec kSeconds{1e-6, 2.0, 36};   // 1us .. ~34s.
constexpr HistogramSpec kRtt{1e-6, 2.0, 24};       // 1us .. ~8s.
constexpr HistogramSpec kFanout{1.0, 2.0, 16};     // 1 .. 32768 hosts.

}  // namespace

bool RuntimeEnabled() { return g_runtime_enabled.load(std::memory_order_relaxed); }
void SetRuntimeEnabled(bool enabled) {
  g_runtime_enabled.store(enabled, std::memory_order_relaxed);
}

const char* MetricTypeName(MetricType type) {
  switch (type) {
    case MetricType::kCounter:
      return "counter";
    case MetricType::kGauge:
      return "gauge";
    case MetricType::kHistogram:
      return "histogram";
  }
  return "unknown";
}

const std::vector<MetricInfo>& MetricCatalog() {
  // Leaked like the Registry that points into it: a thread-pool worker can
  // look a metric up for the first time while static destructors run at
  // exit.
  static const std::vector<MetricInfo>& catalog = *new std::vector<MetricInfo>{
      // ---- M1xx: CloudTalk server (query lifecycle) ----
      {"M100", MetricType::kCounter, "server", "cloudtalk_server_queries",
       "Queries received by CloudTalkServer::Answer (answered or rejected)", "", {}},
      {"M101", MetricType::kCounter, "server", "cloudtalk_server_query_errors",
       "Queries rejected with a diagnostic or evaluation error", "", {}},
      {"M102", MetricType::kHistogram, "server", "cloudtalk_server_answer_seconds",
       "End-to-end Answer() wall time", "", kSeconds},
      {"M103", MetricType::kHistogram, "server", "cloudtalk_server_probe_fanout",
       "Hosts contacted by one query's probe scatter-gather", "", kFanout},
      {"M104", MetricType::kCounter, "server", "cloudtalk_server_reservations",
       "Endpoints pseudo-reserved for answered queries", "", {}},
      {"M105", MetricType::kCounter, "server", "cloudtalk_server_exhaustive_queries",
       "Queries answered by exhaustive/packet-level evaluation", "", {}},
      {"M106", MetricType::kCounter, "server", "cloudtalk_server_sampled_pools",
       "Candidate pools shrunk by Section 4.3 sampling", "", {}},
      {"M107", MetricType::kCounter, "server", "cloudtalk_server_quotes",
       "Quote() requests (priced or rejected)", "", {}},
      {"M108", MetricType::kCounter, "server", "cloudtalk_server_bound_checks",
       "Admission bound analyses built over the gathered status snapshot (queries with a "
       "finite deadline and a bound model)",
       "", {}},
      {"M109", MetricType::kCounter, "server", "cloudtalk_server_bound_rejections",
       "Queries rejected before search: a group's sound lower bound exceeds its deadline",
       "", {}},
      {"M113", MetricType::kCounter, "server", "cloudtalk_server_scope_probe_skips",
       "Hosts not probed because the static footprint analysis proved no evaluation "
       "engine reads their status", "", {}},
      {"M115", MetricType::kCounter, "server", "cloudtalk_server_shard_probe_batches",
       "Per-shard probe batches issued by the hierarchical status aggregator", "", {}},
      {"M116", MetricType::kHistogram, "server", "cloudtalk_server_shard_fanout",
       "Hosts contacted by one shard's slice of a probe scatter-gather", "", kFanout},
      {"M118", MetricType::kCounter, "server", "cloudtalk_server_reserve_aborts",
       "Reserves abandoned because an owning shard did not answer", "", {}},
      {"M119", MetricType::kCounter, "server", "cloudtalk_server_facts_cache_hits",
       "Answers whose parse, lint, compile and scope came from the front-end cache (a "
       "repeated query spelling)",
       "", {}},
      // ---- M2xx: probing and status transports ----
      {"M200", MetricType::kHistogram, "probe", "cloudtalk_probe_rtt_seconds",
       "Ping RTT measured by probing::NetworkProber, per target host", "host", kRtt},
      {"M201", MetricType::kCounter, "probe", "cloudtalk_probe_requests",
       "Status probe requests sent", "", {}},
      {"M202", MetricType::kCounter, "probe", "cloudtalk_probe_replies",
       "Status probe replies accepted", "", {}},
      {"M203", MetricType::kCounter, "probe", "cloudtalk_probe_timeouts",
       "Probe targets that missed the gather deadline", "", {}},
      {"M204", MetricType::kCounter, "probe", "cloudtalk_probe_short_reads",
       "Reply datagrams dropped for a truncated or oversized payload", "", {}},
      {"M205", MetricType::kCounter, "probe", "cloudtalk_probe_late_replies",
       "Replies that arrived after their probe round had closed", "", {}},
      {"M206", MetricType::kCounter, "probe", "cloudtalk_probe_bytes_sent",
       "Probe request bytes on the wire", "", {}},
      {"M207", MetricType::kCounter, "probe", "cloudtalk_probe_bytes_received",
       "Probe reply bytes on the wire", "", {}},
      // ---- M3xx: fluid simulation ----
      {"M300", MetricType::kCounter, "fluidsim", "cloudtalk_fluidsim_events",
       "Timed events fired by the simulation loop", "", {}},
      {"M301", MetricType::kCounter, "fluidsim", "cloudtalk_fluidsim_waterfill_rounds",
       "Water-filling iterations inside max-min rate recomputation", "", {}},
      {"M302", MetricType::kCounter, "fluidsim", "cloudtalk_fluidsim_recomputes",
       "Max-min rate recomputations", "", {}},
      {"M303", MetricType::kCounter, "fluidsim", "cloudtalk_fluidsim_groups",
       "Elastic flow groups admitted", "", {}},
      {"M304", MetricType::kCounter, "fluidsim", "cloudtalk_fluidsim_delta_hits",
       "Water-filling components reused bitwise from the delta cache", "", {}},
      {"M305", MetricType::kCounter, "fluidsim", "cloudtalk_fluidsim_cold_solves",
       "Water-filling components solved cold (dirty or cache mismatch)", "", {}},
      {"M306", MetricType::kHistogram, "fluidsim", "cloudtalk_fluidsim_dirty_chain_groups",
       "Flow groups per cold-solved component (dirty bottleneck-chain length)", "", kFanout},
      // ---- M4xx: shared worker pool ----
      {"M400", MetricType::kGauge, "pool", "cloudtalk_pool_queue_depth",
       "Helper tasks waiting in the shared worker-pool queue", "", {}},
      {"M401", MetricType::kCounter, "pool", "cloudtalk_pool_steals",
       "Shards executed by pool worker threads", "", {}},
      {"M402", MetricType::kCounter, "pool", "cloudtalk_pool_participations",
       "Shards executed by the thread that called Run()", "", {}},
      {"M403", MetricType::kCounter, "pool", "cloudtalk_pool_batches",
       "Run() batches submitted to the pool", "", {}},
      // ---- M5xx: HDFS / MapReduce harness ----
      {"M500", MetricType::kCounter, "jobs", "cloudtalk_hdfs_blocks_written",
       "HDFS blocks whose replica pipeline completed", "", {}},
      {"M501", MetricType::kCounter, "jobs", "cloudtalk_hdfs_blocks_read",
       "HDFS blocks streamed to a reader", "", {}},
      {"M502", MetricType::kCounter, "jobs", "cloudtalk_mapred_maps_scheduled",
       "Map tasks assigned to a tracker", "", {}},
      {"M503", MetricType::kCounter, "jobs", "cloudtalk_mapred_reduces_scheduled",
       "Reduce tasks assigned to a tracker (including speculative copies)", "", {}},
      {"M504", MetricType::kCounter, "jobs", "cloudtalk_mapred_speculations",
       "Speculative reduce re-executions launched", "", {}},
      {"M505", MetricType::kCounter, "jobs", "cloudtalk_mapred_heartbeats",
       "Task-tracker heartbeats processed by the JobTracker", "", {}},
  };
  return catalog;
}

const MetricInfo* FindMetric(std::string_view code) {
  for (const MetricInfo& info : MetricCatalog()) {
    if (code == info.code) {
      return &info;
    }
  }
  return nullptr;
}

void Gauge::Add(double delta) {
  double cur = value_.load(std::memory_order_relaxed);
  while (!value_.compare_exchange_weak(cur, cur + delta, std::memory_order_relaxed)) {
  }
}

Histogram::Histogram(const HistogramSpec& spec)
    : spec_(spec), buckets_(static_cast<size_t>(spec.buckets)) {}

void Histogram::Observe(double v) {
  // Find the first bucket whose upper bound covers v. The loop is short
  // (<= spec.buckets comparisons against a geometric series) and typical
  // values land early; no locks, no floating-point log.
  double bound = spec_.base;
  int index = -1;
  for (int i = 0; i < spec_.buckets; ++i, bound *= spec_.growth) {
    if (v <= bound) {
      index = i;
      break;
    }
  }
  if (index >= 0) {
    buckets_[index].fetch_add(1, std::memory_order_relaxed);
  } else {
    inf_.fetch_add(1, std::memory_order_relaxed);
  }
  count_.fetch_add(1, std::memory_order_relaxed);
  double cur = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(cur, cur + v, std::memory_order_relaxed)) {
  }
}

int64_t Histogram::CumulativeCount(int bucket) const {
  int64_t total = 0;
  const int limit = std::min(bucket, spec_.buckets - 1);
  for (int i = 0; i <= limit; ++i) {
    total += buckets_[i].load(std::memory_order_relaxed);
  }
  if (bucket >= spec_.buckets) {
    total += inf_.load(std::memory_order_relaxed);
  }
  return total;
}

double Histogram::UpperBound(int bucket) const {
  double bound = spec_.base;
  for (int i = 0; i < bucket; ++i) {
    bound *= spec_.growth;
  }
  return bound;
}

void Histogram::Reset() {
  for (auto& b : buckets_) {
    b.store(0, std::memory_order_relaxed);
  }
  inf_.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
}

Registry::Registry() {
  const std::vector<MetricInfo>& catalog = MetricCatalog();
  families_.resize(catalog.size());
  for (size_t i = 0; i < catalog.size(); ++i) {
    Family& family = families_[i];
    family.info = &catalog[i];
    switch (family.info->type) {
      case MetricType::kCounter:
        family.counter = std::make_unique<Counter>();
        break;
      case MetricType::kGauge:
        family.gauge = std::make_unique<Gauge>();
        break;
      case MetricType::kHistogram:
        family.histogram = std::make_unique<Histogram>(family.info->hist);
        break;
    }
  }
}

Registry& Registry::Instance() {
  static Registry* registry = new Registry();  // Leaked: outlives all users.
  return *registry;
}

Registry::Family* Registry::FindFamily(std::string_view code, MetricType type) {
  for (Family& family : families_) {
    if (code == family.info->code) {
      if (family.info->type != type) {
        std::fprintf(stderr, "obs: metric %s is a %s, not a %s\n", family.info->code,
                     MetricTypeName(family.info->type), MetricTypeName(type));
        std::abort();
      }
      return &family;
    }
  }
  std::fprintf(stderr, "obs: unregistered metric code '%.*s'\n",
               static_cast<int>(code.size()), code.data());
  std::abort();
}

Counter* Registry::counter(std::string_view code) {
  return FindFamily(code, MetricType::kCounter)->counter.get();
}

Gauge* Registry::gauge(std::string_view code) {
  return FindFamily(code, MetricType::kGauge)->gauge.get();
}

Histogram* Registry::histogram(std::string_view code) {
  return FindFamily(code, MetricType::kHistogram)->histogram.get();
}

Counter* Registry::counter(std::string_view code, std::string_view label_value) {
  Family* family = FindFamily(code, MetricType::kCounter);
  std::lock_guard<std::mutex> lock(children_mutex_);
  auto it = family->counter_children.find(label_value);
  if (it == family->counter_children.end()) {
    it = family->counter_children
             .emplace(std::string(label_value), std::make_unique<Counter>())
             .first;
  }
  return it->second.get();
}

Histogram* Registry::histogram(std::string_view code, std::string_view label_value) {
  Family* family = FindFamily(code, MetricType::kHistogram);
  std::lock_guard<std::mutex> lock(children_mutex_);
  auto it = family->histogram_children.find(label_value);
  if (it == family->histogram_children.end()) {
    it = family->histogram_children
             .emplace(std::string(label_value), std::make_unique<Histogram>(family->info->hist))
             .first;
  }
  return it->second.get();
}

void Registry::Reset() {
  std::lock_guard<std::mutex> lock(children_mutex_);
  for (Family& family : families_) {
    if (family.counter) {
      family.counter->Reset();
    }
    if (family.gauge) {
      family.gauge->Reset();
    }
    if (family.histogram) {
      family.histogram->Reset();
    }
    family.counter_children.clear();
    family.histogram_children.clear();
  }
}

namespace {

void RenderHistogramProm(std::ostringstream& os, const std::string& name,
                         const std::string& label_prefix, const Histogram& hist) {
  for (int i = 0; i < hist.spec().buckets; ++i) {
    os << name << "_bucket{" << label_prefix << "le=\"" << FormatDouble(hist.UpperBound(i))
       << "\"} " << hist.CumulativeCount(i) << "\n";
  }
  os << name << "_bucket{" << label_prefix << "le=\"+Inf\"} "
     << hist.CumulativeCount(hist.spec().buckets) << "\n";
  std::string bare = label_prefix;
  if (!bare.empty() && bare.back() == ',') {
    bare.pop_back();
  }
  const std::string braces = bare.empty() ? "" : "{" + bare + "}";
  os << name << "_sum" << braces << " " << FormatDouble(hist.sum()) << "\n";
  os << name << "_count" << braces << " " << hist.count() << "\n";
}

}  // namespace

std::string Registry::RenderPrometheus() const {
  std::ostringstream os;
  std::lock_guard<std::mutex> lock(children_mutex_);
  for (const Family& family : families_) {
    const MetricInfo& info = *family.info;
    const std::string name =
        info.type == MetricType::kCounter ? std::string(info.name) + "_total" : info.name;
    os << "# HELP " << name << " " << info.help << " [" << info.code << "]\n";
    os << "# TYPE " << name << " " << MetricTypeName(info.type) << "\n";
    switch (info.type) {
      case MetricType::kCounter:
        os << name << " " << family.counter->value() << "\n";
        for (const auto& [value, child] : family.counter_children) {
          os << name << "{" << info.label << "=\"" << value << "\"} " << child->value()
             << "\n";
        }
        break;
      case MetricType::kGauge:
        os << name << " " << FormatDouble(family.gauge->value()) << "\n";
        break;
      case MetricType::kHistogram:
        if (family.histogram_children.empty() || family.histogram->count() > 0) {
          RenderHistogramProm(os, name, "", *family.histogram);
        }
        for (const auto& [value, child] : family.histogram_children) {
          RenderHistogramProm(os, name,
                              std::string(info.label) + "=\"" + value + "\",", *child);
        }
        break;
    }
  }
  return os.str();
}

std::string Registry::RenderJson(bool skip_zero) const {
  std::ostringstream os;
  std::lock_guard<std::mutex> lock(children_mutex_);
  os << "{\"metrics\": [";
  bool first = true;
  auto emit_header = [&](const MetricInfo& info) {
    if (!first) {
      os << ", ";
    }
    first = false;
    os << "{\"code\": \"" << info.code << "\", \"name\": \"" << info.name
       << "\", \"type\": \"" << MetricTypeName(info.type) << "\"";
  };
  for (const Family& family : families_) {
    const MetricInfo& info = *family.info;
    switch (info.type) {
      case MetricType::kCounter: {
        if (family.counter->value() != 0 || !skip_zero) {
          emit_header(info);
          os << ", \"value\": " << family.counter->value() << "}";
        }
        for (const auto& [value, child] : family.counter_children) {
          if (child->value() == 0 && skip_zero) {
            continue;
          }
          emit_header(info);
          os << ", \"" << info.label << "\": " << JsonQuote(value)
             << ", \"value\": " << child->value() << "}";
        }
        break;
      }
      case MetricType::kGauge:
        if (family.gauge->value() != 0 || !skip_zero) {
          emit_header(info);
          os << ", \"value\": " << FormatDouble(family.gauge->value()) << "}";
        }
        break;
      case MetricType::kHistogram: {
        auto emit_hist = [&](const Histogram& hist, const std::string& label_value) {
          if (hist.count() == 0 && skip_zero) {
            return;
          }
          emit_header(info);
          if (!label_value.empty()) {
            os << ", \"" << info.label << "\": " << JsonQuote(label_value);
          }
          os << ", \"count\": " << hist.count() << ", \"sum\": " << FormatDouble(hist.sum())
             << "}";
        };
        emit_hist(*family.histogram, "");
        for (const auto& [value, child] : family.histogram_children) {
          emit_hist(*child, value);
        }
        break;
      }
    }
  }
  os << "]}";
  return os.str();
}

}  // namespace obs
}  // namespace cloudtalk
