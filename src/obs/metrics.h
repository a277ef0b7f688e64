// Lock-cheap metrics registry for the CloudTalk stack (ISSUE 5).
//
// The paper sells CloudTalk as a *service* and quantifies its per-query
// overhead (Section 5.5: probe fan-out and bytes, binding time); this
// registry is how the reproduction sees the same numbers on itself. Every
// metric has a stable M-code (M1xx server, M2xx probing/status transport,
// M3xx fluidsim, M4xx thread pool, M5xx hdfs/mapred) registered in
// `MetricCatalog()`, mirroring the D/I/L/W catalogues of src/check and
// src/lang: codes are never renumbered, only appended.
//
// Three instrument kinds:
//   Counter   - monotonically increasing int64 (atomic add).
//   Gauge     - last-write-wins double (queue depths, capacities).
//   Histogram - fixed log-scale buckets (upper bound base * growth^i), with
//               sum and count; renders as a native Prometheus histogram.
//
// Hot-path cost: one relaxed atomic load (the runtime kill switch) plus one
// atomic add; the CT_OBS_* macros cache the instrument pointer in a
// function-local static, so the name lookup happens once per call site.
// Labeled instruments (e.g. the per-host probe RTT histogram M200) live in
// a mutex-guarded per-metric map — fine for probe-rate call sites, not for
// per-event ones.
//
// The layer is always compiled in. The runtime switch (`SetRuntimeEnabled`)
// turns recording off, and lets one binary measure its own observability
// overhead (bench/bench_obs_overhead.cc).
#ifndef CLOUDTALK_SRC_OBS_METRICS_H_
#define CLOUDTALK_SRC_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace cloudtalk {
namespace obs {

// Process-wide runtime kill switch (default on). Checked with one relaxed
// load by every macro and by TraceContext construction; flipping it off
// leaves only that load, which is what bench_obs_overhead measures against.
bool RuntimeEnabled();
void SetRuntimeEnabled(bool enabled);

enum class MetricType { kCounter, kGauge, kHistogram };

const char* MetricTypeName(MetricType type);

// Log-scale bucket layout: bucket i (0-based) holds values <= base *
// growth^i; values above the last bound land in the implicit +Inf bucket.
struct HistogramSpec {
  double base = 1e-6;  // Upper bound of the first bucket.
  double growth = 2.0;
  int buckets = 36;  // 1us .. ~34s with the defaults.
};

// Catalogue entry for a registered metric code. `name` is the Prometheus
// family name (snake_case, no suffix; renderers append _total etc.);
// `label` is the single optional label key ("" = unlabeled only).
struct MetricInfo {
  const char* code;       // "M100", ... (stable; see docs/OBSERVABILITY.md).
  MetricType type;
  const char* subsystem;  // "server", "probe", "fluidsim", "pool", "jobs".
  const char* name;
  const char* help;
  const char* label;      // Label key, or "" when the metric is unlabeled.
  HistogramSpec hist;     // Meaningful for histograms only.
};

// Every registered metric, ordered by code.
const std::vector<MetricInfo>& MetricCatalog();
// nullptr when `code` is not registered.
const MetricInfo* FindMetric(std::string_view code);

class Counter {
 public:
  void Inc() { value_.fetch_add(1, std::memory_order_relaxed); }
  void Add(int64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  void Add(double delta);
  double value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0};
};

class Histogram {
 public:
  explicit Histogram(const HistogramSpec& spec);

  void Observe(double v);
  int64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  const HistogramSpec& spec() const { return spec_; }
  // Cumulative count of observations <= upper bound of bucket i; index
  // spec().buckets is the +Inf bucket (== count()).
  int64_t CumulativeCount(int bucket) const;
  // Upper bound of bucket i (base * growth^i).
  double UpperBound(int bucket) const;
  void Reset();

 private:
  HistogramSpec spec_;
  std::vector<std::atomic<int64_t>> buckets_;  // Per-bucket (non-cumulative).
  std::atomic<int64_t> inf_{0};
  std::atomic<int64_t> count_{0};
  std::atomic<double> sum_{0};
};

// The registry: one instrument per (catalogue code, label value). Unlabeled
// instruments are created eagerly so lookups never allocate; labeled
// children are created on first use. `Instance()` is the process-wide
// registry every CT_OBS_* macro and renderer uses; separate instances exist
// only in tests.
class Registry {
 public:
  Registry();

  static Registry& Instance();

  // Aborts (programmer error) if `code` is unregistered or of another type.
  Counter* counter(std::string_view code);
  Gauge* gauge(std::string_view code);
  Histogram* histogram(std::string_view code);
  // Labeled children (the catalogue entry must declare a label key).
  Counter* counter(std::string_view code, std::string_view label_value);
  Histogram* histogram(std::string_view code, std::string_view label_value);

  // Zeroes every instrument and drops labeled children (tests, ctstat).
  void Reset();

  // Prometheus text exposition format, families ordered by M-code.
  std::string RenderPrometheus() const;
  // {"metrics": [{"code": ..., "name": ..., "value": ...} ...]} — histograms
  // carry count/sum/buckets. `skip_zero` drops never-touched instruments.
  std::string RenderJson(bool skip_zero = true) const;

 private:
  struct Family {
    const MetricInfo* info = nullptr;
    // Unlabeled instrument (exactly one of these is non-null, by type).
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
    // Labeled children, keyed by label value (ordered for stable render).
    std::map<std::string, std::unique_ptr<Counter>, std::less<>> counter_children;
    std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histogram_children;
  };

  Family* FindFamily(std::string_view code, MetricType type);

  std::vector<Family> families_;  // Catalogue order.
  mutable std::mutex children_mutex_;
};

}  // namespace obs
}  // namespace cloudtalk

// Instrumentation macros. `code` must be a string literal registered in
// MetricCatalog(); the instrument pointer is resolved once per call site.
#define CT_OBS_INC(code) CT_OBS_ADD(code, 1)

#define CT_OBS_ADD(code, n)                                                      \
  do {                                                                           \
    if (::cloudtalk::obs::RuntimeEnabled()) {                                    \
      static ::cloudtalk::obs::Counter* ct_obs_counter =                         \
          ::cloudtalk::obs::Registry::Instance().counter(code);                  \
      ct_obs_counter->Add(n);                                                    \
    }                                                                            \
  } while (0)

#define CT_OBS_GAUGE_SET(code, v)                                                \
  do {                                                                           \
    if (::cloudtalk::obs::RuntimeEnabled()) {                                    \
      static ::cloudtalk::obs::Gauge* ct_obs_gauge =                             \
          ::cloudtalk::obs::Registry::Instance().gauge(code);                    \
      ct_obs_gauge->Set(v);                                                      \
    }                                                                            \
  } while (0)

#define CT_OBS_GAUGE_ADD(code, v)                                                \
  do {                                                                           \
    if (::cloudtalk::obs::RuntimeEnabled()) {                                    \
      static ::cloudtalk::obs::Gauge* ct_obs_gauge =                             \
          ::cloudtalk::obs::Registry::Instance().gauge(code);                    \
      ct_obs_gauge->Add(v);                                                      \
    }                                                                            \
  } while (0)

#define CT_OBS_OBSERVE(code, v)                                                  \
  do {                                                                           \
    if (::cloudtalk::obs::RuntimeEnabled()) {                                    \
      static ::cloudtalk::obs::Histogram* ct_obs_hist =                          \
          ::cloudtalk::obs::Registry::Instance().histogram(code);                \
      ct_obs_hist->Observe(v);                                                   \
    }                                                                            \
  } while (0)

// Labeled variants: the child is looked up per call (label values vary).
#define CT_OBS_OBSERVE_L(code, label_value, v)                                   \
  do {                                                                           \
    if (::cloudtalk::obs::RuntimeEnabled()) {                                    \
      ::cloudtalk::obs::Registry::Instance().histogram(code, label_value)        \
          ->Observe(v);                                                          \
    }                                                                            \
  } while (0)

#define CT_OBS_INC_L(code, label_value)                                          \
  do {                                                                           \
    if (::cloudtalk::obs::RuntimeEnabled()) {                                    \
      ::cloudtalk::obs::Registry::Instance().counter(code, label_value)->Inc();  \
    }                                                                            \
  } while (0)

#endif  // CLOUDTALK_SRC_OBS_METRICS_H_
