// Per-query span tracing (ISSUE 5): where one CloudTalk query's time goes.
//
// A TraceContext rides through CloudTalkServer::Answer and records one span
// per lifecycle phase — parse, lint, compile, sample, probe (with one child
// per contacted host), bind, reserve — each with wall-clock start/duration
// and string attributes (probe fan-out, SearchCounters, binding mode). The
// finished Trace travels back to the client in QueryReply::trace, renders
// as an indented tree (`ctstat --trace`) or JSON (`ctstat --json`), and the
// *stable* renderings (durations normalised out) are what the golden
// snapshot tests diff, the same way examples/queries/opt/expected_report.txt
// pins the optimiser report.
//
// Tracing follows the same runtime switch as the metrics registry: when
// obs::SetRuntimeEnabled(false), a query's trace is simply empty. Contexts
// are single-threaded by design (one per in-flight query); the registry,
// not the trace, is the cross-thread aggregation point.
#ifndef CLOUDTALK_SRC_OBS_TRACE_H_
#define CLOUDTALK_SRC_OBS_TRACE_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/obs/metrics.h"

namespace cloudtalk {
namespace obs {

// Span names are short literals ("parse", "probe.host"), so they live in an
// inline buffer: TraceSpan is trivially copyable and recording a span is a
// plain memcpy with no heap traffic, which the <5% overhead budget
// (bench_obs_overhead) depends on. Longer names are truncated.
struct TraceSpan {
  static constexpr size_t kMaxName = 23;

  int id = -1;
  int parent = -1;      // -1 for the root span.
  double start = 0;     // Seconds since the trace epoch.
  double duration = 0;  // Seconds; 0 until closed.
  bool closed = false;
  uint8_t name_len = 0;
  char name_buf[kMaxName] = {};

  std::string_view name() const { return std::string_view(name_buf, name_len); }
  void set_name(std::string_view n) {
    name_len = static_cast<uint8_t>(std::min(n.size(), kMaxName));
    std::memcpy(name_buf, n.data(), name_len);
  }
};

// One attribute, linked to its span by id. The text lives in
// Trace::attr_data as a "key=value" slice: recording an attribute is one
// memcpy into a pre-reserved arena plus a 12-byte index entry — no
// per-attribute heap allocation, which is what keeps the tracer inside the
// <5% overhead budget (bench_obs_overhead). Keys must not contain '='
// (every call site uses literal keys).
struct TraceAttr {
  int span = -1;
  uint32_t offset = 0;  // Into Trace::attr_data.
  uint32_t size = 0;
};

// A finished trace: spans in creation order, span 0 the root (when any);
// attrs in recording order (per-span order is recording order too).
struct Trace {
  std::vector<TraceSpan> spans;
  std::vector<TraceAttr> attrs;
  std::string attr_data;

  bool empty() const { return spans.empty(); }

  // The "key=value" text of one attribute.
  std::string_view AttrText(const TraceAttr& attr) const {
    return std::string_view(attr_data).substr(attr.offset, attr.size);
  }

  // Cold-path convenience: a span's attributes in recording order.
  std::vector<std::pair<std::string, std::string>> AttrsOf(int id) const;
};

class TraceContext {
 public:
  // Opens the root span. Disabled (records nothing) when observability is
  // runtime-disabled at construction time.
  explicit TraceContext(std::string_view root_name);

  bool enabled() const { return enabled_; }

  // Opens a child of the innermost open span, stamped with the context's
  // most recent clock reading instead of taking a new one; returns its id
  // (-1 when disabled). The query pipeline opens each phase right after the
  // trace opened or the preceding phase closed, so nothing measurable
  // happens in between, and a phase boundary (sample→probe, say) costs the
  // one clock reading of the Close: the new span starts exactly where the
  // previous one ends. Spans must be closed innermost-first.
  int Open(std::string_view name);
  // Closes `id`, reading the clock once.
  void Close(int id);

  // Records an already-closed, zero-duration child of the innermost open
  // span, with its attributes attached in one shot. This is the cheap path
  // for high-fan-out children: no clock read at all — the event is stamped
  // with the context's most recent timestamp (its enclosing span's open
  // time at the latest). The probe scatter-gather emits one event per
  // contacted host, where the batched gather makes individual wall times
  // meaningless anyway.
  int Event(std::string_view name,
            std::initializer_list<std::pair<std::string_view, std::string_view>> attrs);

  // Attaches an attribute to an open span (no-op for id < 0).
  void Attr(int id, std::string_view key, std::string_view value);
  void Attr(int id, std::string_view key, int64_t value);
  void Attr(int id, std::string_view key, double value);

  // Closes every still-open span (root included) and returns the trace.
  // The context is spent afterwards.
  Trace Finish();

 private:
  double Now();
  void AppendAttr(int id, std::string_view key, std::string_view value);

  bool enabled_ = false;
  double last_time_ = 0;  // Most recent Now() reading; spans and events start at it.
  std::chrono::steady_clock::time_point epoch_;
  std::vector<TraceSpan> spans_;
  std::vector<TraceAttr> attrs_;
  std::string attr_data_;
  std::vector<int> open_stack_;
};

// Indented-tree rendering:
//   answer (123.4us)
//     parse (12.3us) vars=3
// `stable` replaces every duration with "-" so the output is byte-stable
// across runs (the golden-trace snapshot format).
std::string FormatTrace(const Trace& trace, bool stable = false);

// {"spans": [{"id": 0, "parent": -1, "name": ..., "start_us": ...,
//  "duration_us": ..., "attrs": {...}} ...]}; `stable` zeroes the times.
std::string TraceToJson(const Trace& trace, bool stable = false);

}  // namespace obs
}  // namespace cloudtalk

#endif  // CLOUDTALK_SRC_OBS_TRACE_H_
