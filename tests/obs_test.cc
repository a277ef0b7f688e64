// Tests for the observability layer (src/obs): the metrics registry, the
// per-query span tracer, the Prometheus endpoint, and the two ISSUE 5
// trace guarantees —
//   golden:   the fixed-seed hdfs_write.ct answer produces a byte-stable
//             span tree, snapshot-diffed against
//             examples/queries/trace/expected_trace.txt (regenerate with
//             `ctstat --trace --stable examples/queries/good/hdfs_write.ct`);
//   property: for every good fixture, the span tree is well-formed — one
//             root, every span closed, sibling phases do not overlap, and
//             the probe fan-out children match ProbeStats exactly.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "src/harness/cluster.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/status/metrics_endpoint.h"
#include "src/topology/topology.h"

namespace cloudtalk {
namespace obs {
namespace {

// ---------------------------------------------------------------- metrics

TEST(MetricCatalogTest, CodesAreOrderedAndWellFormed) {
  const std::vector<MetricInfo>& catalog = MetricCatalog();
  ASSERT_FALSE(catalog.empty());
  for (size_t i = 1; i < catalog.size(); ++i) {
    EXPECT_LT(std::string(catalog[i - 1].code), std::string(catalog[i].code))
        << "catalogue must stay in M-code order";
  }
  for (const MetricInfo& info : catalog) {
    EXPECT_EQ(info.code[0], 'M') << info.code;
    EXPECT_NE(std::string(info.name), "");
    EXPECT_NE(std::string(info.help), "");
    EXPECT_NE(info.subsystem, nullptr);
  }
}

TEST(MetricCatalogTest, FindMetricResolvesEveryCodeAndRejectsUnknown) {
  for (const MetricInfo& info : MetricCatalog()) {
    const MetricInfo* found = FindMetric(info.code);
    ASSERT_NE(found, nullptr) << info.code;
    EXPECT_EQ(found, &info);
  }
  EXPECT_EQ(FindMetric("M999"), nullptr);
  EXPECT_EQ(FindMetric(""), nullptr);
  EXPECT_EQ(FindMetric("W001"), nullptr);
}

TEST(MetricTypeTest, NamesRoundTrip) {
  EXPECT_STREQ(MetricTypeName(MetricType::kCounter), "counter");
  EXPECT_STREQ(MetricTypeName(MetricType::kGauge), "gauge");
  EXPECT_STREQ(MetricTypeName(MetricType::kHistogram), "histogram");
}

TEST(RegistryTest, CountersAccumulate) {
  Registry registry;
  Counter* c = registry.counter("M100");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->value(), 0);
  c->Inc();
  c->Add(41);
  EXPECT_EQ(c->value(), 42);
  // Same code resolves to the same instrument.
  EXPECT_EQ(registry.counter("M100"), c);
  registry.Reset();
  EXPECT_EQ(c->value(), 0);
}

TEST(RegistryTest, GaugeSetAndAdd) {
  Registry registry;
  Gauge* g = registry.gauge("M400");
  g->Set(3.5);
  EXPECT_DOUBLE_EQ(g->value(), 3.5);
  g->Add(1.5);
  EXPECT_DOUBLE_EQ(g->value(), 5.0);
  g->Add(-5.0);
  EXPECT_DOUBLE_EQ(g->value(), 0.0);
}

TEST(RegistryTest, HistogramBucketsAreLogScaleCumulative) {
  Registry registry;
  Histogram* h = registry.histogram("M102");
  const HistogramSpec& spec = h->spec();
  EXPECT_DOUBLE_EQ(h->UpperBound(0), spec.base);
  EXPECT_DOUBLE_EQ(h->UpperBound(1), spec.base * spec.growth);

  h->Observe(spec.base / 2);               // Bucket 0.
  h->Observe(spec.base * spec.growth);     // Bucket 1 (<= bound).
  h->Observe(1e12);                        // +Inf bucket.
  EXPECT_EQ(h->count(), 3);
  EXPECT_GE(h->sum(), 1e12);  // The sub-ulp micro observations vanish in the double sum.
  EXPECT_EQ(h->CumulativeCount(0), 1);
  EXPECT_EQ(h->CumulativeCount(1), 2);
  EXPECT_EQ(h->CumulativeCount(spec.buckets - 1), 2);
  EXPECT_EQ(h->CumulativeCount(spec.buckets), 3);  // +Inf == count().
  h->Reset();
  EXPECT_EQ(h->count(), 0);
  EXPECT_DOUBLE_EQ(h->sum(), 0.0);
}

TEST(RegistryTest, LabeledChildrenAreDistinctAndReset) {
  Registry registry;
  Histogram* a = registry.histogram("M200", "10.0.0.1");
  Histogram* b = registry.histogram("M200", "10.0.0.2");
  EXPECT_NE(a, b);
  EXPECT_EQ(registry.histogram("M200", "10.0.0.1"), a);
  a->Observe(1e-3);
  EXPECT_EQ(a->count(), 1);
  EXPECT_EQ(b->count(), 0);
  registry.Reset();  // Drops children.
  EXPECT_EQ(registry.histogram("M200", "10.0.0.1")->count(), 0);
}

TEST(RegistryTest, PrometheusRenderingIsWellFormed) {
  Registry registry;
  registry.counter("M100")->Add(7);
  registry.gauge("M400")->Set(2);
  registry.histogram("M102")->Observe(0.001);
  registry.histogram("M200", "10.0.0.1")->Observe(0.0002);
  const std::string text = registry.RenderPrometheus();

  EXPECT_NE(text.find("# TYPE cloudtalk_server_queries_total counter"), std::string::npos);
  EXPECT_NE(text.find("cloudtalk_server_queries_total 7"), std::string::npos);
  EXPECT_NE(text.find("# TYPE cloudtalk_pool_queue_depth gauge"), std::string::npos);
  EXPECT_NE(text.find("cloudtalk_server_answer_seconds_bucket{le=\"+Inf\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("cloudtalk_server_answer_seconds_count 1"), std::string::npos);
  EXPECT_NE(text.find("cloudtalk_probe_rtt_seconds_bucket{host=\"10.0.0.1\",le="),
            std::string::npos);
  // Every line is either a comment or "name{labels} value".
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    ASSERT_FALSE(line.empty());
    if (line[0] == '#') {
      EXPECT_TRUE(line.rfind("# HELP ", 0) == 0 || line.rfind("# TYPE ", 0) == 0) << line;
    } else {
      EXPECT_NE(line.find(' '), std::string::npos) << line;
    }
  }
}

TEST(RegistryTest, JsonRenderingSkipsZeroInstrumentsByDefault) {
  Registry registry;
  EXPECT_EQ(registry.RenderJson(), "{\"metrics\": []}");
  registry.counter("M104")->Add(3);
  const std::string json = registry.RenderJson();
  EXPECT_NE(json.find("\"M104\""), std::string::npos);
  EXPECT_EQ(json.find("\"M100\""), std::string::npos);
  const std::string full = registry.RenderJson(/*skip_zero=*/false);
  EXPECT_NE(full.find("\"M100\""), std::string::npos);
}

TEST(RuntimeSwitchTest, DisabledMacrosRecordNothing) {
  Registry& registry = Registry::Instance();
  registry.Reset();
  SetRuntimeEnabled(false);
  CT_OBS_INC("M100");
  CT_OBS_OBSERVE("M102", 1.0);
  SetRuntimeEnabled(true);
  EXPECT_EQ(registry.counter("M100")->value(), 0);
  EXPECT_EQ(registry.histogram("M102")->count(), 0);
  CT_OBS_INC("M100");
  EXPECT_EQ(registry.counter("M100")->value(), 1);
  registry.Reset();
}

// ----------------------------------------------------------------- tracer

TEST(TraceTest, SpansNestCloseAndCarryAttrs) {
  TraceContext ctx("root");
  const int outer = ctx.Open("outer");
  ctx.Attr(outer, "k", "v");
  ctx.Attr(outer, "n", static_cast<int64_t>(7));
  ctx.Attr(outer, "x", 2.5);
  const int inner = ctx.Open("inner");
  ctx.Close(inner);
  ctx.Close(outer);
  const Trace trace = ctx.Finish();
  ASSERT_EQ(trace.spans.size(), 3u);
  EXPECT_EQ(trace.spans[0].name(), "root");
  EXPECT_EQ(trace.spans[0].parent, -1);
  EXPECT_EQ(trace.spans[1].name(), "outer");
  EXPECT_EQ(trace.spans[1].parent, 0);
  EXPECT_EQ(trace.spans[2].name(), "inner");
  EXPECT_EQ(trace.spans[2].parent, 1);
  for (const TraceSpan& span : trace.spans) {
    EXPECT_TRUE(span.closed) << span.name();
    EXPECT_GE(span.duration, 0.0) << span.name();
  }
  const auto attrs = trace.AttrsOf(1);
  ASSERT_EQ(attrs.size(), 3u);
  EXPECT_EQ(attrs[0], (std::pair<std::string, std::string>{"k", "v"}));
  EXPECT_EQ(attrs[1].second, "7");
  EXPECT_EQ(attrs[2].second, "2.5");
  EXPECT_TRUE(trace.AttrsOf(2).empty());
}

TEST(TraceTest, FinishClosesLeakedSpans) {
  TraceContext ctx("root");
  ctx.Open("leaked");
  ctx.Open("leaked.child");
  const Trace trace = ctx.Finish();
  for (const TraceSpan& span : trace.spans) {
    EXPECT_TRUE(span.closed) << span.name();
  }
}

TEST(TraceTest, CloseOutOfOrderSelfHeals) {
  TraceContext ctx("root");
  const int outer = ctx.Open("outer");
  ctx.Open("inner");  // Never closed directly.
  ctx.Close(outer);   // Must close inner too.
  const Trace trace = ctx.Finish();
  ASSERT_EQ(trace.spans.size(), 3u);
  EXPECT_TRUE(trace.spans[2].closed);
}

// A phase transition closes one span and opens the next: the new span
// starts at the reading the close took.
TEST(TraceTest, TransitionSharesOneInstant) {
  TraceContext ctx("root");
  const int a = ctx.Open("a");
  ctx.Close(a);
  const int b = ctx.Open("b");
  ctx.Close(b);
  const Trace trace = ctx.Finish();
  ASSERT_EQ(trace.spans.size(), 3u);
  EXPECT_TRUE(trace.spans[a].closed);
  EXPECT_EQ(trace.spans[b].parent, 0);  // Sibling, not child, of `a`.
  // `b` starts exactly where `a` ends: no gap and no overlap.
  EXPECT_DOUBLE_EQ(trace.spans[a].start + trace.spans[a].duration, trace.spans[b].start);
}

TEST(TraceTest, DisabledContextRecordsNothing) {
  SetRuntimeEnabled(false);
  TraceContext ctx("root");
  const int id = ctx.Open("child");
  EXPECT_EQ(id, -1);
  ctx.Attr(id, "k", "v");
  ctx.Close(id);
  EXPECT_TRUE(ctx.Finish().empty());
  SetRuntimeEnabled(true);
}

TEST(TraceRenderTest, StableFormatElidesDurations) {
  Trace trace;
  TraceSpan root;
  root.id = 0;
  root.parent = -1;
  root.set_name("answer");
  root.duration = 0.001234;
  root.closed = true;
  TraceSpan child;
  child.id = 1;
  child.parent = 0;
  child.set_name("parse");
  child.closed = true;
  trace.spans = {root, child};
  trace.attr_data = "bytes=120";
  trace.attrs = {TraceAttr{1, 0, 9}};

  EXPECT_EQ(FormatTrace(trace, /*stable=*/true), "answer (-)\n  parse (-) bytes=120\n");
  const std::string timed = FormatTrace(trace, /*stable=*/false);
  EXPECT_NE(timed.find("answer (1234.0us)"), std::string::npos);

  const std::string json = TraceToJson(trace, /*stable=*/true);
  EXPECT_NE(json.find("\"duration_us\": 0.0"), std::string::npos);
  EXPECT_NE(json.find("\"attrs\": {\"bytes\": \"120\"}"), std::string::npos);
}

// --------------------------------------------------- harness trace shapes

Cluster MakeTestCluster() {
  SingleSwitchParams params;
  params.num_hosts = 16;
  params.host_caps.nic_up = 1 * kGbps;
  params.host_caps.nic_down = 1 * kGbps;
  params.host_caps.disk_read = 4 * kGbps;
  params.host_caps.disk_write = 4 * kGbps;
  ClusterOptions options;
  options.seed = 1;
  options.server.seed = 1;
  options.server.eval_threads = 1;
  return Cluster(MakeSingleSwitch(params), options);
}

std::string ReadFileOrDie(const std::filesystem::path& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in) << "cannot open " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

const TraceSpan* FindSpan(const Trace& trace, const std::string& name) {
  for (const TraceSpan& span : trace.spans) {
    if (span.name() == name) {
      return &span;
    }
  }
  return nullptr;
}

// Golden snapshot: the stable rendering of the fixed-seed hdfs_write.ct
// trace must match the checked-in file byte for byte (same contract as the
// `ctlint --show opt` expected_report.txt snapshot).
TEST(TraceGoldenTest, HdfsWriteTraceMatchesSnapshot) {
  const std::filesystem::path dir(CLOUDTALK_QUERY_DIR);
  const std::string query = ReadFileOrDie(dir / "good" / "hdfs_write.ct");
  // The snapshot is the verbatim ctstat output, whose first line is the
  // query file name; the span tree starts after it.
  std::string expected = ReadFileOrDie(dir / "trace" / "expected_trace.txt");
  const size_t header_end = expected.find('\n');
  ASSERT_NE(header_end, std::string::npos);
  expected = expected.substr(header_end + 1);

  Cluster cluster = MakeTestCluster();
  cluster.StartStatusSweep();
  cluster.MeasureNow();
  const Result<QueryReply> reply = cluster.cloudtalk().Answer(query);
  ASSERT_TRUE(reply.ok()) << reply.error().message;
  EXPECT_EQ(FormatTrace(reply.value().trace, /*stable=*/true), expected)
      << "regenerate with: ctstat --trace --stable examples/queries/good/hdfs_write.ct";
}

// Property: `reply`'s trace is a well-formed phase tree.
void ExpectWellFormedTrace(const QueryReply& reply) {
  const Trace& trace = reply.trace;
  ASSERT_FALSE(trace.empty());

  // Exactly one root, which is span 0, named "answer".
  int roots = 0;
  for (const TraceSpan& span : trace.spans) {
    roots += span.parent < 0 ? 1 : 0;
  }
  EXPECT_EQ(roots, 1);
  EXPECT_EQ(trace.spans[0].parent, -1);
  EXPECT_EQ(trace.spans[0].name(), "answer");

  // Every span is closed, has a valid parent, ids match positions, and
  // lies inside its parent's interval.
  for (size_t i = 0; i < trace.spans.size(); ++i) {
    const TraceSpan& span = trace.spans[i];
    EXPECT_EQ(span.id, static_cast<int>(i));
    EXPECT_TRUE(span.closed) << span.name();
    EXPECT_GE(span.duration, 0.0) << span.name();
    if (span.parent >= 0) {
      ASSERT_LT(span.parent, static_cast<int>(i)) << span.name();
      const TraceSpan& parent = trace.spans[span.parent];
      EXPECT_GE(span.start, parent.start - 1e-9) << span.name();
      EXPECT_LE(span.start + span.duration, parent.start + parent.duration + 1e-9)
          << span.name() << " escapes " << parent.name();
    }
  }

  // The full phase skeleton is present on every reply.
  for (const char* phase : {"parse", "lint", "compile", "scope", "route", "aggregate", "sample",
                            "probe", "bound", "bind", "reserve"}) {
    EXPECT_NE(FindSpan(trace, phase), nullptr) << "missing phase span " << phase;
  }

  // Sibling phases never overlap in time.
  std::map<int, std::vector<const TraceSpan*>> by_parent;
  for (const TraceSpan& span : trace.spans) {
    if (span.parent >= 0) {
      by_parent[span.parent].push_back(&span);
    }
  }
  for (auto& [parent, siblings] : by_parent) {
    std::vector<const TraceSpan*> sorted = siblings;
    std::stable_sort(sorted.begin(), sorted.end(),
                     [](const TraceSpan* a, const TraceSpan* b) { return a->start < b->start; });
    for (size_t i = 1; i < sorted.size(); ++i) {
      EXPECT_GE(sorted[i]->start, sorted[i - 1]->start + sorted[i - 1]->duration - 1e-9)
          << sorted[i - 1]->name() << " overlaps " << sorted[i]->name() << " under parent "
          << trace.spans[parent].name();
    }
  }

  // Probe fan-out children match the probe accounting exactly: one
  // probe.host child per request the transport actually sent.
  const TraceSpan* probe = FindSpan(trace, "probe");
  ASSERT_NE(probe, nullptr);
  int host_children = 0;
  for (const TraceSpan& span : trace.spans) {
    if (span.name() == "probe.host") {
      EXPECT_EQ(span.parent, probe->id);
      ++host_children;
    }
  }
  EXPECT_EQ(host_children, reply.probe_stats.requests_sent);

  // The routed skeleton: one aggregate.shard child of `aggregate` per
  // shard batch, whose fanouts account for every probe sent.
  const TraceSpan* aggregate = FindSpan(trace, "aggregate");
  ASSERT_NE(aggregate, nullptr);
  int shard_fanout = 0;
  for (const TraceSpan& span : trace.spans) {
    if (span.name() != "aggregate.shard") {
      continue;
    }
    EXPECT_EQ(span.parent, aggregate->id);
    for (const auto& [key, value] : trace.AttrsOf(span.id)) {
      if (key == "fanout") {
        shard_fanout += std::stoi(value);
      }
    }
  }
  EXPECT_EQ(shard_fanout, reply.probe_stats.requests_sent);
}

// Property: every good fixture's trace is a well-formed phase tree, also
// on the third answer of the same bytes, which the front-end cache serves.
TEST(TracePropertyTest, GoodFixtureTracesAreWellFormed) {
  const std::filesystem::path good_dir =
      std::filesystem::path(CLOUDTALK_QUERY_DIR) / "good";
  std::vector<std::filesystem::path> fixtures;
  for (const auto& entry : std::filesystem::directory_iterator(good_dir)) {
    if (entry.path().extension() == ".ct") {
      fixtures.push_back(entry.path());
    }
  }
  std::sort(fixtures.begin(), fixtures.end());
  ASSERT_FALSE(fixtures.empty());

  for (const std::filesystem::path& fixture : fixtures) {
    SCOPED_TRACE(fixture.filename().string());
    Cluster cluster = MakeTestCluster();
    cluster.StartStatusSweep();
    cluster.MeasureNow();
    const std::string query = ReadFileOrDie(fixture);
    std::vector<Result<QueryReply>> replies;
    for (int sighting = 1; sighting <= 3; ++sighting) {
      replies.push_back(cluster.cloudtalk().Answer(query));
      ASSERT_TRUE(replies.back().ok()) << replies.back().error().message;
    }
    for (const int answer : {0, 2}) {
      SCOPED_TRACE("answer " + std::to_string(answer + 1));
      const Trace& trace = replies[answer].value().trace;
      ExpectWellFormedTrace(replies[answer].value());
      // Only the cached answer says so on its parse span.
      const TraceSpan* parse = FindSpan(trace, "parse");
      ASSERT_NE(parse, nullptr);
      bool hit = false;
      for (const auto& [key, value] : trace.AttrsOf(parse->id)) {
        hit |= key == "cache" && value == "hit";
      }
      EXPECT_EQ(hit, answer == 2);
    }
  }
}

// ------------------------------------------------------ metrics endpoint

// Minimal HTTP client for the loopback endpoint.
std::string HttpGet(uint16_t port, const std::string& request) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  EXPECT_GT(::send(fd, request.data(), request.size(), 0), 0);
  std::string response;
  char buffer[4096];
  ssize_t n;
  while ((n = ::recv(fd, buffer, sizeof(buffer), 0)) > 0) {
    response.append(buffer, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

TEST(MetricsEndpointTest, ServesPrometheusText) {
  Registry::Instance().Reset();
  CT_OBS_INC("M100");
  MetricsEndpoint endpoint;
  ASSERT_TRUE(endpoint.Start());
  ASSERT_GT(endpoint.port(), 0);

  const std::string response =
      HttpGet(endpoint.port(), "GET /metrics HTTP/1.0\r\n\r\n");
  EXPECT_NE(response.find("200 OK"), std::string::npos);
  EXPECT_NE(response.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(response.find("cloudtalk_server_queries_total 1"), std::string::npos);

  const std::string index = HttpGet(endpoint.port(), "GET / HTTP/1.0\r\n\r\n");
  EXPECT_NE(index.find("200 OK"), std::string::npos);
  EXPECT_NE(index.find("/metrics"), std::string::npos);

  const std::string missing = HttpGet(endpoint.port(), "GET /nope HTTP/1.0\r\n\r\n");
  EXPECT_NE(missing.find("404"), std::string::npos);

  const std::string post = HttpGet(endpoint.port(), "POST /metrics HTTP/1.0\r\n\r\n");
  EXPECT_NE(post.find("405"), std::string::npos);

  EXPECT_GE(endpoint.requests_served(), 4);
  endpoint.Stop();
  Registry::Instance().Reset();
}

TEST(MetricsEndpointTest, SilentClientDoesNotBlockScrapesOrStop) {
  MetricsEndpoint endpoint;
  ASSERT_TRUE(endpoint.Start());
  // A client connects and sends nothing, and stays connected throughout.
  const int silent = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(silent, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(endpoint.port());
  ASSERT_EQ(::connect(silent, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  // A scrape queued behind it is answered once the silent client's deadline
  // has passed.
  const auto slack = std::chrono::seconds(2);
  const auto scrape_start = std::chrono::steady_clock::now();
  const std::string response = HttpGet(endpoint.port(), "GET /metrics HTTP/1.0\r\n\r\n");
  EXPECT_NE(response.find("200 OK"), std::string::npos);
  EXPECT_LT(std::chrono::steady_clock::now() - scrape_start,
            MetricsEndpoint::kClientDeadline + slack);
  // Stop returns while the silent socket is still open.
  const int silent_again = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_EQ(::connect(silent_again, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  const auto stop_start = std::chrono::steady_clock::now();
  endpoint.Stop();
  EXPECT_LT(std::chrono::steady_clock::now() - stop_start,
            MetricsEndpoint::kClientDeadline + slack);
  ::close(silent_again);
  ::close(silent);
}

}  // namespace
}  // namespace obs
}  // namespace cloudtalk
