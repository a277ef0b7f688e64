// ctbench: one closed-loop benchmark of the CloudTalk query service.
//
//   ctbench --workload flat|sharded|distinct --seed N --seconds S --trace 0|1
//
// Every workload runs the same heuristic query mix (probe, bind, reserve)
// from 2 closed-loop clients on disjoint host slices of a seeded 64-host
// single-switch fleet carrying background traffic and disk load:
//
//   flat      one CloudTalkServer; each client cycles through its 1024
//             queries, so every spelling repeats once per cycle
//   sharded   the same queries against a 4-shard ShardedServer
//             (hierarchical probe aggregation, two-phase reserve)
//   distinct  one CloudTalkServer, but no two queries sent in a run are
//             spelled alike: each cycle adds its number of KiB to the first
//             flow's size. Any cache or memo keyed on the query bytes or on
//             its canonical form misses here and may hit on flat.
//
// A closed-loop client sends its next query only once the previous reply is
// back.
// Service time runs on a virtual clock that advances one tick (50 ms) per
// answered query, so how long reservations hold depends on how many queries
// ran, not on how fast they ran. A reservation is held 300 ms = 6 ticks and
// a heuristic query reserves about 1.14 hosts, so about 7 of the fleet's 60
// candidate hosts are reserved at any time: the reservation filter steers
// bindings away from reserved hosts without running out of free ones. The
// warm-up pass reports the share of replies that found some variable's
// whole pool reserved.
//
// Correctness: every reply must bind each variable inside its pool. On the
// sharded workload a prefix of the queries is also answered sequentially by
// the sharded server and by a single CloudTalkServer on twin clusters; the
// replies must agree byte for byte (contract D505).
//
// --trace 0 switches the service's spans and metrics off at runtime
// (obs::SetRuntimeEnabled) and reports exact p50/p99 latency over every
// reply of the window and closed-loop throughput. --setup-only 1 reports
// set-up time instead (see MeasureSetup).
// --trace 1 leaves them on, the service's default, runs the same loop and
// reports where the service's time goes, read off the spans the service
// records in every QueryReply::trace: each span's self time (its duration
// minus its children's), summed per layer and divided by the replies, plus
// probes per query. The throughput gap between the two modes is the cost of
// tracing.
//
// What each layer should move: the language front end (parse, lint, canon)
// is about two thirds of an answer, so front-end work shows almost one for
// one in p50 and throughput; flat and sharded differ only in admission,
// status gathering and reserve, so a change to the shard path shows as the
// gap between those two workloads; flat and distinct differ only in whether
// spellings repeat, so a cache shows as the gap between those two.
//
// The last line of stdout is one JSON object with the keys correct,
// attempted, failed and metrics. Exit code 0 when the run completed (even if
// incorrect: `correct` says so), 2 on bad arguments.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/core/server.h"
#include "src/core/shard.h"
#include "src/harness/cluster.h"
#include "src/obs/metrics.h"
#include "src/topology/topology.h"

namespace cloudtalk {
namespace {

using Clock = std::chrono::steady_clock;

constexpr int kHosts = 64;
constexpr int kSlices = 4;
constexpr int kSliceHosts = kHosts / kSlices;
constexpr int kShards = 4;
constexpr int kQueriesPerClient = 1024;
constexpr int kSetupRepeats = 15;
constexpr int kIdentityQueries = 64;
constexpr Seconds kTick = 50 * kMillisecond;

struct Workload {
  const char* name;
  bool sharded;
  bool distinct;
};

constexpr int kClients = 2;
constexpr Workload kWorkloads[] = {
    {"flat", false, false},
    {"sharded", true, false},
    {"distinct", false, true},
};

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// ---------------------------------------------------------------------------
// Inputs

struct GeneratedQuery {
  // The text is head + first flow's size in KiB + tail.
  std::string head;
  int64_t size_kib = 0;
  std::string tail;
  std::string text;  // As spelled in cycle 0.
  // Every variable with its pool: a correct reply binds each one inside it.
  std::vector<std::pair<std::string, std::vector<std::string>>> pools;

  // The text sent in cycle `cycle` of a workload whose spellings never
  // repeat.
  std::string Respelled(int64_t cycle) const {
    return head + std::to_string(size_kib + cycle) + tail;
  }
};

// The fleet: single switch; in every host slice four hosts send background
// UDP (200, 400, 600, 800 Mbps) to hosts of the next slice and two hosts
// have a busy disk. The seed picks which hosts. Every slice carries the same
// load, so no seed draws a fleet that is cheaper to answer than another's.
// Status is measured once, up front.
std::unique_ptr<Cluster> MakeCluster(uint64_t seed) {
  SingleSwitchParams params;
  params.num_hosts = kHosts;
  ClusterOptions options;
  options.seed = seed;
  auto cluster = std::make_unique<Cluster>(MakeSingleSwitch(params), options);
  Rng rng(seed ^ 0x5bd1e9955bd1e995ull);
  for (int s = 0; s < kSlices; ++s) {
    const std::vector<int> picks = rng.SampleWithoutReplacement(kSliceHosts, 6);
    const int next = (s + 1) % kSlices * kSliceHosts;
    for (int k = 0; k < 4; ++k) {
      const int dst = next + static_cast<int>(rng.UniformInt(0, kSliceHosts - 1));
      cluster->AddBackgroundPair(cluster->host(s * kSliceHosts + picks[k]), cluster->host(dst),
                                 (k + 1) * 200 * kMbps);
    }
    for (int k = 4; k < 6; ++k) {
      cluster->AddDiskLoad(cluster->host(s * kSliceHosts + picks[k]), (k - 3) * kGbps,
                           (k - 3) * kGbps);
    }
  }
  cluster->MeasureNow();
  return cluster;
}

// `k` distinct hosts of slice `slice`, never its first host (the slice's
// literal flow sink, so no flow can run from a host to itself).
std::vector<std::string> PickPool(Rng& rng, const Cluster& cluster, int slice, int k) {
  std::vector<std::string> pool;
  for (const int idx : rng.SampleWithoutReplacement(kSliceHosts - 1, k)) {
    pool.push_back(cluster.ip(slice * kSliceHosts + 1 + idx));
  }
  return pool;
}

void DeclarePool(std::ostringstream& text, GeneratedQuery& q, const std::string& name,
                 std::vector<std::string> pool) {
  text << name << " = (";
  for (size_t i = 0; i < pool.size(); ++i) {
    text << (i == 0 ? "" : " ") << pool[i];
  }
  text << ")\n";
  q.pools.emplace_back(name, std::move(pool));
}

// Query shape follows the query's index `i` (periods 5, 7 and 3 are
// coprime, so the features combine evenly); hosts and sizes come from `rng`.
// Fixing the shape proportions keeps the latency distribution the same from
// seed to seed — a drawn mix of a few hundred queries shifts the median by
// several percent on its own.
//
// Heuristic mix: one variable over 2-6 hosts (two variables in 3 of 7
// queries, the second feeding the first), a transfer to the slice's sink,
// a disk write in 1 of 3; 1 in 5 use nominal (static) status and another
// 1 in 5 do not reserve.
GeneratedQuery HeuristicQuery(Rng& rng, const Cluster& cluster, int slice, int i) {
  GeneratedQuery q;
  std::ostringstream text;
  if (i % 5 == 0) {
    text << "option static\n";
  }
  if (i % 5 == 1) {
    text << "option noreserve\n";
  }
  const bool two_vars = i % 7 < 3;
  DeclarePool(text, q, "A", PickPool(rng, cluster, slice, static_cast<int>(rng.UniformInt(2, 6))));
  if (two_vars) {
    DeclarePool(text, q, "B",
                PickPool(rng, cluster, slice, static_cast<int>(rng.UniformInt(2, 6))));
  }
  text << "f1 A -> " << cluster.ip(slice * kSliceHosts) << " size ";
  q.head = text.str();
  q.size_kib = static_cast<int64_t>(rng.UniformInt(1, 64)) * 1024;
  text.str("");
  text << "K\n";
  if (i % 3 == 0) {
    text << "f2 A -> disk size " << rng.UniformInt(1, 32) << "M\n";
  }
  if (two_vars) {
    text << "f3 B -> A size " << rng.UniformInt(1, 64) << "M\n";
  }
  q.tail = text.str();
  q.text = q.Respelled(0);
  return q;
}

// Client c's queries. Clients work disjoint host slices (c, c + kClients,
// ...) so concurrent reserving queries rarely contend in the admission gate.
std::vector<std::vector<GeneratedQuery>> MakeQueries(uint64_t seed, const Cluster& cluster) {
  std::vector<std::vector<GeneratedQuery>> lists(kClients);
  for (int c = 0; c < kClients; ++c) {
    Rng rng(seed * 0x9e3779b97f4a7c15ull + static_cast<uint64_t>(c) + 1);
    for (int i = 0; i < kQueriesPerClient; ++i) {
      lists[c].push_back(HeuristicQuery(rng, cluster, (c + kClients * i) % kSlices, i));
    }
  }
  return lists;
}

// ---------------------------------------------------------------------------
// The service under test: a fleet plus a flat or sharded server on it.

class Service {
 public:
  Service(uint64_t seed, bool sharded) : cluster_(MakeCluster(seed)) {
    ServerConfig config;
    config.seed = seed;
    config.eval_threads = 1;
    config.admission_slots = kClients;
    auto clock = [this] {
      return static_cast<double>(ticks_.load(std::memory_order_relaxed)) * kTick;
    };
    if (sharded) {
      ShardedConfig sharded_config;
      sharded_config.server = config;
      sharded_config.shards = kShards;
      sharded_ = std::make_unique<ShardedServer>(sharded_config, &cluster_->directory(),
                                                 &cluster_->transport(), clock);
    } else {
      flat_ = std::make_unique<CloudTalkServer>(config, &cluster_->directory(),
                                                &cluster_->transport(), clock);
    }
  }

  Result<QueryReply> Answer(const std::string& text) {
    Result<QueryReply> reply = sharded_ ? sharded_->Answer(text) : flat_->Answer(text);
    ticks_.fetch_add(1, std::memory_order_relaxed);
    return reply;
  }

  // Whether `address` is reserved now, by whichever table owns it.
  bool IsReserved(const std::string& address) const {
    const Seconds now = static_cast<double>(ticks_.load(std::memory_order_relaxed)) * kTick;
    return sharded_ ? sharded_->IsReservedAnywhere(address, now)
                    : flat_->reservations().IsReserved(address, now);
  }

  const Cluster& cluster() const { return *cluster_; }

 private:
  std::unique_ptr<Cluster> cluster_;
  std::atomic<int64_t> ticks_{0};
  std::unique_ptr<CloudTalkServer> flat_;
  std::unique_ptr<ShardedServer> sharded_;
};

// ---------------------------------------------------------------------------
// Per-layer time, from the service's own trace spans

enum Layer {
  kParse,
  kLint,
  kCanon,
  kCompile,
  kScope,
  kAdmission,
  kStatus,
  kBound,
  kBind,
  kReserve,
  kOther,
  kLayerCount
};
constexpr const char* kLayerNames[kLayerCount] = {
    "parse", "lint", "canon", "compile", "scope", "admission",
    "status", "bound", "bind", "reserve", "other"};

// The layer a span's self time is charged to. Admission: the sharded server
// times its N-slot gate in the route span; the flat server has no span of
// its own for it, and its sample span, which opens where the scope span
// closed, carries the wait (for a static query the root does). Status:
// hierarchical aggregation and probing. Other: the root's self time.
Layer LayerOf(std::string_view span) {
  static constexpr std::pair<std::string_view, Layer> kSpans[] = {
      {"parse", kParse},      {"lint", kLint},           {"canon", kCanon},
      {"compile", kCompile},  {"scope", kScope},         {"route", kAdmission},
      {"sample", kAdmission}, {"aggregate", kStatus},    {"probe", kStatus},
      {"bound", kBound},      {"bind", kBind},           {"reserve", kReserve}};
  for (const auto& [name, layer] : kSpans) {
    if (span == name) {
      return layer;
    }
  }
  return kOther;
}

struct LayerSample {
  double seconds[kLayerCount] = {};
  int64_t probes = 0;    // Status probes sent.
  int64_t untraced = 0;  // Replies that carried no trace.

  void Add(const QueryReply& reply) {
    probes += reply.probe_stats.requests_sent;
    const std::vector<obs::TraceSpan>& spans = reply.trace.spans;
    if (spans.empty()) {
      ++untraced;
      return;
    }
    std::vector<double> self(spans.size());
    for (size_t i = 0; i < spans.size(); ++i) {
      self[i] += spans[i].duration;
      const int parent = spans[i].parent;
      if (parent >= 0 && parent < static_cast<int>(spans.size())) {
        self[parent] -= spans[i].duration;
      }
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      seconds[LayerOf(spans[i].name())] += self[i];
    }
  }

  void Merge(const LayerSample& other) {
    for (int l = 0; l < kLayerCount; ++l) {
      seconds[l] += other.seconds[l];
    }
    probes += other.probes;
    untraced += other.untraced;
  }
};

// ---------------------------------------------------------------------------
// Checks

bool ValidReply(const GeneratedQuery& q, const Result<QueryReply>& reply) {
  if (!reply.ok()) {
    return false;
  }
  const QueryReply& r = reply.value();
  if (r.binding.size() != q.pools.size()) {
    return false;
  }
  for (const auto& [var, pool] : q.pools) {
    const auto it = r.binding.find(var);
    if (it == r.binding.end() ||
        std::find(pool.begin(), pool.end(), it->second.name) == pool.end()) {
      return false;
    }
  }
  return true;
}

std::string ReplyDigest(const Result<QueryReply>& reply) {
  if (!reply.ok()) {
    return "error: " + reply.error().message;
  }
  const QueryReply& r = reply.value();
  std::vector<std::pair<std::string, std::string>> binding;
  for (const auto& [var, endpoint] : r.binding) {
    binding.emplace_back(var, endpoint.name);
  }
  std::sort(binding.begin(), binding.end());
  std::string out = "binding";
  for (const auto& [var, name] : binding) {
    out += " " + var + "=" + name;
  }
  char buf[160];
  for (const auto& [name, score] : r.scores) {
    std::snprintf(buf, sizeof(buf), " score %s=%.17g", name.c_str(), score);
    out += buf;
  }
  std::snprintf(buf, sizeof(buf), " makespan %.17g probes %d", r.estimate.makespan,
                r.probe_stats.requests_sent);
  return out + buf;
}

// Sharded workload only: answers the first kIdentityQueries queries (clients
// interleaved) in order on twin clusters, once by the sharded server and
// once by a single CloudTalkServer. Returns the number of replies that
// differ.
int ShardIdentityMismatches(const Workload& w, uint64_t seed,
                            const std::vector<std::vector<GeneratedQuery>>& lists) {
  if (!w.sharded) {
    return 0;
  }
  Service sharded(seed, /*sharded=*/true);
  Service flat(seed, /*sharded=*/false);
  int mismatches = 0;
  for (int i = 0; i < kIdentityQueries; ++i) {
    const GeneratedQuery& q = lists[i % lists.size()][i / lists.size()];
    const std::string want = ReplyDigest(flat.Answer(q.text));
    const std::string got = ReplyDigest(sharded.Answer(q.text));
    if (want != got) {
      ++mismatches;
      std::fprintf(stderr, "shard identity mismatch on query %d:\n%s  flat:    %s\n  sharded: %s\n",
                   i, q.text.c_str(), want.c_str(), got.c_str());
    }
  }
  return mismatches;
}

struct WarmUpResult {
  int invalid = 0;
  int replies = 0;
  int saturated = 0;  // Replies where some variable found its whole pool reserved.
};

// One sequential pass over every client's queries: lets lazy state settle
// (reservation tables, estimator scratch, first-touch allocations) before
// the timed window, and counts the replies answered in the saturated regime
// where the reservation filter had no free candidate for some variable.
WarmUpResult WarmUp(Service& service, const std::vector<std::vector<GeneratedQuery>>& lists) {
  WarmUpResult out;
  for (const auto& list : lists) {
    for (const GeneratedQuery& q : list) {
      ++out.replies;
      const bool saturated =
          std::any_of(q.pools.begin(), q.pools.end(), [&service](const auto& var) {
            return std::all_of(
                var.second.begin(), var.second.end(),
                [&service](const std::string& host) { return service.IsReserved(host); });
          });
      out.saturated += saturated ? 1 : 0;
      out.invalid += ValidReply(q, service.Answer(q.text)) ? 0 : 1;
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// The closed loop

struct ClientResult {
  std::vector<double> latencies;  // Seconds, one per reply.
  int64_t failed = 0;
  LayerSample layers;  // Summed over the client's replies (trace runs only).
};

// Cycle 0 is the warm-up pass, so on a distinct workload the timed window
// starts at cycle 1 and never resends a warm-up spelling.
ClientResult RunClient(Service& service, const std::vector<GeneratedQuery>& queries,
                       Clock::time_point deadline, bool distinct, bool trace) {
  ClientResult out;
  out.latencies.reserve(1 << 16);
  std::string respelled;
  for (size_t i = 0; Clock::now() < deadline; ++i) {
    const GeneratedQuery& q = queries[i % queries.size()];
    if (distinct) {
      respelled = q.Respelled(static_cast<int64_t>(i / queries.size()) + 1);
    }
    const Clock::time_point start = Clock::now();
    const Result<QueryReply> reply = service.Answer(distinct ? respelled : q.text);
    out.latencies.push_back(SecondsSince(start));
    if (!ValidReply(q, reply)) {
      ++out.failed;
    } else if (trace) {
      out.layers.Add(reply.value());
    }
  }
  return out;
}

struct LoopResult {
  std::vector<double> latencies;  // Sorted.
  int64_t failed = 0;
  double elapsed = 0;
  LayerSample layers;
};

LoopResult RunClosedLoop(Service& service, const std::vector<std::vector<GeneratedQuery>>& lists,
                         double seconds, bool distinct, bool trace) {
  std::vector<ClientResult> results(lists.size());
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
  std::vector<std::thread> clients;
  for (size_t c = 0; c < lists.size(); ++c) {
    clients.emplace_back([&service, &lists, &results, deadline, distinct, trace, c] {
      results[c] = RunClient(service, lists[c], deadline, distinct, trace);
    });
  }
  for (std::thread& client : clients) {
    client.join();
  }
  LoopResult loop;
  loop.elapsed = SecondsSince(start);
  for (const ClientResult& r : results) {
    loop.latencies.insert(loop.latencies.end(), r.latencies.begin(), r.latencies.end());
    loop.failed += r.failed;
    loop.layers.Merge(r.layers);
  }
  std::sort(loop.latencies.begin(), loop.latencies.end());
  return loop;
}

// Exact nearest-rank percentile of sorted samples.
double Percentile(const std::vector<double>& sorted, double p) {
  const size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(sorted.size())));
  return sorted[std::clamp<size_t>(rank, 1, sorted.size()) - 1];
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string json = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  char buf[256];
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                  metrics[i].unit);
    json += buf;
  }
  std::printf("%s}}\n", json.c_str());
}

int Usage() {
  std::fprintf(stderr,
               "usage: ctbench --workload flat|sharded|distinct --seed N --seconds S "
               "--trace 0|1\n"
               "       ctbench --workload flat|sharded|distinct --seed N --setup-only 1\n");
  return 2;
}

// Set-up time: fleet and server construction, the median of kSetupRepeats
// constructions after one untimed one (which pays for first-touch page
// faults). Runs in a process of its own: the figure reads about 50 us in
// most processes and about 75 us in some, for the whole life of the
// process, so ctbench/run.py averages it over several processes.
int MeasureSetup(const Workload& w, uint64_t seed) {
  auto service = std::make_unique<Service>(seed, w.sharded);
  std::vector<double> setups;
  for (int r = 0; r < kSetupRepeats; ++r) {
    service.reset();
    const Clock::time_point start = Clock::now();
    service = std::make_unique<Service>(seed, w.sharded);
    setups.push_back(SecondsSince(start));
  }
  PrintResult(true, kSetupRepeats, 0, {{"setup_s", Median(setups), "s"}});
  return 0;
}

int Main(int argc, char** argv) {
  const Workload* workload = nullptr;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool setup_only = false;
  if (argc % 2 == 0) {
    return Usage();
  }
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (std::strcmp(w.name, value) == 0) {
          workload = &w;
        }
      }
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::atof(value);
    } else if (flag == "--trace") {
      trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--setup-only") {
      setup_only = std::strcmp(value, "1") == 0;
    } else {
      return Usage();
    }
  }
  if (workload == nullptr || !(seconds > 0)) {
    return Usage();
  }
  const Workload& w = *workload;
  obs::SetRuntimeEnabled(trace);
  if (setup_only) {
    return MeasureSetup(w, seed);
  }

  Service service(seed, w.sharded);
  const std::vector<std::vector<GeneratedQuery>> lists = MakeQueries(seed, service.cluster());
  const WarmUpResult warm = WarmUp(service, lists);
  const int mismatches = ShardIdentityMismatches(w, seed, lists);

  const LoopResult loop = RunClosedLoop(service, lists, seconds, w.distinct, trace);
  const int64_t attempted = static_cast<int64_t>(loop.latencies.size());
  const bool correct = attempted > 0 && loop.failed == 0 && warm.invalid == 0 &&
                       mismatches == 0 && loop.layers.untraced == 0;
  std::printf("workload %s seed %llu: %d client(s), %lld replies in %.3fs, %lld failed, "
              "%d warm-up invalid, %d shard identity mismatches\n",
              w.name, static_cast<unsigned long long>(seed), kClients,
              static_cast<long long>(attempted), loop.elapsed,
              static_cast<long long>(loop.failed), warm.invalid, mismatches);
  std::printf("  warm-up: %d of %d replies (%.2f%%) found some pool fully reserved\n",
              warm.saturated, warm.replies, 100.0 * warm.saturated / warm.replies);
  if (attempted == 0) {
    PrintResult(false, 1, 1, {});
    return 0;
  }

  std::vector<Metric> metrics;
  if (!trace) {
    metrics = {
        {"latency_p50_ms", Percentile(loop.latencies, 0.50) * 1e3, "ms"},
        {"latency_p99_ms", Percentile(loop.latencies, 0.99) * 1e3, "ms"},
        {"throughput_qps", static_cast<double>(attempted) / loop.elapsed, "1/s"},
    };
  } else {
    const double n = static_cast<double>(attempted);
    for (int l = 0; l < kLayerCount; ++l) {
      metrics.push_back(
          {std::string(kLayerNames[l]) + "_us", loop.layers.seconds[l] / n * 1e6, "us"});
    }
    metrics.push_back({"probes_per_query", static_cast<double>(loop.layers.probes) / n, "count"});
  }
  for (const Metric& m : metrics) {
    std::printf("  %-22s %14.6f %s\n", m.name.c_str(), m.value, m.unit);
  }
  PrintResult(correct, attempted, loop.failed, metrics);
  return 0;
}

}  // namespace
}  // namespace cloudtalk

int main(int argc, char** argv) { return cloudtalk::Main(argc, argv); }
