// Closed-loop throughput of the sharded CloudTalk service (ISSUE 10).
//
// Two phases:
//  1. Identity: 64 generated queries are answered by the one-shard
//     CloudTalkServer and by a 4-shard CloudTalkServer on identically seeded
//     twin clusters; every reply must be byte-identical (the D505 contract
//     — the fuzzing version lives in `ctcheck --diff-shard`).
//  2. Throughput: 8 closed-loop client threads issue queries against one
//     4-shard CloudTalkServer (admission_slots = 8) over a 32-host fleet and
//     the run reports qps plus p50/p99 answer latency read back from the
//     M102 answer-seconds histogram.
//
// The report (bench/experiments.h) goes to stdout and to argv[1] when given
// (CI archives it as BENCH_throughput.json). Exits nonzero when any reply
// diverges, the closed-loop rate falls under the 1000 qps floor the
// acceptance gate sets, or argv[1] cannot be written.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/experiments.h"
#include "src/common/rng.h"
#include "src/core/server.h"
#include "src/core/shard.h"
#include "src/harness/cluster.h"
#include "src/obs/metrics.h"
#include "src/topology/topology.h"

namespace cloudtalk {
namespace {

constexpr int kHosts = 32;
constexpr int kShards = 4;
constexpr int kClientThreads = 8;
constexpr int kQueriesPerThread = 2000;
constexpr int kIdentityQueries = 64;
constexpr double kQpsFloor = 1000.0;

std::unique_ptr<Cluster> MakeBenchCluster(uint64_t seed) {
  SingleSwitchParams params;
  params.num_hosts = kHosts;
  params.host_caps.nic_up = params.host_caps.nic_down = 1 * kGbps;
  params.host_caps.disk_read = params.host_caps.disk_write = 4 * kGbps;
  ClusterOptions options;
  options.seed = seed;
  options.server.seed = seed;
  options.server.eval_threads = 1;
  options.server.reservation_hold = 60.0;
  options.server.admission_slots = kClientThreads;
  auto cluster = std::make_unique<Cluster>(MakeSingleSwitch(params), options);
  cluster->StartStatusSweep();
  cluster->AddBackgroundPair(cluster->host(2), cluster->host(5), 600 * kMbps);
  cluster->AddBackgroundPair(cluster->host(9), cluster->host(12), 800 * kMbps);
  cluster->MeasureNow();
  return cluster;
}

ShardedConfig BenchShardConfig(Cluster* cluster) {
  ShardedConfig cfg;
  cfg.server = cluster->cloudtalk().config();
  cfg.shards = kShards;
  return cfg;
}

// A small deterministic query generator: a 2-4 host pool from a host slice,
// one or two flows, occasionally static/noreserve.
std::string GenerateQuery(Cluster* cluster, uint64_t seed, int lo, int hi) {
  Rng rng(seed ^ 0xa0761d6478bd642full);
  std::ostringstream q;
  if (rng.Bernoulli(0.3)) {
    q << "option static\n";
  }
  if (rng.Bernoulli(0.2)) {
    q << "option noreserve\n";
  }
  const int span = hi - lo + 1;
  const int k = static_cast<int>(rng.UniformInt(2, std::min(4, span)));
  q << "A = (";
  bool first = true;
  for (const int idx : rng.SampleWithoutReplacement(span, k)) {
    q << (first ? "" : " ") << cluster->ip(lo + idx);
    first = false;
  }
  q << ")\nf1 A -> " << cluster->ip(lo) << " size " << rng.UniformInt(1, 64) << "M\n";
  if (rng.Bernoulli(0.4)) {
    q << "f2 A -> disk size " << rng.UniformInt(1, 32) << "M\n";
  }
  return q.str();
}

std::string ReplyDigest(const Result<QueryReply>& reply) {
  if (!reply.ok()) {
    return "error: " + reply.error().message;
  }
  std::ostringstream out;
  out << "binding [";
  for (const auto& [var, endpoint] : reply.value().binding) {
    out << var << "=" << endpoint.name << " ";
  }
  out << "] scores [";
  for (const auto& [name, score] : reply.value().scores) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%s=%.17g ", name.c_str(), score);
    out << buf;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", reply.value().estimate.makespan);
  out << "] makespan " << buf;
  return out.str();
}

int IdentityPhase() {
  int mismatches = 0;
  const std::unique_ptr<Cluster> oracle_cluster_ptr = MakeBenchCluster(/*seed=*/42);
  Cluster& oracle_cluster = *oracle_cluster_ptr;
  const std::unique_ptr<Cluster> sharded_cluster_ptr = MakeBenchCluster(/*seed=*/42);
  Cluster& sharded_cluster = *sharded_cluster_ptr;
  CloudTalkServer sharded(BenchShardConfig(&sharded_cluster), &sharded_cluster.directory(),
                          &sharded_cluster.transport(),
                          [&sharded_cluster] { return sharded_cluster.now(); });
  for (int i = 0; i < kIdentityQueries; ++i) {
    const int lo = (i % 4) * (kHosts / 4);
    const std::string query = GenerateQuery(&oracle_cluster, static_cast<uint64_t>(i), lo,
                                            lo + kHosts / 4 - 1);
    const std::string want = ReplyDigest(oracle_cluster.cloudtalk().Answer(query));
    const std::string got = ReplyDigest(sharded.Answer(query));
    if (got != want) {
      ++mismatches;
      std::fprintf(stderr, "identity mismatch on query %d:\n  single:  %s\n  sharded: %s\n",
                   i, want.c_str(), got.c_str());
    }
  }
  return mismatches;
}

// Answer-latency percentile out of the M102 histogram: the upper bound of
// the first bucket whose cumulative count covers quantile `q`.
double HistogramQuantile(const obs::Histogram& hist, double q) {
  const int64_t total = hist.count();
  if (total == 0) {
    return 0;
  }
  const int64_t want = static_cast<int64_t>(q * static_cast<double>(total - 1)) + 1;
  for (int b = 0; b < hist.spec().buckets; ++b) {
    if (hist.CumulativeCount(b) >= want) {
      return hist.UpperBound(b);
    }
  }
  return hist.UpperBound(hist.spec().buckets - 1);
}

int main(int argc, char** argv) {
  std::printf("identity: %d queries, one-shard vs %d-shard CloudTalkServer...\n",
              kIdentityQueries, kShards);
  const int mismatches = IdentityPhase();
  std::printf("identity: %d mismatch(es)\n", mismatches);

  const std::unique_ptr<Cluster> cluster_ptr = MakeBenchCluster(/*seed=*/7);
  Cluster& cluster = *cluster_ptr;
  CloudTalkServer sharded(BenchShardConfig(&cluster), &cluster.directory(),
                          &cluster.transport(), [&cluster] { return cluster.now(); });
  // Warm every thread's path once, then zero the registry so the measured
  // window holds exactly the closed-loop queries.
  (void)sharded.Answer(GenerateQuery(&cluster, 999, 0, kHosts / 4 - 1));
  obs::Registry::Instance().Reset();

  std::vector<std::thread> clients;
  std::atomic<int64_t> answered{0};
  std::atomic<int64_t> failed{0};
  const auto start = std::chrono::steady_clock::now();
  for (int t = 0; t < kClientThreads; ++t) {
    clients.emplace_back([&cluster, &sharded, &answered, &failed, t] {
      // Each client works a fixed host slice so admission mostly proceeds in
      // parallel (disjoint footprints), with occasional cross-slice overlap
      // from the shared slice boundaries exercising the conflict path.
      const int lo = (t % 4) * (kHosts / 4);
      for (int i = 0; i < kQueriesPerThread; ++i) {
        const uint64_t seed = static_cast<uint64_t>(t) * kQueriesPerThread +
                              static_cast<uint64_t>(i);
        const std::string query = GenerateQuery(&cluster, seed, lo, lo + kHosts / 4 - 1);
        if (sharded.Answer(query).ok()) {
          answered.fetch_add(1, std::memory_order_relaxed);
        } else {
          failed.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& client : clients) {
    client.join();
  }
  const std::chrono::duration<double> elapsed = std::chrono::steady_clock::now() - start;

  const int64_t total = answered.load() + failed.load();
  const double qps = static_cast<double>(total) / elapsed.count();
  const obs::Histogram& hist = *obs::Registry::Instance().histogram("M102");
  const double p50 = HistogramQuantile(hist, 0.50);
  const double p99 = HistogramQuantile(hist, 0.99);
  std::printf("throughput: %lld queries (%lld failed) in %.3fs = %.0f qps, "
              "p50 <= %.6fs, p99 <= %.6fs\n",
              static_cast<long long>(total), static_cast<long long>(failed.load()),
              elapsed.count(), qps, p50, p99);

  bench::JsonReport report("throughput");
  report.Case("closed_loop", std::to_string(kClientThreads) + " closed-loop clients, " +
                                 std::to_string(kShards) + " shards, " + std::to_string(kHosts) +
                                 " hosts; identity over " + std::to_string(kIdentityQueries) +
                                 " queries, 1 vs " + std::to_string(kShards) + " shards");
  report.Metric("qps", qps, "1/s", "higher");
  report.Metric("p50_seconds", p50, "s", "lower");
  report.Metric("p99_seconds", p99, "s", "lower");
  report.Metric("failed", static_cast<double>(failed.load()), "count", "lower");
  report.Floor("identity_mismatches", mismatches, 0, mismatches == 0);
  report.Floor("qps", qps, kQpsFloor, qps >= kQpsFloor);
  const bool written = report.Write(argc > 1 ? argv[1] : nullptr);
  return written && report.pass() ? 0 : 1;
}

}  // namespace
}  // namespace cloudtalk

int main(int argc, char** argv) { return cloudtalk::main(argc, argv); }
