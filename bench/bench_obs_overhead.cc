// The observability layer (metrics registry + query tracing) must cost
// under 5% of the query-response path.
//
// The layer is always compiled in, so the bench flips its runtime switch
// (obs::SetRuntimeEnabled): with it off, every CT_OBS_* macro takes the
// early-exit branch and TraceContexts record nothing, which leaves one
// relaxed load per call site. The difference is what recording costs. The
// workload is the full CloudTalkServer::Answer path (parse, lint, compile,
// sample, probe over the simulated transport, heuristic bind, reserve) on
// the Section 5.3 HDFS-write query over a 20-host cluster.
//
// ON/OFF batches are interleaved (ABAB...) so clock drift and thermal state
// cancel; the reported figure is the median batch time per side.
//
// The report (bench/experiments.h) goes to stdout and to argv[1] when given
// (CI stores it as BENCH_obs.json). Exit code: 0 = overhead under the
// bound, 1 = the instrumented path is >5% slower, 2 = a query was rejected
// or argv[1] cannot be written.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "bench/experiments.h"
#include "src/harness/cluster.h"
#include "src/obs/metrics.h"
#include "src/topology/topology.h"

using namespace cloudtalk;

namespace {

// HDFS write pipeline over the cluster's real addresses (10.0.0.*).
std::string WriteQuery(int n) {
  std::ostringstream query;
  query << "r1 = r2 = r3 = (";
  for (int i = 1; i <= n; ++i) {
    query << "10.0.0." << i << " ";
  }
  query << ")\n";
  query << "f1 10.0.0." << (n + 1) << " -> r1 size 256M rate r(f2)\n";
  query << "f2 r1 -> disk size 256M rate r(f1)\n";
  query << "f3 r1 -> r2 size 256M rate r(f4) transfer t(f2)\n";
  query << "f4 r2 -> disk size 256M rate r(f3)\n";
  query << "f5 r2 -> r3 size 256M rate r(f6) transfer t(f4)\n";
  query << "f6 r3 -> disk size 256M rate r(f5)\n";
  return query.str();
}

// Median batch time in microseconds for `batches` x `iters` Answer calls.
double RunBatches(Cluster& cluster, const std::string& text, bool enabled, int batches,
                  int iters, std::vector<double>* out) {
  out->clear();
  for (int b = 0; b < batches; ++b) {
    obs::SetRuntimeEnabled(enabled);
    const auto begin = std::chrono::steady_clock::now();
    for (int i = 0; i < iters; ++i) {
      auto reply = cluster.cloudtalk().Answer(text);
      if (!reply.ok()) {
        std::fprintf(stderr, "query rejected: %s\n", reply.error().ToString().c_str());
        std::exit(2);
      }
    }
    const auto end = std::chrono::steady_clock::now();
    out->push_back(std::chrono::duration<double, std::micro>(end - begin).count() / iters);
  }
  std::vector<double> sorted = *out;
  std::sort(sorted.begin(), sorted.end());
  return sorted[sorted.size() / 2];
}

}  // namespace

int main(int argc, char** argv) {
  const int n = 20;
  const int iters = bench::QuickMode() ? 50 : 200;
  const int batches = bench::QuickMode() ? 11 : 31;

  bench::PrintHeader("Observability overhead on the query-response path");

  SingleSwitchParams params;
  params.num_hosts = n + 1;  // Pool hosts plus the writing client.
  params.host_caps.nic_up = params.host_caps.nic_down = 1 * kGbps;
  params.host_caps.disk_read = params.host_caps.disk_write = 4 * kGbps;
  ClusterOptions options;
  options.server.eval_threads = 1;
  Cluster cluster(MakeSingleSwitch(params), options);
  cluster.StartStatusSweep();
  cluster.MeasureNow();

  const std::string text = WriteQuery(n);

  // Warm-up: fault in code paths, populate metric instruments, fill the
  // reservation table to steady state.
  std::vector<double> scratch;
  RunBatches(cluster, text, true, 2, iters, &scratch);
  RunBatches(cluster, text, false, 2, iters, &scratch);

  // Interleave ON/OFF batches so slow drift hits both sides equally.
  std::vector<double> on_batches;
  std::vector<double> off_batches;
  for (int round = 0; round < batches; ++round) {
    std::vector<double> one;
    RunBatches(cluster, text, true, 1, iters, &one);
    on_batches.push_back(one[0]);
    RunBatches(cluster, text, false, 1, iters, &one);
    off_batches.push_back(one[0]);
  }
  obs::SetRuntimeEnabled(true);

  std::sort(on_batches.begin(), on_batches.end());
  std::sort(off_batches.begin(), off_batches.end());
  const double on_us = on_batches[on_batches.size() / 2];
  const double off_us = off_batches[off_batches.size() / 2];
  const double overhead_pct = off_us > 0 ? (on_us - off_us) / off_us * 100.0 : 0.0;

  bench::JsonReport report("obs_overhead");
  report.Case("answer_path", "HDFS write query over " + std::to_string(n) +
                                 " hosts, median batch: obs runtime-enabled vs disabled");
  report.Metric("on_us", on_us, "us", "lower");
  report.Metric("off_us", off_us, "us", "lower");
  report.Floor("overhead_pct", overhead_pct, 5.0, overhead_pct < 5.0);
  if (!report.Write(argc > 1 ? argv[1] : nullptr)) {
    return 2;
  }
  return report.pass() ? 0 : 1;
}
