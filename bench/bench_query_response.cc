// Section 5.1 query response-time microbenchmarks (google-benchmark).
//
// Paper numbers, 20-server HDFS-write-style query:
//   parse           0.32 ms
//   heuristic eval  0.13 ms
//   total           0.45 ms
//   brute force      130 ms
#include <benchmark/benchmark.h>

#include <sstream>
#include <string>

#include "src/common/rng.h"
#include "src/core/estimator.h"
#include "src/core/exhaustive.h"
#include "src/core/heuristic.h"
#include "src/lang/analysis.h"
#include "src/lang/parser.h"

using namespace cloudtalk;

namespace {

// The Section 5.3 HDFS write pipeline query over 20 servers.
std::string WriteQuery(int n) {
  std::ostringstream query;
  query << "r1 = r2 = r3 = (";
  for (int i = 1; i <= n; ++i) {
    query << "dn" << i << " ";
  }
  query << ")\n";
  query << "f1 client -> r1 size 256M rate r(f2)\n";
  query << "f2 r1 -> disk size 256M rate r(f1)\n";
  query << "f3 r1 -> r2 size 256M rate r(f4) transfer t(f2)\n";
  query << "f4 r2 -> disk size 256M rate r(f3)\n";
  query << "f5 r2 -> r3 size 256M rate r(f6) transfer t(f4)\n";
  query << "f6 r3 -> disk size 256M rate r(f5)\n";
  return query.str();
}

StatusByAddress RandomStatus(int n, uint64_t seed) {
  Rng rng(seed);
  StatusByAddress status;
  auto fill = [&](const std::string& name) {
    StatusReport report;
    report.nic_tx_cap = report.nic_rx_cap = 1e9;
    report.nic_tx_use = rng.Uniform(0, 0.9) * 1e9;
    report.nic_rx_use = rng.Uniform(0, 0.9) * 1e9;
    report.disk_read_cap = report.disk_write_cap = 3e9;
    report.disk_write_use = rng.Uniform(0, 0.5) * 3e9;
    status[name] = report;
  };
  for (int i = 1; i <= n; ++i) {
    fill("dn" + std::to_string(i));
  }
  fill("client");
  return status;
}

void BM_ParseWriteQuery(benchmark::State& state) {
  const std::string text = WriteQuery(20);
  for (auto _ : state) {
    auto query = lang::Parse(text);
    benchmark::DoNotOptimize(query);
  }
}
BENCHMARK(BM_ParseWriteQuery)->Unit(benchmark::kMicrosecond);

void BM_CompileWriteQuery(benchmark::State& state) {
  auto query = lang::Parse(WriteQuery(20));
  for (auto _ : state) {
    auto compiled = lang::CompiledQuery::Compile(query.value());
    benchmark::DoNotOptimize(compiled);
  }
}
BENCHMARK(BM_CompileWriteQuery)->Unit(benchmark::kMicrosecond);

void BM_HeuristicEval(benchmark::State& state) {
  auto query = lang::Parse(WriteQuery(20));
  auto compiled = lang::CompiledQuery::Compile(query.value());
  const lang::HostStatus status(compiled.value().hosts(), RandomStatus(20, 1));
  HeuristicParams params;
  for (auto _ : state) {
    auto result = EvaluateHeuristic(compiled.value(), status, params);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_HeuristicEval)->Unit(benchmark::kMicrosecond);

void BM_FullAnswerParseAndEval(benchmark::State& state) {
  const std::string text = WriteQuery(20);
  const StatusByAddress status = RandomStatus(20, 1);
  HeuristicParams params;
  for (auto _ : state) {
    auto query = lang::Parse(text);
    auto compiled = lang::CompiledQuery::Compile(query.value());
    auto result = EvaluateHeuristic(
        compiled.value(), lang::HostStatus(compiled.value().hosts(), status), params);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_FullAnswerParseAndEval)->Unit(benchmark::kMicrosecond);

// The paper's 130 ms comparison point: exhaustive evaluation of the same
// query via the flow-level estimator (20*19*18 = 6840 bindings), on the
// original engine path (per-binding topology rebuild, no memo, one thread).
void BM_BruteForceEvalSeedPath(benchmark::State& state) {
  auto query = lang::Parse(WriteQuery(20));
  auto compiled = lang::CompiledQuery::Compile(query.value());
  const lang::HostStatus status(compiled.value().hosts(), RandomStatus(20, 1));
  FlowLevelEstimator estimator(0.1, /*reuse_scratch=*/false);
  ExhaustiveParams params;
  params.memoize = false;
  for (auto _ : state) {
    auto result = EvaluateExhaustive(compiled.value(), status, estimator, params);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_BruteForceEvalSeedPath)->Unit(benchmark::kMillisecond)->Iterations(3);

// Same space on the ISSUE 1 engine: prepared scratch + signature memo,
// serial (defaults).
void BM_BruteForceEval(benchmark::State& state) {
  auto query = lang::Parse(WriteQuery(20));
  auto compiled = lang::CompiledQuery::Compile(query.value());
  const lang::HostStatus status(compiled.value().hosts(), RandomStatus(20, 1));
  FlowLevelEstimator estimator;
  for (auto _ : state) {
    auto result = EvaluateExhaustive(compiled.value(), status, estimator);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_BruteForceEval)->Unit(benchmark::kMillisecond)->Iterations(3);

// And sharded over the worker pool (0 = hardware concurrency).
void BM_BruteForceEvalParallel(benchmark::State& state) {
  auto query = lang::Parse(WriteQuery(20));
  auto compiled = lang::CompiledQuery::Compile(query.value());
  const lang::HostStatus status(compiled.value().hosts(), RandomStatus(20, 1));
  FlowLevelEstimator estimator;
  ExhaustiveParams params;
  params.threads = 0;
  for (auto _ : state) {
    auto result = EvaluateExhaustive(compiled.value(), status, estimator, params);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_BruteForceEvalParallel)->Unit(benchmark::kMillisecond)->Iterations(3);

void BM_HeuristicEvalLargePool(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::ostringstream text;
  text << "r1 = r2 = r3 = (";
  for (int i = 1; i <= n; ++i) {
    text << "dn" << i << " ";
  }
  text << ")\nf1 client -> r1 size 256M\nf2 r1 -> r2 size 256M\nf3 r2 -> r3 size 256M\n";
  auto query = lang::Parse(text.str());
  auto compiled = lang::CompiledQuery::Compile(query.value());
  const lang::HostStatus status(compiled.value().hosts(), RandomStatus(n, 1));
  HeuristicParams params;
  for (auto _ : state) {
    auto result = EvaluateHeuristic(compiled.value(), status, params);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_HeuristicEvalLargePool)->Arg(100)->Arg(300)->Arg(1000)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
