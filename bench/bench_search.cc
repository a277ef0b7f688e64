// The exhaustive search's acceptance bench. Each case times engine
// configurations of EvaluateExhaustive on one query and one status
// snapshot, requires their winners (binding and estimate) to be
// byte-identical, and holds the case's floors:
//   parallel    daisy chain n=20 d=3 under random load, no plan: the
//               original one-thread path (a throwaway topology per binding,
//               no memo) vs the scratch+memo engine at 1 and N threads
//               (CLOUDTALK_EVAL_THREADS, default 4).
//   opt         symmetric shuffle n=16 w=4: the unoptimised walk vs the
//               static plan, which must enumerate at least 5x fewer bindings.
//   bound       skewed shuffle with 8 of 16 hosts at 95% load: the plan
//               without O500 vs the full plan, which must enumerate at
//               least 2x fewer bindings.
//   delta       the n=20 d=3 chain among 12 background transfers, memo off:
//               cold re-install vs delta rebind per binding (speedup
//               reported, no floor).
//   chain_plan  daisy chain n=40 d=3 under random load with the plan the
//               server computes for an estimator with a bound model (O100 to
//               O500) at 1 and 4 threads (time and bindings enumerated
//               reported, no floor: each worker prunes against its own O500
//               incumbent).
// The report (bench/experiments.h) goes to stdout and to argv[1] when
// given. Exit code: 0 when every floor holds, 1 otherwise or when argv[1]
// cannot be written.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "bench/experiments.h"
#include "src/common/rng.h"
#include "src/core/estimator.h"
#include "src/core/exhaustive.h"
#include "src/lang/analysis.h"
#include "src/lang/opt.h"
#include "src/lang/parser.h"

using namespace cloudtalk;

namespace {

// w workers over the pool 10.0.1.1 .. 10.0.1.n, each fed one shard from
// 10.0.0.9. Symmetric: one size and one rate group, so O200 finds the
// workers interchangeable (16*15*14*13 ordered bindings collapse to
// C(16,4) ascending ones). Skewed: sizes 2x apart, so no two are.
std::string ShuffleQuery(int n, int w, bool symmetric) {
  std::ostringstream query;
  for (int i = 1; i <= w; ++i) {
    query << "W" << i << " = ";
  }
  query << "(";
  for (int i = 1; i <= n; ++i) {
    query << "10.0.1." << i << " ";
  }
  query << ")\n";
  for (int i = 1; i <= w; ++i) {
    query << "shard" << i << " 10.0.0.9 -> W" << i << " size ";
    if (symmetric) {
      query << "64M " << (i == 1 ? "rate 800M" : "rate r(shard1)") << "\n";
    } else {
      query << 40 * (1 << (i - 1)) << "M\n";
    }
  }
  return query.str();
}

StatusReport Load(double tx_fraction, double rx_fraction) {
  StatusReport r;
  r.nic_tx_cap = r.nic_rx_cap = 1e9;
  r.nic_tx_use = tx_fraction * 1e9;
  r.nic_rx_use = rx_fraction * 1e9;
  r.disk_read_cap = r.disk_write_cap = 4e9;
  return r;
}

// Hosts `prefix`1 .. `prefix`n at random NIC loads of up to 90%.
StatusByAddress RandomLoad(const std::string& prefix, int n, uint64_t seed) {
  Rng rng(seed);
  StatusByAddress status;
  for (int i = 1; i <= n; ++i) {
    const double tx = rng.Uniform(0, 0.9);
    const double rx = rng.Uniform(0, 0.9);
    status[prefix + std::to_string(i)] = Load(tx, rx);
  }
  return status;
}

lang::Query ParseOrDie(const std::string& text) {
  Result<lang::Query> parsed = lang::Parse(text);
  if (!parsed.ok()) {
    std::fprintf(stderr, "parse failed: %s\n", parsed.error().ToString().c_str());
    std::exit(1);
  }
  return std::move(parsed.value());
}

// The compiled form points into `query`, which must outlive it.
lang::CompiledQuery CompileOrDie(const lang::Query& query) {
  Result<lang::CompiledQuery> compiled = lang::CompiledQuery::Compile(query);
  if (!compiled.ok()) {
    std::fprintf(stderr, "compile failed: %s\n", compiled.error().ToString().c_str());
    std::exit(1);
  }
  return std::move(compiled.value());
}

// One engine configuration of a case.
struct Engine {
  std::string name;
  ExhaustiveParams params;
  bool reuse_scratch = true;  // False: the original throwaway-topology path.
  bool delta_rebind = true;
};

struct Run {
  double us = 1e300;  // Fastest of the repetitions.
  ExhaustiveResult result;
};

// Runs every engine `reps` times, interleaved so that drift hits all of
// them alike.
std::vector<Run> RunEngines(const lang::CompiledQuery& query, const lang::HostStatus& status,
                            const std::vector<Engine>& engines, int reps) {
  std::vector<Run> runs(engines.size());
  for (int r = 0; r < reps; ++r) {
    for (size_t e = 0; e < engines.size(); ++e) {
      FlowLevelEstimator estimator(0.1, engines[e].reuse_scratch, engines[e].delta_rebind);
      const auto begin = std::chrono::steady_clock::now();
      Result<ExhaustiveResult> result =
          EvaluateExhaustive(query, status, estimator, engines[e].params);
      const auto end = std::chrono::steady_clock::now();
      if (!result.ok()) {
        std::fprintf(stderr, "%s: evaluation failed: %s\n", engines[e].name.c_str(),
                     result.error().ToString().c_str());
        std::exit(1);
      }
      runs[e].us = std::min(runs[e].us,
                            std::chrono::duration<double, std::micro>(end - begin).count());
      runs[e].result = std::move(result.value());
    }
  }
  return runs;
}

// The same binding and bit-identical estimates (no tolerance).
bool Identical(const ExhaustiveResult& a, const ExhaustiveResult& b) {
  return a.binding == b.binding &&
         std::memcmp(&a.estimate.makespan, &b.estimate.makespan, sizeof(double)) == 0 &&
         std::memcmp(&a.estimate.aggregate_throughput, &b.estimate.aggregate_throughput,
                     sizeof(double)) == 0;
}

// Opens case `name`, runs its engines, and reports each engine's time and
// bindings enumerated plus the floor that every winner is the first's.
std::vector<Run> RunCase(bench::JsonReport& report, const std::string& name,
                         const std::string& config, const lang::CompiledQuery& query,
                         const lang::HostStatus& status, const std::vector<Engine>& engines,
                         int reps) {
  report.Case(name, config);
  std::vector<Run> runs = RunEngines(query, status, engines, reps);
  bool identical = true;
  for (size_t e = 0; e < runs.size(); ++e) {
    report.Metric(engines[e].name + "_us", runs[e].us, "us", "lower");
    report.Metric(engines[e].name + "_enumerated",
                  static_cast<double>(runs[e].result.counters.enumerated), "count", "lower");
    identical = identical && Identical(runs[0].result, runs[e].result);
  }
  report.Floor("identical", identical ? 1 : 0, 1, identical);
  return runs;
}

// How many times fewer bindings `after` enumerated than `before`, with its
// floor.
void ReductionFloor(bench::JsonReport& report, const Run& before, const Run& after, double bound) {
  const double reduction =
      static_cast<double>(before.result.counters.enumerated) /
      static_cast<double>(std::max<int64_t>(1, after.result.counters.enumerated));
  report.Floor("reduction", reduction, bound, reduction >= bound);
}

}  // namespace

int main(int argc, char** argv) {
  int threads = 4;
  if (const char* env = std::getenv("CLOUDTALK_EVAL_THREADS")) {
    threads = std::max(1, std::atoi(env));
  }
  const int reps = bench::QuickMode() ? 3 : 10;
  bench::JsonReport report("search");

  {
    const lang::Query query = ParseOrDie(bench::DaisyChainQuery(20, 3));
    const lang::CompiledQuery compiled = CompileOrDie(query);
    const std::vector<Run> runs = RunCase(
        report, "parallel",
        "daisy chain n=20 d=3, random load, no plan: seed path vs engine x1 vs engine x" +
            std::to_string(threads),
        compiled, lang::HostStatus(compiled.hosts(), RandomLoad("s", 20, 42)),
        {{"seed", {.memoize = false}, /*reuse_scratch=*/false},
         {"x1", {}},
         {"xN", {.threads = threads}}},
        reps);
    report.Metric("speedup", runs[0].us / runs[2].us, "x", "higher");
  }
  {
    const lang::Query query = ParseOrDie(ShuffleQuery(16, 4, /*symmetric=*/true));
    const lang::CompiledQuery compiled = CompileOrDie(query);
    StatusByAddress status = RandomLoad("10.0.1.", 16, 42);
    status["10.0.0.9"] = Load(0, 0);
    const std::vector<Run> runs = RunCase(
        report, "opt", "symmetric shuffle n=16 w=4: no plan vs plan", compiled,
        lang::HostStatus(compiled.hosts(), status), {{"no_plan", {}}, {"plan", {.optimize = true}}},
        reps);
    ReductionFloor(report, runs[0], runs[1], 5.0);
  }
  {
    const lang::Query query = ParseOrDie(ShuffleQuery(16, 4, /*symmetric=*/false));
    const lang::CompiledQuery compiled = CompileOrDie(query);
    StatusByAddress status;
    for (int i = 1; i <= 16; ++i) {
      status["10.0.1." + std::to_string(i)] = i <= 8 ? Load(0, 0) : Load(0.95, 0.95);
    }
    status["10.0.0.9"] = Load(0, 0);
    const lang::HostStatus by_host(compiled.hosts(), status);
    lang::OptimizeParams opt_params;
    opt_params.passes = lang::kOptAllPasses & ~lang::kOptBoundPruning;
    const lang::PrunedSpace no_o500 = lang::Optimize(compiled, by_host, opt_params);
    const lang::PrunedSpace full = lang::Optimize(compiled, by_host, {});
    const std::vector<Run> runs = RunCase(
        report, "bound", "skewed shuffle n=16 w=4, 8 hosts at 95%: plan without O500 vs full plan",
        compiled, by_host,
        {{"no_o500", {.optimize = true, .plan = &no_o500}},
         {"o500", {.optimize = true, .plan = &full}}},
        reps);
    ReductionFloor(report, runs[0], runs[1], 2.0);
  }
  {
    const lang::Query query = ParseOrDie(bench::DaisyChainQuery(20, 3, /*bg=*/12));
    const lang::CompiledQuery compiled = CompileOrDie(query);
    const std::vector<Run> runs = RunCase(
        report, "delta",
        "daisy chain n=20 d=3 among 12 background transfers, memo off: cold vs delta rebind",
        compiled, lang::HostStatus(compiled.hosts(), RandomLoad("s", 20 + 2 * 12, 42)),
        {{"cold", {.memoize = false}, /*reuse_scratch=*/true, /*delta_rebind=*/false},
         {"delta", {.memoize = false}}},
        reps);
    const double cold = runs[0].us / static_cast<double>(runs[0].result.counters.evaluations);
    const double delta = runs[1].us / static_cast<double>(runs[1].result.counters.evaluations);
    report.Metric("cold_us_per_binding", cold, "us", "lower");
    report.Metric("delta_us_per_binding", delta, "us", "lower");
    report.Metric("speedup", cold / delta, "x", "higher");
  }
  {
    const lang::Query query = ParseOrDie(bench::DaisyChainQuery(40, 3));
    const lang::CompiledQuery compiled = CompileOrDie(query);
    const lang::HostStatus status(compiled.hosts(), RandomLoad("s", 40, 42));
    const lang::PrunedSpace plan = lang::Optimize(compiled, status, {});
    RunCase(report, "chain_plan",
            "daisy chain n=40 d=3, random load, the server's plan: 1 vs 4 threads", compiled,
            status,
            {{"x1", {.optimize = true, .plan = &plan}},
             {"x4", {.threads = 4, .optimize = true, .plan = &plan}}},
            reps);
  }

  const bool written = report.Write(argc > 1 ? argv[1] : nullptr);
  return written && report.pass() ? 0 : 1;
}
