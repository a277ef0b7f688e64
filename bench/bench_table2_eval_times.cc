// Table 2: heuristic evaluator running times (microseconds).
//
// Paper: daisy-chain queries with d variables over pools of n servers,
// timed at the evaluation step (status data already gathered). The paper
// reports 231 us (n=100, d=3) up to ~19.4 ms (n=2000, d=30); absolute
// numbers differ on other hardware, but times must stay in the same
// magnitude band and scale roughly linearly in n*d.
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/experiments.h"
#include "src/common/rng.h"
#include "src/core/heuristic.h"
#include "src/lang/analysis.h"
#include "src/lang/parser.h"

using namespace cloudtalk;

namespace {

StatusByAddress RandomStatus(int n, Rng& rng) {
  StatusByAddress status;
  for (int i = 1; i <= n; ++i) {
    StatusReport report;
    report.nic_tx_cap = report.nic_rx_cap = 1e9;
    report.nic_tx_use = rng.Uniform(0, 0.9) * 1e9;
    report.nic_rx_use = rng.Uniform(0, 0.9) * 1e9;
    report.disk_read_cap = report.disk_write_cap = 4e9;
    status["s" + std::to_string(i)] = report;
  }
  return status;
}

}  // namespace

int main() {
  bench::PrintHeader("Table 2: heuristic evaluator running times (us)");
  std::printf("(paper, for reference: n=100,d=3: 231us ... n=2000,d=30: 19379us)\n\n");

  const std::vector<int> pool_sizes = {100, 200, 300, 500, 1000, 2000};
  const std::vector<int> var_counts = {3, 5, 10, 20, 30};

  std::printf("%8s", "n \\ d");
  for (int d : var_counts) {
    std::printf("%10d", d);
  }
  std::printf("\n");

  Rng rng(42);
  for (int n : pool_sizes) {
    std::printf("%8d", n);
    const StatusByAddress status = RandomStatus(n, rng);
    for (int d : var_counts) {
      auto parsed = lang::Parse(bench::DaisyChainQuery(n, d));
      if (!parsed.ok()) {
        std::printf("%10s", "ERR");
        continue;
      }
      auto compiled = lang::CompiledQuery::Compile(parsed.value());
      if (!compiled.ok()) {
        std::printf("%10s", "ERR");
        continue;
      }
      // Time the evaluation step alone, as the paper does.
      const lang::HostStatus by_host(compiled.value().hosts(), status);
      const int iters = bench::QuickMode() ? 20 : 200;
      HeuristicParams params;
      const auto begin = std::chrono::steady_clock::now();
      for (int i = 0; i < iters; ++i) {
        auto result = EvaluateHeuristic(compiled.value(), by_host, params);
        if (!result.ok()) {
          std::fprintf(stderr, "evaluation failed: %s\n", result.error().ToString().c_str());
          return 1;
        }
      }
      const auto end = std::chrono::steady_clock::now();
      const double us =
          std::chrono::duration<double, std::micro>(end - begin).count() / iters;
      std::printf("%10.0f", us);
    }
    std::printf("\n");
  }
  std::printf("\nShape check: time grows ~linearly with n*d (O(max(m, n*d)) algorithm).\n");
  return 0;
}
