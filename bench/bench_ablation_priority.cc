// Ablation: priority binding of single-local-endpoint variables
// (DESIGN.md #3, the Section 4.2 Z <- a example).
//
// Over random 20-server states we evaluate the three-variable query
//
//   X = Y = Z = (s1 ... s20); f1 X -> Y 100M; f2 Z -> s1 100M
//
// with the priority rule on and off, and score each binding with the
// flow-level estimator against the exhaustive optimum.
//
// Expected shape: with priority binding, Z is bound to s1 (a free loopback)
// whenever possible and the average % of optimal is strictly higher.
#include <cstdio>
#include <sstream>
#include <vector>

#include "bench/experiments.h"
#include "src/common/rng.h"
#include "src/core/estimator.h"
#include "src/core/exhaustive.h"
#include "src/core/heuristic.h"
#include "src/lang/analysis.h"
#include "src/lang/parser.h"

using namespace cloudtalk;
using namespace cloudtalk::bench;

namespace {

constexpr int kServers = 20;

StatusByAddress RandomState(Rng& rng) {
  StatusByAddress status;
  for (int i = 1; i <= kServers; ++i) {
    StatusReport report;
    report.nic_tx_cap = report.nic_rx_cap = 1e9;
    report.nic_tx_use = rng.Uniform(0, 0.9) * 1e9;
    report.nic_rx_use = rng.Uniform(0, 0.9) * 1e9;
    report.disk_read_cap = report.disk_write_cap = 1e12;
    status["s" + std::to_string(i)] = report;
  }
  return status;
}

}  // namespace

int main() {
  std::ostringstream text;
  text << "X = Y = Z = (";
  for (int i = 1; i <= kServers; ++i) {
    text << "s" << i << " ";
  }
  text << ")\n";
  text << "f1 X -> Y size 100M\n";
  text << "f2 Z -> s1 size 100M\n";
  auto query = lang::Parse(text.str());
  auto compiled = lang::CompiledQuery::Compile(query.value());
  FlowLevelEstimator estimator(/*min_available_fraction=*/0.0);

  const int states = QuickMode() ? 150 : 2000;
  Rng rng(2024);
  std::vector<double> with_priority;
  std::vector<double> without_priority;
  int z_local_with = 0;
  int z_local_without = 0;
  for (int s = 0; s < states; ++s) {
    const lang::HostStatus status(compiled.value().hosts(), RandomState(rng));
    auto best = EvaluateExhaustive(compiled.value(), status, estimator);
    if (!best.ok()) {
      continue;
    }
    for (const bool priority : {true, false}) {
      HeuristicParams params;
      params.enable_priority_binding = priority;
      auto heuristic = EvaluateHeuristic(compiled.value(), status, params);
      auto estimate = estimator.EstimateQuery(
          compiled.value(), SlotsOf(compiled.value(), heuristic.value().binding).value(), status);
      if (!estimate.ok()) {
        continue;
      }
      const double pct = 100.0 * best.value().estimate.makespan / estimate.value().makespan;
      const bool z_local = heuristic.value().binding.at("Z").name == "s1";
      if (priority) {
        with_priority.push_back(pct);
        z_local_with += z_local ? 1 : 0;
      } else {
        without_priority.push_back(pct);
        z_local_without += z_local ? 1 : 0;
      }
    }
  }
  PrintHeader("Ablation: priority binding (Section 4.2 Z <- a rule)");
  std::printf("%-22s %14s %14s %18s\n", "variant", "avg % optimal", "p10 % optimal",
              "Z bound locally");
  std::printf("%-22s %13.1f%% %13.1f%% %11d/%zu\n", "priority binding on",
              Mean(with_priority), Percentile(with_priority, 10), z_local_with,
              with_priority.size());
  std::printf("%-22s %13.1f%% %13.1f%% %11d/%zu\n", "priority binding off",
              Mean(without_priority), Percentile(without_priority, 10), z_local_without,
              without_priority.size());
  std::printf("\nExpected: the on-variant binds Z to s1 in (almost) every state and "
              "dominates on average.\n");
  return 0;
}
