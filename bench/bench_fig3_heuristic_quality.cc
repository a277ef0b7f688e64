// Figure 3: how close is the heuristic to optimal?
//
// Paper setup (Section 5.1): daisy chain with every endpoint a variable
// (x1 = x2 = x3 = (s1 ... s20)), evaluated over randomly generated network
// states on 20 equal-capacity servers. Outgoing/incoming background rates
// are drawn independently in [0, 90%] of link capacity — once uniformly,
// once from a bimodal distribution peaked at 0% and 90%. Background traffic
// is inelastic. The plot compares achieved write throughput (as % of the
// exhaustive-search optimum) for the heuristic and for random placement.
//
// Expected shape: heuristic close to 100% (optimal for many states, ~90%+
// on average), random placement substantially worse, with a heavier tail;
// the gap widens under the bimodal distribution.
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "bench/experiments.h"
#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/core/estimator.h"
#include "src/core/exhaustive.h"
#include "src/core/heuristic.h"
#include "src/lang/analysis.h"
#include "src/lang/parser.h"

using namespace cloudtalk;

namespace {

constexpr int kServers = 20;

std::string ChainQuery() {
  std::ostringstream query;
  query << "x1 = x2 = x3 = (";
  for (int i = 1; i <= kServers; ++i) {
    query << "s" << i << " ";
  }
  query << ")\n";
  query << "f1 x1 -> x2 size 100M\n";
  query << "f2 x2 -> x3 size sz(f1) transfer t(f1)\n";
  return query.str();
}

enum class LoadShape { kUniform, kBimodal };

StatusByAddress RandomState(LoadShape shape, Rng& rng) {
  StatusByAddress status;
  auto draw = [&]() -> double {
    if (shape == LoadShape::kUniform) {
      return rng.Uniform(0, 0.9);
    }
    // Bimodal: peaks at 0% and 90% utilisation.
    return rng.Bernoulli(0.5) ? rng.Uniform(0, 0.1) : rng.Uniform(0.8, 0.9);
  };
  for (int i = 1; i <= kServers; ++i) {
    StatusReport report;
    report.nic_tx_cap = report.nic_rx_cap = 1e9;
    report.nic_tx_use = draw() * 1e9;
    report.nic_rx_use = draw() * 1e9;
    report.disk_read_cap = report.disk_write_cap = 1e12;  // Never the bottleneck.
    status["s" + std::to_string(i)] = report;
  }
  return status;
}

Binding RandomBinding(const lang::CompiledQuery& compiled, Rng& rng) {
  Binding binding;
  std::vector<int> picks = rng.SampleWithoutReplacement(kServers, 3);
  int i = 0;
  for (const lang::VarComm& var : compiled.variables()) {
    binding[var.name] = lang::Endpoint::Address("s" + std::to_string(picks[i++] + 1));
  }
  return binding;
}

struct Quality {
  std::vector<double> heuristic_pct;
  std::vector<double> random_pct;
  int heuristic_optimal_hits = 0;
};

Quality Evaluate(LoadShape shape, int states, uint64_t seed) {
  auto query = lang::Parse(ChainQuery());
  auto compiled = lang::CompiledQuery::Compile(query.value());
  FlowLevelEstimator estimator(/*min_available_fraction=*/0.0);
  Rng rng(seed);
  Quality quality;
  HeuristicParams params;
  for (int s = 0; s < states; ++s) {
    const lang::HostStatus status(compiled.value().hosts(), RandomState(shape, rng));
    auto best = EvaluateExhaustive(compiled.value(), status, estimator);
    if (!best.ok()) {
      continue;
    }
    auto heuristic = EvaluateHeuristic(compiled.value(), status, params);
    auto h_est = estimator.EstimateQuery(
        compiled.value(), SlotsOf(compiled.value(), heuristic.value().binding).value(), status);
    auto r_est = estimator.EstimateQuery(
        compiled.value(), SlotsOf(compiled.value(), RandomBinding(compiled.value(), rng)).value(),
        status);
    if (!h_est.ok() || !r_est.ok()) {
      continue;
    }
    // Throughput as % of optimal = optimal makespan / achieved makespan.
    const double h_pct = 100.0 * best.value().estimate.makespan / h_est.value().makespan;
    const double r_pct = 100.0 * best.value().estimate.makespan / r_est.value().makespan;
    quality.heuristic_pct.push_back(h_pct);
    quality.random_pct.push_back(r_pct);
    if (h_pct > 99.999) {
      ++quality.heuristic_optimal_hits;
    }
  }
  return quality;
}

void Report(const char* label, const std::vector<double>& pct) {
  std::printf("  %-10s avg %6.1f%%   p10 %6.1f%%   p50 %6.1f%%   p90 %6.1f%%   min %6.1f%%\n",
              label, Mean(pct), Percentile(pct, 10), Percentile(pct, 50), Percentile(pct, 90),
              Min(pct));
}

}  // namespace

int main() {
  const int states = bench::QuickMode() ? 150 : 5000;
  bench::PrintHeader("Figure 3: heuristic vs random placement, % of exhaustive optimum");
  std::printf("(3-variable daisy chain over 20 servers; %d random states per "
              "distribution)\n", states);
  std::printf("(paper shape: heuristic near-optimal on average, random much worse, "
              "bimodal widens the gap)\n");

  for (const auto& [name, shape] :
       {std::pair{"uniform", LoadShape::kUniform}, std::pair{"bimodal", LoadShape::kBimodal}}) {
    const Quality quality = Evaluate(shape, states, shape == LoadShape::kUniform ? 11 : 23);
    std::printf("\n%s load distribution (%zu states evaluated):\n", name,
                quality.heuristic_pct.size());
    Report("heuristic", quality.heuristic_pct);
    Report("random", quality.random_pct);
    std::printf("  heuristic found the exact optimum in %d/%zu states\n",
                quality.heuristic_optimal_hits, quality.heuristic_pct.size());
  }
  return 0;
}
