// Figure 11 + Section 5.4: optimising web search.
//
// Two parts:
//
//  1. Placement prediction (Section 5.4): on a 1200-server VL2 mirroring
//     EC2, CloudTalk evaluates every aggregator placement for the two-level
//     scatter-gather tree with the packet-level simulator in an idle
//     network. Paper, with 50-packet buffers: single aggregator 1.04 s,
//     worst two-aggregator 0.55 s, best 0.4 s.
//
//  2. Measured behaviour under load (Figure 11): query latency vs offered
//     load for (a) one machine searching its own shard, (b) one aggregator
//     over 100 leaves — collapses past ~35 qps from TCP incast, (c/d) the
//     worst/best two-aggregator deployments from part 1.
#include <cstdio>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "bench/experiments.h"
#include "src/core/directory.h"
#include "src/core/packet_estimator.h"
#include "src/lang/analysis.h"
#include "src/lang/parser.h"
#include "src/websearch/search_cluster.h"

using namespace cloudtalk;
using namespace cloudtalk::bench;

namespace {

struct Placement {
  NodeId agg1 = kInvalidNode;
  NodeId agg2 = kInvalidNode;
  Seconds predicted = 0;
};

struct Setup {
  Topology topo;
  NodeId frontend;
  std::vector<NodeId> leaves;      // 100 leaf servers.
  std::vector<NodeId> candidates;  // Aggregator candidates, distinct racks.
};

Setup BuildSetup() {
  Vl2Params params;
  params.num_racks = 25;
  params.hosts_per_rack = 48;
  params.host_link = 1 * kGbps;
  // The simulated fabric mirrors the *measured* EC2 topology (Section 3 /
  // Figure 1), whose rack uplinks were oversubscribed — that is what makes
  // aggregator placement matter: an aggregator co-located with its leaves
  // keeps the response burst under its ToR.
  params.tor_uplink = 2 * kGbps;
  Setup setup{MakeVl2(params), kInvalidNode, {}, {}};
  const auto& hosts = setup.topo.hosts();
  setup.frontend = hosts[0];  // Rack 0.
  // 100 leaves: five per rack in racks 2..21 ("sorted according to
  // proximity": consecutive leaves share racks).
  for (int rack = 2; rack < 22; ++rack) {
    for (int i = 0; i < 5; ++i) {
      setup.leaves.push_back(hosts[rack * 48 + i]);
    }
  }
  // Ten candidate aggregator hosts in ten different racks.
  const int num_candidates = QuickMode() ? 5 : 10;
  for (int c = 0; c < num_candidates; ++c) {
    setup.candidates.push_back(hosts[(2 + 2 * c) * 48 + 40]);
  }
  return setup;
}

// Builds the Section 5.4 two-aggregator query and predicts its delay for a
// concrete placement using the packet-level estimator.
Seconds PredictTwoAgg(const Setup& setup, const Directory& directory, NodeId agg1,
                      NodeId agg2) {
  std::ostringstream query;
  const size_t half = setup.leaves.size() / 2;
  auto emit_side = [&](const char* var, size_t begin, size_t end) {
    std::string first_flow;
    for (size_t i = begin; i < end; ++i) {
      const std::string flow = "f" + std::to_string(i) + "a";
      query << flow << " " << setup.topo.IpOf(setup.leaves[i]) << " -> " << var
            << " size 10KB\n";
      if (first_flow.empty()) {
        first_flow = flow;
        query << "f" << i << "b " << var << " -> " << setup.topo.IpOf(setup.frontend)
              << " size " << static_cast<long long>((end - begin) * 10 * kKB)
              << " transfer t(" << flow << ")\n";
      }
    }
  };
  query << "AGG1 = (" << setup.topo.IpOf(agg1) << ")\n";
  query << "AGG2 = (" << setup.topo.IpOf(agg2) << ")\n";
  emit_side("AGG1", 0, half);
  emit_side("AGG2", half, setup.leaves.size());

  auto parsed = lang::Parse(query.str());
  if (!parsed.ok()) {
    std::fprintf(stderr, "query error: %s\n", parsed.error().ToString().c_str());
    return -1;
  }
  auto compiled = lang::CompiledQuery::Compile(parsed.value());
  PacketLevelEstimator estimator(&setup.topo, &directory);
  const Binding binding{{"AGG1", lang::Endpoint::Address(setup.topo.IpOf(agg1))},
                        {"AGG2", lang::Endpoint::Address(setup.topo.IpOf(agg2))}};
  const Result<std::vector<int>> slots = SlotsOf(compiled.value(), binding);
  if (!slots.ok()) {
    return -1;
  }
  auto estimate = estimator.EstimateQuery(compiled.value(), slots.value(), {});
  return estimate.ok() ? estimate.value().makespan : -1;
}

Seconds PredictSingleAgg(const Setup& setup, const Directory& directory, NodeId agg) {
  std::ostringstream query;
  std::string first_flow;
  for (size_t i = 0; i < setup.leaves.size(); ++i) {
    const std::string flow = "f" + std::to_string(i);
    query << flow << " " << setup.topo.IpOf(setup.leaves[i]) << " -> "
          << setup.topo.IpOf(agg) << " size 10KB\n";
    if (first_flow.empty()) {
      first_flow = flow;
      query << "fm " << setup.topo.IpOf(agg) << " -> " << setup.topo.IpOf(setup.frontend)
            << " size " << static_cast<long long>(setup.leaves.size() * 10 * kKB)
            << " transfer t(" << flow << ")\n";
    }
  }
  auto parsed = lang::Parse(query.str());
  auto compiled = lang::CompiledQuery::Compile(parsed.value());
  PacketLevelEstimator estimator(&setup.topo, &directory);
  auto estimate = estimator.EstimateQuery(compiled.value(), {}, {});
  (void)first_flow;
  return estimate.ok() ? estimate.value().makespan : -1;
}

void MeasureUnderLoad(const Setup& setup, const char* label, const SearchDeployment& deploy) {
  SearchParams params;
  const std::vector<double> loads =
      QuickMode() ? std::vector<double>{5, 20, 40, 60, 80}
                  : std::vector<double>{1, 10, 20, 30, 35, 40, 50, 60, 80};
  SearchCluster cluster(&setup.topo, deploy, params);
  std::printf("  %-18s", label);
  for (double qps : loads) {
    const SearchStats stats = cluster.RunLoad(qps, QuickMode() ? 1.5 : 3.0, 99);
    if (stats.completed == 0) {
      std::printf(" %11s", "collapse");
      continue;
    }
    const double completion = 100.0 * stats.completed / stats.issued;
    std::printf(" %6.2f/%3.0f%%", Percentile(stats.latencies, 95), completion);
  }
  std::printf("\n");
}

}  // namespace

int main() {
  Setup setup = BuildSetup();
  TopologyDirectory directory(&setup.topo);

  PrintHeader("Section 5.4: packet-level placement prediction (idle 1200-server VL2)");
  const Seconds single = PredictSingleAgg(setup, directory, setup.candidates[0]);
  std::printf("single aggregator predicted delay: %.3f s (paper: 1.04 s)\n", single);

  Placement best{kInvalidNode, kInvalidNode, std::numeric_limits<double>::infinity()};
  Placement worst{kInvalidNode, kInvalidNode, 0};
  int evaluated = 0;
  for (NodeId a1 : setup.candidates) {
    for (NodeId a2 : setup.candidates) {
      if (a1 == a2) {
        continue;
      }
      const Seconds t = PredictTwoAgg(setup, directory, a1, a2);
      ++evaluated;
      if (t > 0 && t < best.predicted) {
        best = {a1, a2, t};
      }
      if (t > worst.predicted) {
        worst = {a1, a2, t};
      }
    }
  }
  std::printf("evaluated %d two-aggregator placements:\n", evaluated);
  std::printf("  best  %.3f s (paper: 0.40 s)\n", best.predicted);
  std::printf("  worst %.3f s (paper: 0.55 s)\n", worst.predicted);

  PrintHeader("Figure 11: p95 latency (s) / completion rate vs offered load (qps)");
  const std::vector<double> loads =
      QuickMode() ? std::vector<double>{5, 20, 40, 60, 80}
                  : std::vector<double>{1, 10, 20, 30, 35, 40, 50, 60, 80};
  std::printf("  %-18s", "config \\ qps");
  for (double qps : loads) {
    std::printf(" %11.0f", qps);
  }
  std::printf("\n");
  // (a) one machine searching its own shard: no network, just compute.
  std::printf("  %-18s", "single machine");
  for (size_t i = 0; i < loads.size(); ++i) {
    std::printf(" %6.2f/100%%", SearchParams{}.leaf_compute);
  }
  std::printf("\n");

  std::vector<NodeId> participants = setup.leaves;
  participants.push_back(setup.frontend);
  for (NodeId c : setup.candidates) {
    participants.push_back(c);
  }
  MeasureUnderLoad(setup, "one aggregator",
                   SingleAggregatorDeployment(setup.leaves, setup.frontend,
                                              setup.candidates[0]));
  MeasureUnderLoad(setup, "two aggs (worst)",
                   TwoAggregatorDeployment(setup.leaves, setup.frontend, worst.agg1,
                                           worst.agg2));
  MeasureUnderLoad(setup, "two aggs (best)",
                   TwoAggregatorDeployment(setup.leaves, setup.frontend, best.agg1,
                                           best.agg2));

  std::printf("\npaper shape: the single-aggregator setup collapses past ~35 qps (incast);\n"
              "two-level trees stay close to the single-machine baseline, best < worst.\n");
  return 0;
}
