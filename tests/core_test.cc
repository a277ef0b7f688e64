// Tests for the CloudTalk server core: heuristic, estimator, exhaustive
// search, reservations, sampling integration.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <iomanip>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/common/rng.h"
#include "src/core/directory.h"
#include "src/core/estimator.h"
#include "src/core/exhaustive.h"
#include "src/core/heuristic.h"
#include "src/core/packet_estimator.h"
#include "src/core/policy.h"
#include "src/core/reservations.h"
#include "src/core/server.h"
#include "src/lang/parser.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/status/status_server.h"
#include "src/status/transport.h"

namespace cloudtalk {
namespace {

using lang::CompiledQuery;
using lang::HostStatus;
using lang::Endpoint;
using lang::Parse;
using lang::Query;

StatusReport MakeReport(Bps cap, Bps tx_use, Bps rx_use, Bps disk_cap = 4e9,
                        Bps disk_read_use = 0, Bps disk_write_use = 0) {
  StatusReport r;
  r.nic_tx_cap = cap;
  r.nic_tx_use = tx_use;
  r.nic_rx_cap = cap;
  r.nic_rx_use = rx_use;
  r.disk_read_cap = disk_cap;
  r.disk_read_use = disk_read_use;
  r.disk_write_cap = disk_cap;
  r.disk_write_use = disk_write_use;
  return r;
}

CompiledQuery MustCompile(const Query& query) {
  auto compiled = CompiledQuery::Compile(query);
  EXPECT_TRUE(compiled.ok()) << (compiled.ok() ? "" : compiled.error().ToString());
  return std::move(compiled).value();
}

Query MustParse(const std::string& text) {
  auto query = Parse(text);
  EXPECT_TRUE(query.ok()) << (query.ok() ? "" : query.error().ToString());
  return std::move(query).value();
}

// `binding` as the estimators read it.
std::vector<int> MustSlots(const CompiledQuery& compiled, const Binding& binding) {
  auto slots = SlotsOf(compiled, binding);
  EXPECT_TRUE(slots.ok()) << (slots.ok() ? "" : slots.error().ToString());
  return slots.ok() ? std::move(slots).value() : std::vector<int>{};
}

// ---- Fitness functions ----

TEST(FitnessTest, LinearWeightTradesCapacityAgainstContention) {
  // The paper's linear model: with W=2 the fast-but-loaded host scores
  // 10G - 2*5G = 0 < 1G; with W=0 raw capacity wins.
  const StatusReport slow_idle = MakeReport(1e9, 0, 0);
  const StatusReport fast_loaded = MakeReport(10e9, 5e9, 5e9);
  EXPECT_GT(EvalTx(slow_idle, 2.0, FitnessModel::kLinear),
            EvalTx(fast_loaded, 2.0, FitnessModel::kLinear));
  EXPECT_LT(EvalTx(slow_idle, 0.0, FitnessModel::kLinear),
            EvalTx(fast_loaded, 0.0, FitnessModel::kLinear));
}

TEST(FitnessTest, FairShareAvoidsSaturationInversion) {
  // The repository-default model: among two saturated disks, the faster one
  // still wins (its elastic competitors would yield a fair share); the
  // linear model inverts this (DESIGN.md reproduction note).
  const double fast_saturated = EvalFitness(3e9, 3e9, 2.0, FitnessModel::kFairShare);
  const double slow_saturated = EvalFitness(375e6, 375e6, 2.0, FitnessModel::kFairShare);
  EXPECT_GT(fast_saturated, slow_saturated);
  EXPECT_LT(EvalFitness(3e9, 3e9, 2.0, FitnessModel::kLinear),
            EvalFitness(375e6, 375e6, 2.0, FitnessModel::kLinear));
}

TEST(FitnessTest, FairShareMonotoneInUsage) {
  for (double cap : {1e9, 3e9, 10e9}) {
    double prev = EvalFitness(cap, 0, 2.0, FitnessModel::kFairShare);
    EXPECT_DOUBLE_EQ(prev, cap);  // Idle: full capacity.
    for (double frac = 0.1; frac <= 1.01; frac += 0.1) {
      const double score = EvalFitness(cap, frac * cap, 2.0, FitnessModel::kFairShare);
      EXPECT_LE(score, prev + 1e-9);
      EXPECT_GT(score, 0.0);
      prev = score;
    }
  }
}

// ---- Heuristic: the paper's Section 4.2 walkthrough ----

TEST(HeuristicTest, PaperExampleBindsZToLocalEndpoint) {
  // X = Y = Z = (a b c); f1: X->Y 100M; f2: Z->a 100M.
  // Z must be bound to a (loopback); X gets the best tx of {b, c}; Y the rest.
  const Query query = MustParse(
      "X = Y = Z = (a b c)\n"
      "f1 X -> Y size 100M\n"
      "f2 Z -> a size 100M\n");
  const CompiledQuery compiled = MustCompile(query);
  StatusByAddress status;
  status["a"] = MakeReport(1e9, 100e6, 100e6);
  status["b"] = MakeReport(1e9, 600e6, 0);      // Busy sender.
  status["c"] = MakeReport(1e9, 100e6, 300e6);  // Mostly idle sender.
  auto result =
      EvaluateHeuristic(compiled, HostStatus(compiled.hosts(), status), HeuristicParams{});
  ASSERT_TRUE(result.ok()) << result.error().ToString();
  const Binding& binding = result.value().binding;
  EXPECT_EQ(binding.at("Z").name, "a");
  // X transmits: c has more tx headroom than b.
  EXPECT_EQ(binding.at("X").name, "c");
  EXPECT_EQ(binding.at("Y").name, "b");
}

TEST(HeuristicTest, PriorityBindingAblationLosesLocalOptimum) {
  // With priority binding disabled, X binds first (declaration order) and
  // can steal `a`, preventing the free local binding for Z (DESIGN.md #3).
  const Query query = MustParse(
      "X = Y = Z = (a b c)\n"
      "f1 X -> Y size 100M\n"
      "f2 Z -> a size 100M\n");
  const CompiledQuery compiled = MustCompile(query);
  StatusByAddress status;
  status["a"] = MakeReport(1e9, 0, 0);  // a looks best for everyone.
  status["b"] = MakeReport(1e9, 500e6, 500e6);
  status["c"] = MakeReport(1e9, 600e6, 600e6);
  HeuristicParams params;
  params.enable_priority_binding = false;
  auto result = EvaluateHeuristic(compiled, HostStatus(compiled.hosts(), status), params);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().binding.at("X").name, "a");
  EXPECT_NE(result.value().binding.at("Z").name, "a");
}

TEST(HeuristicTest, DistinctBindingsByDefault) {
  const Query query = MustParse(
      "A = B = (x y z)\n"
      "f1 A -> sink size 1M\n"
      "f2 B -> sink size 1M\n");
  const CompiledQuery compiled = MustCompile(query);
  StatusByAddress status;
  status["x"] = MakeReport(1e9, 0, 0);
  status["y"] = MakeReport(1e9, 100e6, 0);
  status["z"] = MakeReport(1e9, 900e6, 0);
  auto result =
      EvaluateHeuristic(compiled, HostStatus(compiled.hosts(), status), HeuristicParams{});
  ASSERT_TRUE(result.ok());
  EXPECT_NE(result.value().binding.at("A").name, result.value().binding.at("B").name);
  EXPECT_EQ(result.value().binding.at("A").name, "x");
  EXPECT_EQ(result.value().binding.at("B").name, "y");
}

TEST(HeuristicTest, AllowSameOverride) {
  const Query query = MustParse(
      "option allow_same\n"
      "A = B = (x y)\n"
      "f1 A -> sink size 1M\n"
      "f2 B -> sink size 1M\n");
  const CompiledQuery compiled = MustCompile(query);
  StatusByAddress status;
  status["x"] = MakeReport(1e9, 0, 0);
  status["y"] = MakeReport(1e9, 900e6, 0);
  auto result =
      EvaluateHeuristic(compiled, HostStatus(compiled.hosts(), status), HeuristicParams{});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().binding.at("A").name, "x");
  EXPECT_EQ(result.value().binding.at("B").name, "x");
}

TEST(HeuristicTest, PoolWrapsWhenMoreVariablesThanValues) {
  // Section 5.3 reduce query: "If there are less nodes than reduce tasks,
  // then everyone receives at least one reduce task."
  const Query query = MustParse(
      "a1 = a2 = a3 = a4 = a5 = (x y)\n"
      "f1 0.0.0.0 -> a1 size 1G\n"
      "f2 0.0.0.0 -> a2 size 1G\n"
      "f3 0.0.0.0 -> a3 size 1G\n"
      "f4 0.0.0.0 -> a4 size 1G\n"
      "f5 0.0.0.0 -> a5 size 1G\n");
  const CompiledQuery compiled = MustCompile(query);
  StatusByAddress status;
  status["x"] = MakeReport(1e9, 0, 0);
  status["y"] = MakeReport(1e9, 0, 100e6);
  auto result =
      EvaluateHeuristic(compiled, HostStatus(compiled.hosts(), status), HeuristicParams{});
  ASSERT_TRUE(result.ok());
  int x_count = 0;
  int y_count = 0;
  for (const auto& [var, endpoint] : result.value().binding) {
    (void)var;
    (endpoint.name == "x" ? x_count : y_count) += 1;
  }
  EXPECT_EQ(x_count + y_count, 5);
  EXPECT_GE(x_count, 2);  // Both servers get work.
  EXPECT_GE(y_count, 2);
}

// The heuristic by spelling, with the candidates spelled in `held`
// pseudo-reserved.
Result<HeuristicResult> EvaluateWithHeld(const CompiledQuery& compiled,
                                         const StatusByAddress& status,
                                         const std::set<std::string>& held) {
  AnswerHosts answer(compiled.hosts());
  for (size_t slot = 0; slot < compiled.hosts().names.size(); ++slot) {
    answer.slots[slot].held = held.count(*compiled.hosts().names[slot]) > 0;
  }
  return EvaluateHeuristic(compiled, &answer, HostStatus(compiled.hosts(), status),
                           HeuristicParams{});
}

TEST(HeuristicTest, ReservationFilterSkipsReservedBest) {
  const Query query = MustParse(
      "A = (x y)\n"
      "f1 A -> sink size 1M\n");
  const CompiledQuery compiled = MustCompile(query);
  StatusByAddress status;
  status["x"] = MakeReport(1e9, 0, 0);        // Best.
  status["y"] = MakeReport(1e9, 400e6, 0);    // Second.
  auto result = EvaluateWithHeld(compiled, status, {"x"});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().binding.at("A").name, "y");
}

TEST(HeuristicTest, AllReservedFallsBackToBest) {
  const Query query = MustParse(
      "A = (x y)\n"
      "f1 A -> sink size 1M\n");
  const CompiledQuery compiled = MustCompile(query);
  StatusByAddress status;
  status["x"] = MakeReport(1e9, 0, 0);
  status["y"] = MakeReport(1e9, 400e6, 0);
  auto result = EvaluateWithHeld(compiled, status, {"x", "y"});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().binding.at("A").name, "x");
}

TEST(HeuristicTest, DiskOnlyVariableScoredByDisk) {
  const Query query = MustParse(
      "A = (x y)\n"
      "f1 disk -> A size 1G\n");
  const CompiledQuery compiled = MustCompile(query);
  StatusByAddress status;
  status["x"] = MakeReport(1e9, 0, 0, /*disk_cap=*/4e9, /*disk_read_use=*/3.9e9);
  status["y"] = MakeReport(1e9, 900e6, 900e6, /*disk_cap=*/4e9, /*disk_read_use=*/0);
  auto result =
      EvaluateHeuristic(compiled, HostStatus(compiled.hosts(), status), HeuristicParams{});
  ASSERT_TRUE(result.ok());
  // NIC load is irrelevant: A only reads from its local disk.
  EXPECT_EQ(result.value().binding.at("A").name, "y");
}


// ---- Section 7 extension: scalar requirements in the heuristic ----

TEST(HeuristicTest, RequirementFiltersOverloadedHosts) {
  const Query query = MustParse(
      "X = (a b)\n"
      "X requires cpu 4 mem 8G\n"
      "f1 X -> sink size 1M\n");
  const CompiledQuery compiled = MustCompile(query);
  StatusByAddress status;
  StatusReport a = MakeReport(1e9, 0, 0);  // Network-idle but CPU-starved.
  a.cpu_cores_total = 8;
  a.cpu_cores_used = 6;  // Only 2 cores free < 4 required.
  a.mem_total = 32.0 * kGB;
  StatusReport b = MakeReport(1e9, 500e6, 0);  // Busier network, free CPU.
  b.cpu_cores_total = 8;
  b.mem_total = 32.0 * kGB;
  status["a"] = a;
  status["b"] = b;
  auto result =
      EvaluateHeuristic(compiled, HostStatus(compiled.hosts(), status), HeuristicParams{});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().binding.at("X").name, "b");
}

TEST(HeuristicTest, RequirementMemoryShortfall) {
  const Query query = MustParse(
      "X = (a b)\n"
      "X requires mem 16G\n"
      "f1 X -> sink size 1M\n");
  const CompiledQuery compiled = MustCompile(query);
  StatusByAddress status;
  StatusReport a = MakeReport(1e9, 0, 0);
  a.mem_total = 32.0 * kGB;
  a.mem_used = 30.0 * kGB;  // 2 GB free.
  StatusReport b = MakeReport(1e9, 800e6, 100e6);
  b.mem_total = 32.0 * kGB;
  status["a"] = a;
  status["b"] = b;
  auto result =
      EvaluateHeuristic(compiled, HostStatus(compiled.hosts(), status), HeuristicParams{});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().binding.at("X").name, "b");
}

TEST(HeuristicTest, UnknownScalarStatePasses) {
  // A report without CPU/memory info (total == 0) must not be filtered.
  const Query query = MustParse(
      "X = (a b)\n"
      "X requires cpu 64\n"
      "f1 X -> sink size 1M\n");
  const CompiledQuery compiled = MustCompile(query);
  StatusByAddress status;
  status["a"] = MakeReport(1e9, 0, 0);        // No scalar info at all.
  status["b"] = MakeReport(1e9, 500e6, 0);
  auto result =
      EvaluateHeuristic(compiled, HostStatus(compiled.hosts(), status), HeuristicParams{});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().binding.at("X").name, "a");
}

TEST(HeuristicTest, AllCandidatesFilteredStillBinds) {
  const Query query = MustParse(
      "X = (a)\n"
      "X requires cpu 4\n"
      "f1 X -> sink size 1M\n");
  const CompiledQuery compiled = MustCompile(query);
  StatusByAddress status;
  StatusReport a = MakeReport(1e9, 0, 0);
  a.cpu_cores_total = 2;  // Can never satisfy 4 cores.
  status["a"] = a;
  auto result =
      EvaluateHeuristic(compiled, HostStatus(compiled.hosts(), status), HeuristicParams{});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().binding.at("X").name, "a");  // Best effort.
}



// ---- Provider traffic policy (Section 2) ----

TEST(PolicyTest, ClassifiesScatterGather) {
  // 10 small flows converging on one aggregator.
  std::string text = "AGG = (a1 a2)\n";
  for (int i = 0; i < 10; ++i) {
    text += "f" + std::to_string(i) + " leaf" + std::to_string(i) + " -> AGG size 10KB\n";
  }
  const Query query = MustParse(text);
  const CompiledQuery compiled = MustCompile(query);
  const TransportPolicy policy = ClassifyQuery(compiled);
  EXPECT_EQ(policy.traffic_class, TrafficClass::kScatterGather);
  EXPECT_TRUE(policy.enable_pfc);
  EXPECT_EQ(policy.multipath_subflows, 1);
}

TEST(PolicyTest, ClassifiesElephants) {
  const Query query = MustParse(
      "f1 a -> b size 1G\n"
      "f2 c -> d size 512M\n");
  const CompiledQuery compiled = MustCompile(query);
  const TransportPolicy policy = ClassifyQuery(compiled);
  EXPECT_EQ(policy.traffic_class, TrafficClass::kElephant);
  EXPECT_FALSE(policy.enable_pfc);
  EXPECT_GT(policy.multipath_subflows, 1);
}

TEST(PolicyTest, MixedTrafficLeavesDefaults) {
  // A few mid-sized flows: neither incast-prone nor elephants.
  const Query query = MustParse(
      "f1 a -> b size 1M\n"
      "f2 c -> b size 1M\n"
      "f3 d -> e size 1G\n");
  const CompiledQuery compiled = MustCompile(query);
  const TransportPolicy policy = ClassifyQuery(compiled);
  EXPECT_EQ(policy.traffic_class, TrafficClass::kMixed);
  EXPECT_FALSE(policy.enable_pfc);
  EXPECT_EQ(policy.multipath_subflows, 1);
}

TEST(PolicyTest, DiskOnlyQueryIsMixed) {
  const Query query = MustParse("f1 disk -> a size 1G\n");
  const CompiledQuery compiled = MustCompile(query);
  EXPECT_EQ(ClassifyQuery(compiled).traffic_class, TrafficClass::kMixed);
}

TEST(PolicyTest, HdfsWritePipelineIsElephant) {
  // The Section 5.3 write query: 2 network elephants + disk hops.
  const Query query = MustParse(
      "r1 = r2 = (d1 d2 d3)\n"
      "f1 client -> r1 size 256M rate r(f2)\n"
      "f2 r1 -> disk size 256M rate r(f1)\n"
      "f3 r1 -> r2 size 256M rate r(f4) transfer t(f2)\n"
      "f4 r2 -> disk size 256M rate r(f3)\n");
  const CompiledQuery compiled = MustCompile(query);
  EXPECT_EQ(ClassifyQuery(compiled).traffic_class, TrafficClass::kElephant);
}

// ---- Flow-level estimator ----

TEST(EstimatorTest, SimpleTransferTime) {
  const Query query = MustParse("f1 src -> dst size 125M\n");
  const CompiledQuery compiled = MustCompile(query);
  StatusByAddress status;
  status["src"] = MakeReport(1e9, 0, 0);
  status["dst"] = MakeReport(1e9, 0, 0);
  FlowLevelEstimator estimator;
  auto estimate = estimator.EstimateQuery(compiled, {}, HostStatus(compiled.hosts(), status));
  ASSERT_TRUE(estimate.ok()) << estimate.error().ToString();
  EXPECT_NEAR(estimate.value().makespan, 125 * kMB * 8 / 1e9, 1e-6);
}

TEST(EstimatorTest, BindingResolvesVariables) {
  const Query query = MustParse(
      "A = (r1 r2)\n"
      "f1 A -> client size 125M\n");
  const CompiledQuery compiled = MustCompile(query);
  StatusByAddress status;
  status["r1"] = MakeReport(1e9, 500e6, 0);  // Half-loaded sender.
  status["r2"] = MakeReport(1e9, 0, 0);
  status["client"] = MakeReport(1e9, 0, 0);
  FlowLevelEstimator estimator;
  Binding bind_r1{{"A", Endpoint::Address("r1")}};
  Binding bind_r2{{"A", Endpoint::Address("r2")}};
  auto est1 = estimator.EstimateQuery(compiled, MustSlots(compiled, bind_r1),
                                      HostStatus(compiled.hosts(), status));
  auto est2 = estimator.EstimateQuery(compiled, MustSlots(compiled, bind_r2),
                                      HostStatus(compiled.hosts(), status));
  ASSERT_TRUE(est1.ok());
  ASSERT_TRUE(est2.ok());
  EXPECT_GT(est1.value().makespan, est2.value().makespan);
  EXPECT_NEAR(est2.value().makespan, 125 * kMB * 8 / 1e9, 1e-6);
}

TEST(EstimatorTest, DaisyChainBoundBySlowestHop) {
  const Query query = MustParse(
      "f1 client -> r1 size 64M rate r(f2)\n"
      "f2 r1 -> disk size 64M rate r(f1)\n");
  const CompiledQuery compiled = MustCompile(query);
  StatusByAddress status;
  status["client"] = MakeReport(1e9, 0, 0);
  status["r1"] = MakeReport(1e9, 0, 0, /*disk_cap=*/200e6);  // Slow disk.
  FlowLevelEstimator estimator;
  auto estimate = estimator.EstimateQuery(compiled, {}, HostStatus(compiled.hosts(), status));
  ASSERT_TRUE(estimate.ok());
  EXPECT_NEAR(estimate.value().makespan, 64 * kMB * 8 / 200e6, 1e-6);
}

TEST(EstimatorTest, UnknownSourceOnlyLoadsReceiver) {
  const Query query = MustParse("f1 0.0.0.0 -> sink size 125M\n");
  const CompiledQuery compiled = MustCompile(query);
  StatusByAddress status;
  status["sink"] = MakeReport(1e9, 0, 0);
  FlowLevelEstimator estimator;
  auto estimate = estimator.EstimateQuery(compiled, {}, HostStatus(compiled.hosts(), status));
  ASSERT_TRUE(estimate.ok());
  EXPECT_NEAR(estimate.value().makespan, 125 * kMB * 8 / 1e9, 1e-6);
}

TEST(EstimatorTest, UnboundVariableFails) {
  const Query query = MustParse(
      "A = (x)\n"
      "f1 A -> sink size 1M\n");
  const CompiledQuery compiled = MustCompile(query);
  FlowLevelEstimator estimator;
  EXPECT_FALSE(estimator.EstimateQuery(compiled, {}, {}).ok());
}

// ---- Exhaustive search ----

TEST(ExhaustiveTest, FindsOptimalReplica) {
  const Query query = MustParse(
      "A = (r1 r2 r3)\n"
      "f1 A -> client size 256M\n");
  const CompiledQuery compiled = MustCompile(query);
  StatusByAddress status;
  status["r1"] = MakeReport(1e9, 800e6, 0);
  status["r2"] = MakeReport(1e9, 200e6, 0);
  status["r3"] = MakeReport(1e9, 500e6, 0);
  status["client"] = MakeReport(1e9, 0, 0);
  FlowLevelEstimator estimator;
  auto best = EvaluateExhaustive(compiled, HostStatus(compiled.hosts(), status), estimator);
  ASSERT_TRUE(best.ok()) << best.error().ToString();
  EXPECT_EQ(best.value().binding.at("A").name, "r2");
  EXPECT_EQ(best.value().counters.scored(), 3);
}

TEST(ExhaustiveTest, DistinctBindingEnumeration) {
  const Query query = MustParse(
      "A = B = (x y z)\n"
      "f1 A -> B size 1M\n");
  const CompiledQuery compiled = MustCompile(query);
  StatusByAddress status;
  for (const char* s : {"x", "y", "z"}) {
    status[s] = MakeReport(1e9, 0, 0);
  }
  FlowLevelEstimator estimator;
  auto best = EvaluateExhaustive(compiled, HostStatus(compiled.hosts(), status), estimator);
  ASSERT_TRUE(best.ok());
  EXPECT_EQ(best.value().counters.scored(), 6);  // 3 * 2 ordered pairs.
  EXPECT_NE(best.value().binding.at("A").name, best.value().binding.at("B").name);
}

TEST(ExhaustiveTest, SpaceGuard) {
  const Query query = MustParse(
      "A = B = C = D = E = (v1 v2 v3 v4 v5 v6 v7 v8 v9 v10)\n"
      "f1 A -> B size 1M\nf2 C -> D size 1M\nf3 E -> v1 size 1M\n");
  const CompiledQuery compiled = MustCompile(query);
  FlowLevelEstimator estimator;
  ExhaustiveParams params;
  params.max_bindings = 100;  // 10^5 > 100.
  EXPECT_FALSE(EvaluateExhaustive(compiled, {}, estimator, params).ok());
}

// ---- Parallel exhaustive engine (ISSUE 1) ----

namespace exhaustive_parallel {

// Daisy chain over six hosts where s1/s2, s3/s4, s5/s6 are pairwise
// identical, so many bindings tie on makespan. The engine's tie-break
// (lowest makespan, then lexicographically-first odometer index) must make
// every thread count return byte-identical results.
CompiledQuery TieLadenDaisyChain(Query* storage, StatusByAddress* status) {
  *storage = MustParse(
      "x1 = x2 = x3 = (s1 s2 s3 s4 s5 s6)\n"
      "f1 x1 -> x2 size 100M\n"
      "f2 x2 -> x3 size 100M transfer t(f1)\n");
  status->clear();
  for (int i = 1; i <= 6; ++i) {
    // Pair index (i+1)/2 determines the load: identical within a pair.
    const double load = 100e6 * ((i + 1) / 2);
    (*status)["s" + std::to_string(i)] = MakeReport(1e9, load, load / 2);
  }
  return MustCompile(*storage);
}

ExhaustiveResult MustEvaluate(const CompiledQuery& compiled, const StatusByAddress& status,
                              const ExhaustiveParams& params) {
  FlowLevelEstimator estimator;
  auto result =
      EvaluateExhaustive(compiled, HostStatus(compiled.hosts(), status), estimator, params);
  EXPECT_TRUE(result.ok()) << (result.ok() ? "" : result.error().ToString());
  return std::move(result).value();
}

}  // namespace exhaustive_parallel

TEST(ExhaustiveParallelTest, ThreadCountsAgreeByteIdentically) {
  Query storage;
  StatusByAddress status;
  const CompiledQuery compiled = exhaustive_parallel::TieLadenDaisyChain(&storage, &status);
  ExhaustiveParams params;
  const ExhaustiveResult serial = exhaustive_parallel::MustEvaluate(compiled, status, params);
  for (int threads : {2, 4, 8}) {
    params.threads = threads;
    const ExhaustiveResult parallel =
        exhaustive_parallel::MustEvaluate(compiled, status, params);
    // EXPECT_EQ on doubles is exact: bit-identical makespans, not "close".
    EXPECT_EQ(parallel.estimate.makespan, serial.estimate.makespan) << threads;
    EXPECT_EQ(parallel.estimate.aggregate_throughput, serial.estimate.aggregate_throughput);
    EXPECT_EQ(parallel.counters.scored(), serial.counters.scored());
    for (const auto& [var, endpoint] : serial.binding) {
      EXPECT_EQ(parallel.binding.at(var).name, endpoint.name) << var << " @" << threads;
    }
    EXPECT_GT(parallel.counters.threads_used, 1);
  }
}

TEST(ExhaustiveParallelTest, DistinctBacktrackingAgreesAcrossThreadCounts) {
  // Shared pool with distinctness: the odometer prunes subtrees whose prefix
  // reuses a host (x1=x2 never reaches the x3 level). 6*5*4 = 120 legal
  // bindings out of 216.
  const Query query = MustParse(
      "x1 = x2 = x3 = (s1 s2 s3 s4 s5 s6)\n"
      "f1 x1 -> x2 size 50M\n"
      "f2 x2 -> x3 size 100M\n");
  const CompiledQuery compiled = MustCompile(query);
  StatusByAddress status;
  for (int i = 1; i <= 6; ++i) {
    status["s" + std::to_string(i)] = MakeReport(1e9, 120e6 * i, 40e6 * i);
  }
  ExhaustiveParams params;
  const ExhaustiveResult serial = exhaustive_parallel::MustEvaluate(compiled, status, params);
  EXPECT_EQ(serial.counters.scored(), 120);
  for (int threads : {2, 4, 8}) {
    params.threads = threads;
    const ExhaustiveResult parallel =
        exhaustive_parallel::MustEvaluate(compiled, status, params);
    EXPECT_EQ(parallel.counters.scored(), 120);
    EXPECT_EQ(parallel.estimate.makespan, serial.estimate.makespan);
    for (const auto& [var, endpoint] : serial.binding) {
      EXPECT_EQ(parallel.binding.at(var).name, endpoint.name) << var << " @" << threads;
    }
  }
}

TEST(ExhaustiveParallelTest, MemoHitsSymmetricBindings) {
  // f1 and f2 share a chain group (rate reference) and have equal sizes, so
  // bindings (A=a,B=b) and (A=b,B=a) have the same canonical signature: 6
  // ordered pairs, 3 distinct signatures, 3 memo hits. Hits still count as
  // bindings tried.
  const Query query = MustParse(
      "A = B = (x y z)\n"
      "f1 A -> c size 10M rate r(f2)\n"
      "f2 B -> c size 10M rate r(f1)\n");
  const CompiledQuery compiled = MustCompile(query);
  StatusByAddress status;
  for (const char* s : {"x", "y", "z", "c"}) {
    status[s] = MakeReport(1e9, 0, 0);
  }
  ExhaustiveParams params;
  const ExhaustiveResult memoized = exhaustive_parallel::MustEvaluate(compiled, status, params);
  EXPECT_EQ(memoized.counters.scored(), 6);
  EXPECT_EQ(memoized.counters.memo_hits, 3);
  params.memoize = false;
  const ExhaustiveResult direct = exhaustive_parallel::MustEvaluate(compiled, status, params);
  EXPECT_EQ(direct.counters.memo_hits, 0);
  EXPECT_EQ(direct.counters.scored(), 6);
  EXPECT_EQ(direct.estimate.makespan, memoized.estimate.makespan);
  EXPECT_EQ(direct.binding.at("A").name, memoized.binding.at("A").name);
  EXPECT_EQ(direct.binding.at("B").name, memoized.binding.at("B").name);
}

TEST(ExhaustiveParallelTest, ThreadsZeroUsesHardwareConcurrency) {
  Query storage;
  StatusByAddress status;
  const CompiledQuery compiled = exhaustive_parallel::TieLadenDaisyChain(&storage, &status);
  ExhaustiveParams params;
  const ExhaustiveResult serial = exhaustive_parallel::MustEvaluate(compiled, status, params);
  params.threads = 0;  // Hardware concurrency, whatever this machine has.
  const ExhaustiveResult automatic = exhaustive_parallel::MustEvaluate(compiled, status, params);
  EXPECT_GE(automatic.counters.threads_used, 1);
  EXPECT_EQ(automatic.estimate.makespan, serial.estimate.makespan);
  EXPECT_EQ(automatic.counters.scored(), serial.counters.scored());
}

// ---- Estimator prepared scratch (ISSUE 1) ----

TEST(EstimatorScratchTest, ScratchMatchesColdPathBitExactly) {
  // Exercise every endpoint kind: unknown source, disk sink, loopback. The
  // second input merges y into x, as an alias is one host with its address,
  // so binding A=x, B=y is a loopback on both paths.
  StatusByAddress status;
  status["x"] = MakeReport(1e9, 300e6, 100e6, 3e9, 0, 500e6);
  status["y"] = MakeReport(1e9, 100e6, 600e6);
  status["z"] = MakeReport(2e9, 0, 0);
  const std::vector<int> y_is_x = {0, 0, 2};  // By slot: x, y, z in pool order.
  for (const auto& [text, identity] :
       {std::pair<std::string, std::vector<int>>{"A = B = (x y z)\n"
                                                 "f1 0.0.0.0 -> A size 64M\n"
                                                 "f2 A -> disk size 32M\n"
                                                 "f3 A -> B size 16M\n"
                                                 "f4 A -> A size 8M\n",
                                                 {}},
        std::pair<std::string, std::vector<int>>{"A = B = (x y z)\n"
                                                 "f1 A -> B size 1G\n",
                                                 y_is_x}}) {
    SCOPED_TRACE(text);
    const Query query = MustParse(text);
    const CompiledQuery compiled = MustCompile(query);
    const HostStatus by_host(compiled.hosts(), status, identity);
    FlowLevelEstimator scratch(0.1, /*reuse_scratch=*/true);
    FlowLevelEstimator cold(0.1, /*reuse_scratch=*/false);
    scratch.BeginQuery(compiled, by_host);
    EXPECT_TRUE(scratch.scratch_prepared());
    for (const char* a : {"x", "y", "z"}) {
      for (const char* b : {"x", "y", "z"}) {
        Binding binding;
        binding["A"] = Endpoint::Address(a);
        binding["B"] = Endpoint::Address(b);
        const std::vector<int> slots = MustSlots(compiled, binding);
        auto fast = scratch.EstimateQuery(compiled, slots, by_host);
        auto slow = cold.EstimateQuery(compiled, slots, by_host);
        ASSERT_TRUE(fast.ok()) << fast.error().ToString();
        ASSERT_TRUE(slow.ok()) << slow.error().ToString();
        EXPECT_EQ(fast.value().makespan, slow.value().makespan) << a << "," << b;
        EXPECT_EQ(fast.value().aggregate_throughput, slow.value().aggregate_throughput);
      }
    }
    scratch.EndQuery();
    EXPECT_FALSE(scratch.scratch_prepared());
  }
}

TEST(EstimatorScratchTest, RepeatedUnknownEstimatesAreStable) {
  // Each 0.0.0.0 occurrence is a distinct abstract host; repeating the
  // estimate must not mint new ones (the per-query counter does not leak
  // across estimates).
  const Query query = MustParse(
      "A = (x y)\n"
      "f1 0.0.0.0 -> A size 64M\n"
      "f2 0.0.0.0 -> A size 64M\n");
  const CompiledQuery compiled = MustCompile(query);
  StatusByAddress status;
  status["x"] = MakeReport(1e9, 0, 400e6);
  status["y"] = MakeReport(1e9, 0, 0);
  const HostStatus by_host(compiled.hosts(), status);
  Binding binding;
  binding["A"] = Endpoint::Address("x");
  const std::vector<int> slots = MustSlots(compiled, binding);
  for (bool reuse : {true, false}) {
    FlowLevelEstimator estimator(0.1, reuse);
    estimator.BeginQuery(compiled, by_host);
    auto first = estimator.EstimateQuery(compiled, slots, by_host);
    ASSERT_TRUE(first.ok());
    for (int i = 0; i < 3; ++i) {
      auto again = estimator.EstimateQuery(compiled, slots, by_host);
      ASSERT_TRUE(again.ok());
      EXPECT_EQ(again.value().makespan, first.value().makespan) << "reuse=" << reuse;
    }
    estimator.EndQuery();
  }
}

TEST(EstimatorScratchTest, OutOfQueryBindingIsAnError) {
  // A is bound to `w`, a name the query never spells: it is no slot of the
  // query, so the binding has no form an estimator reads, and SlotsOf says
  // which variable is at fault. A name the query does spell converts.
  const Query query = MustParse(
      "A = (x y)\n"
      "f1 A -> c size 64M\n");
  const CompiledQuery compiled = MustCompile(query);
  Binding binding;
  binding["A"] = Endpoint::Address("w");
  const Result<std::vector<int>> slots = SlotsOf(compiled, binding);
  ASSERT_FALSE(slots.ok());
  EXPECT_EQ(slots.error().message,
            "variable 'A' is bound to 'w', which is no address of the query");
  binding["A"] = Endpoint::Address("c");  // A literal endpoint is a slot too.
  EXPECT_EQ(MustSlots(compiled, binding), std::vector<int>{2});
  EXPECT_EQ(MustSlots(compiled, {}), std::vector<int>{-1});
}

// ---- Incremental delta rebind (ISSUE 6) ----

TEST(EstimatorDeltaTest, DeltaRebindMatchesColdRebindBitExactly) {
  // Same fixture as ScratchMatchesColdPathBitExactly, but the two sides
  // differ in the rebind strategy: checkpoint restore + patch vs full group
  // re-install per binding. Bindings walk in odometer order, like the
  // exhaustive engine drives it.
  const Query query = MustParse(
      "A = B = (x y z)\n"
      "f1 0.0.0.0 -> A size 64M\n"
      "f2 A -> disk size 32M\n"
      "f3 A -> B size 16M\n"
      "f4 A -> A size 8M\n");
  const CompiledQuery compiled = MustCompile(query);
  StatusByAddress status;
  status["x"] = MakeReport(1e9, 300e6, 100e6, 3e9, 0, 500e6);
  status["y"] = MakeReport(1e9, 100e6, 600e6);
  status["z"] = MakeReport(2e9, 0, 0);
  const HostStatus by_host(compiled.hosts(), status);
  FlowLevelEstimator delta(0.1, /*reuse_scratch=*/true, /*delta_rebind=*/true);
  FlowLevelEstimator cold(0.1, /*reuse_scratch=*/true, /*delta_rebind=*/false);
  delta.BeginQuery(compiled, by_host);
  cold.BeginQuery(compiled, by_host);
  for (const char* a : {"x", "y", "z"}) {
    for (const char* b : {"x", "y", "z"}) {
      Binding binding;
      binding["A"] = Endpoint::Address(a);
      binding["B"] = Endpoint::Address(b);
      const std::vector<int> slots = MustSlots(compiled, binding);
      auto fast = delta.EstimateQuery(compiled, slots, by_host);
      auto slow = cold.EstimateQuery(compiled, slots, by_host);
      ASSERT_TRUE(fast.ok()) << fast.error().ToString();
      ASSERT_TRUE(slow.ok()) << slow.error().ToString();
      // Exact: the delta path must be indistinguishable from re-installing.
      EXPECT_EQ(fast.value().makespan, slow.value().makespan) << a << "," << b;
      EXPECT_EQ(fast.value().aggregate_throughput, slow.value().aggregate_throughput);
    }
  }
  delta.EndQuery();
  cold.EndQuery();
  const SolverStats delta_stats = delta.TakeSolverStats();
  const SolverStats cold_stats = cold.TakeSolverStats();
  EXPECT_EQ(delta_stats.cold_rebinds, 1);  // Install only.
  EXPECT_EQ(delta_stats.delta_rebinds, 8);
  EXPECT_EQ(cold_stats.delta_rebinds, 0);
  EXPECT_EQ(cold_stats.cold_rebinds, 9);
}

TEST(EstimatorDeltaTest, ExhaustiveSearchUsesDeltaRebinds) {
  // End to end through the engine: with memoisation off every enumerated
  // binding reaches the estimator, and all but the first per stripe must be
  // served by the delta path. The answer matches a delta-off run bitwise.
  const Query query = MustParse(
      "x1 = x2 = x3 = (s1 s2 s3 s4 s5 s6)\n"
      "f1 x1 -> x2 size 50M\n"
      "f2 x2 -> x3 size 100M\n");
  const CompiledQuery compiled = MustCompile(query);
  StatusByAddress status;
  for (int i = 1; i <= 6; ++i) {
    status["s" + std::to_string(i)] = MakeReport(1e9, 120e6 * i, 40e6 * i);
  }
  const HostStatus by_host(compiled.hosts(), status);
  ExhaustiveParams params;
  params.memoize = false;
  FlowLevelEstimator delta(0.1, /*reuse_scratch=*/true, /*delta_rebind=*/true);
  auto with_delta = EvaluateExhaustive(compiled, by_host, delta, params);
  FlowLevelEstimator cold(0.1, /*reuse_scratch=*/true, /*delta_rebind=*/false);
  auto without = EvaluateExhaustive(compiled, by_host, cold, params);
  ASSERT_TRUE(with_delta.ok()) << with_delta.error().ToString();
  ASSERT_TRUE(without.ok()) << without.error().ToString();
  EXPECT_EQ(with_delta.value().estimate.makespan, without.value().estimate.makespan);
  EXPECT_EQ(with_delta.value().estimate.aggregate_throughput,
            without.value().estimate.aggregate_throughput);
  for (const auto& [var, endpoint] : without.value().binding) {
    EXPECT_EQ(with_delta.value().binding.at(var).name, endpoint.name) << var;
  }
  const SearchCounters& c = with_delta.value().counters;
  EXPECT_EQ(c.scored(), 120);
  EXPECT_EQ(c.cold_rebinds, 1);  // One install for the single serial stripe.
  EXPECT_EQ(c.delta_rebinds, c.evaluations - c.cold_rebinds);
  EXPECT_GT(c.solver_recomputes, 0);
  EXPECT_GT(c.delta_component_hits, 0);
  const SearchCounters& n = without.value().counters;
  EXPECT_EQ(n.delta_rebinds, 0);
  EXPECT_EQ(n.cold_rebinds, n.evaluations);
}

// ---- Heuristic optimality properties (paper Section 5.1 claims) ----

class SingleVariableOptimalityTest : public ::testing::TestWithParam<int> {};

// "Our algorithm is optimal for single variable queries."
TEST_P(SingleVariableOptimalityTest, MatchesExhaustive) {
  Rng rng(GetParam() * 131);
  StatusByAddress status;
  std::string pool;
  for (int i = 0; i < 10; ++i) {
    const std::string name = "s" + std::to_string(i);
    status[name] = MakeReport(1e9, rng.Uniform(0, 0.9) * 1e9, rng.Uniform(0, 0.9) * 1e9);
    pool += name + " ";
  }
  status["client"] = MakeReport(1e9, 0, 0);
  const Query query = MustParse("A = (" + pool + ")\nf1 A -> client size 256M\n");
  const CompiledQuery compiled = MustCompile(query);
  const HostStatus by_host(compiled.hosts(), status);
  FlowLevelEstimator estimator;
  HeuristicParams params;
  params.weight = 1.0;  // Equal-capacity pool: availability ordering is exact.
  auto heuristic = EvaluateHeuristic(compiled, by_host, params);
  auto exhaustive = EvaluateExhaustive(compiled, by_host, estimator);
  ASSERT_TRUE(heuristic.ok());
  ASSERT_TRUE(exhaustive.ok());
  // Compare achieved makespan, not identity (ties are possible).
  auto h_est =
      estimator.EstimateQuery(compiled, MustSlots(compiled, heuristic.value().binding), by_host);
  ASSERT_TRUE(h_est.ok());
  EXPECT_NEAR(h_est.value().makespan, exhaustive.value().estimate.makespan, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(RandomStates, SingleVariableOptimalityTest, ::testing::Range(1, 21));

// ---- Reservations ----

TEST(ReservationTest, ExpiryAndHold) {
  ReservationTable table(/*hold_time=*/0.3);
  EXPECT_TRUE(table.Hold(/*host=*/1, /*now=*/1.0));
  EXPECT_TRUE(table.IsReserved(1, 1.1));
  EXPECT_TRUE(table.IsReserved(1, 1.29));
  EXPECT_FALSE(table.IsReserved(1, 1.31));
  EXPECT_FALSE(table.IsReserved(2, 1.1));
}

TEST(ReservationTest, ZeroHoldDisables) {
  ReservationTable table(0.0);
  EXPECT_FALSE(table.Hold(1, 1.0));
  EXPECT_FALSE(table.IsReserved(1, 1.0));
  EXPECT_EQ(table.HoldCount(), 0u);
}

TEST(ReservationTest, ActiveCount) {
  ReservationTable table(0.5);
  table.Hold(1, 0.0);
  table.Hold(2, 0.2);
  EXPECT_EQ(table.ActiveCount(0.3), 2);
  EXPECT_EQ(table.ActiveCount(0.6), 1);
  EXPECT_EQ(table.ActiveCount(1.0), 0);
}

// 20 000 hosts held at one instant (amortized O(1) each) stay reserved
// until their hold expires; the expired holds are swept before the table
// doubles again.
TEST(ReservationTest, TwentyThousandHoldsExpireAndArePruned) {
  constexpr int kHosts = 20000;
  ReservationTable table(/*hold_time=*/0.3);
  for (NodeId host = 0; host < kHosts; ++host) {
    table.Hold(host, /*now=*/1.0);
  }
  EXPECT_EQ(table.ActiveCount(1.2), kHosts);
  EXPECT_EQ(table.HoldCount(), static_cast<size_t>(kHosts));
  int reserved_before = 0;
  int reserved_after = 0;
  for (NodeId host = 0; host < kHosts; ++host) {
    reserved_before += table.IsReserved(host, 1.29) ? 1 : 0;
    reserved_after += table.IsReserved(host, 1.31) ? 1 : 0;
  }
  EXPECT_EQ(reserved_before, kHosts);
  EXPECT_EQ(reserved_after, 0);
  // As many fresh holds on other hosts after the expiry leave only the
  // fresh ones.
  for (NodeId host = kHosts; host < 2 * kHosts; ++host) {
    table.Hold(host, /*now=*/2.0);
    ASSERT_LE(table.HoldCount(), 2u * kHosts);
  }
  EXPECT_EQ(table.HoldCount(), static_cast<size_t>(kHosts));
  EXPECT_EQ(table.ActiveCount(2.1), kHosts);
}

// ---- Server end-to-end ----

class ClusterSource : public UsageSource {
 public:
  explicit ClusterSource(const Topology* topo) : topo_(topo) {}
  StatusReport Snapshot(NodeId host) override {
    const auto it = reports_.find(host);
    if (it != reports_.end()) {
      return it->second;
    }
    return StatusReport::Idle(host, topo_->host_caps(host));
  }
  void Set(NodeId host, StatusReport report) {
    report.host = host;
    reports_[host] = report;
  }

 private:
  const Topology* topo_;
  std::unordered_map<NodeId, StatusReport> reports_;
};

// A 10-host fleet: a status server per host over one usage source, a
// simulated UDP transport, and a `host<N>` alias for every host. ServerTest
// owns one; the front-end cache tests build twins that answer alike.
struct Fleet {
  Fleet() : topo(MakeTopology()), source(&topo), directory(&topo) {
    std::unordered_map<NodeId, StatusServer*> map;
    for (NodeId h : topo.hosts()) {
      servers.push_back(std::make_unique<StatusServer>(h, &source, 0.0));
      map[h] = servers.back().get();
      directory.AddAlias("host" + std::to_string(h), h);
    }
    transport = std::make_unique<SimUdpTransport>(std::move(map), SimUdpParams{}, 1);
  }

  static Topology MakeTopology() {
    SingleSwitchParams params;
    params.num_hosts = 10;
    return MakeSingleSwitch(params);
  }

  CloudTalkServer MakeServer(ServerConfig config, std::function<Seconds()> clock) {
    return CloudTalkServer(config, &directory, transport.get(), std::move(clock));
  }

  std::string Ip(int host_index) const { return topo.IpOf(topo.hosts()[host_index]); }

  // Makes `host_index` report full load.
  void MakeBusy(int host_index) {
    const NodeId host = topo.hosts()[host_index];
    source.Set(host, StatusReport::AssumeLoaded(0, topo.host_caps(host)));
  }

  Topology topo;
  ClusterSource source;
  TopologyDirectory directory;
  std::vector<std::unique_ptr<StatusServer>> servers;
  std::unique_ptr<SimUdpTransport> transport;
};

class ServerTest : public ::testing::Test {
 protected:
  CloudTalkServer MakeServer(ServerConfig config = {}) {
    return fleet_.MakeServer(config, [this] { return now_; });
  }

  std::string Ip(int host_index) const { return fleet_.Ip(host_index); }

  Fleet fleet_;
  Seconds now_ = 0;
};

// The attributes of the first span named `name` in `trace` (none if absent).
std::vector<std::pair<std::string, std::string>> SpanAttrs(const obs::Trace& trace,
                                                           const std::string& name) {
  for (const obs::TraceSpan& span : trace.spans) {
    if (span.name() == name) {
      return trace.AttrsOf(span.id);
    }
  }
  return {};
}

bool HasAttr(const std::vector<std::pair<std::string, std::string>>& attrs,
             const std::string& key) {
  return std::any_of(attrs.begin(), attrs.end(),
                     [&key](const std::pair<std::string, std::string>& kv) {
                       return kv.first == key;
                     });
}

TEST_F(ServerTest, AnswersReplicaQuery) {
  // Make host 1 busy, host 2 idle; the query should pick host 2.
  fleet_.MakeBusy(1);
  CloudTalkServer server = MakeServer();
  auto reply = server.Answer("A = (" + Ip(1) + " " + Ip(2) + ")\nf1 A -> " + Ip(0) +
                             " size 256M\n");
  ASSERT_TRUE(reply.ok()) << reply.error().ToString();
  EXPECT_EQ(reply.value().binding.at("A").name, Ip(2));
  EXPECT_EQ(reply.value().probe_stats.requests_sent, 3);  // 2 pool + 1 literal.
  EXPECT_EQ(reply.value().probe_stats.replies_received, 3);
}

TEST_F(ServerTest, ReservationPreventsImmediateReuse) {
  CloudTalkServer server = MakeServer();
  const std::string query =
      "A = (" + Ip(1) + " " + Ip(2) + ")\nf1 A -> " + Ip(0) + " size 256M\n";
  auto first = server.Answer(query);
  ASSERT_TRUE(first.ok());
  const std::string first_pick = first.value().binding.at("A").name;
  auto second = server.Answer(query);  // Same sim time: within hold window.
  ASSERT_TRUE(second.ok());
  EXPECT_NE(second.value().binding.at("A").name, first_pick);
  // After the hold expires the original best is available again.
  now_ = 1.0;
  auto third = server.Answer(query);
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(third.value().binding.at("A").name, first_pick);
}

TEST_F(ServerTest, MissingRepliesAssumedLoaded) {
  // Use a transport that drops everything: every candidate looks loaded, but
  // an answer is still produced.
  SimUdpParams lossy;
  lossy.base_loss = 1.0;
  SimUdpTransport dead_transport({}, lossy, 1);
  ServerConfig config;
  CloudTalkServer server(config, &fleet_.directory, &dead_transport, [] { return 0.0; });
  auto reply =
      server.Answer("A = (" + Ip(1) + " " + Ip(2) + ")\nf1 A -> " + Ip(0) + " size 1M\n");
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply.value().probe_stats.replies_received, 0);
  EXPECT_FALSE(reply.value().binding.at("A").name.empty());
}

TEST_F(ServerTest, StaticOptionSkipsProbing) {
  CloudTalkServer server = MakeServer();
  auto reply = server.Answer("option static\nA = (" + Ip(1) + " " + Ip(2) + ")\nf1 A -> " +
                             Ip(0) + " size 1M\n");
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply.value().probe_stats.requests_sent, 0);
}

TEST_F(ServerTest, SamplingCapsProbeCount) {
  ServerConfig config;
  config.sample_threshold = 4;   // Tiny threshold to trigger sampling.
  config.sample_override = 5;
  CloudTalkServer server = MakeServer(config);
  std::string pool;
  for (int i = 0; i < 9; ++i) {
    pool += Ip(i) + " ";
  }
  auto reply = server.Answer("A = (" + pool + ")\nf1 A -> " + Ip(9) + " size 1M\n");
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply.value().probe_stats.requests_sent, 6);  // 5 sampled + 1 literal.
}

TEST_F(ServerTest, ProbeStatsAccumulate) {
  CloudTalkServer server = MakeServer();
  const std::string query =
      "A = (" + Ip(1) + " " + Ip(2) + ")\nf1 A -> " + Ip(0) + " size 1M\n";
  ASSERT_TRUE(server.Answer(query).ok());
  ASSERT_TRUE(server.Answer(query).ok());
  EXPECT_EQ(server.total_probe_stats().requests_sent, 6);
  EXPECT_EQ(server.total_probe_stats().bytes_sent, 6 * 64);
}

TEST_F(ServerTest, DisabledReservationsAreNotCounted) {
  // With reservation_hold = 0 nothing is held, so nothing may be reported
  // as reserved — not in the reserve span, not in M104 — at any shard count.
  ServerConfig config;
  config.reservation_hold = 0;
  CloudTalkServer flat = MakeServer(config);
  CloudTalkServer sharded(ShardedConfig{config, /*shards=*/4}, &fleet_.directory,
                          fleet_.transport.get(), [this] { return now_; });
  const std::string query =
      "A = (" + Ip(1) + " " + Ip(2) + ")\nf1 A -> " + Ip(0) + " size 1M\n";
  for (CloudTalkServer* server : {&flat, &sharded}) {
    SCOPED_TRACE(std::to_string(server->num_shards()) + " shard(s)");
    const int64_t counted_before = obs::Registry::Instance().counter("M104")->value();
    auto reply = server->Answer(query);
    ASSERT_TRUE(reply.ok()) << reply.error().ToString();
    for (int s = 0; s < server->num_shards(); ++s) {
      EXPECT_EQ(server->shard(s).reservations().ActiveCount(now_), 0);
    }
    EXPECT_EQ(obs::Registry::Instance().counter("M104")->value(), counted_before);
    const obs::Trace& trace = reply.value().trace;
    for (const obs::TraceSpan& span : trace.spans) {
      if (span.name() == "reserve") {
        const auto attrs = trace.AttrsOf(span.id);
        EXPECT_NE(std::find(attrs.begin(), attrs.end(),
                            std::make_pair(std::string("reserved"), std::string("0"))),
                  attrs.end());
      }
    }
  }
}

TEST_F(ServerTest, SymbolicAliasesResolve) {
  CloudTalkServer server = MakeServer();
  const NodeId h1 = fleet_.topo.hosts()[1];
  auto reply = server.Answer("A = (host" + std::to_string(h1) + ")\nf1 A -> " + Ip(0) +
                             " size 1M\n");
  ASSERT_TRUE(reply.ok()) << reply.error().ToString();
  EXPECT_EQ(reply.value().binding.at("A").name, "host" + std::to_string(h1));
}

TEST_F(ServerTest, HostNamedByAliasAndAddressIsProbedOnceForBoth) {
  // Host 1 is idle and host 2 busy. The pool names host 1 by its alias; a
  // second, unrelated flow names it by its address. Both names must read
  // the one probe of host 1, so the flow changes neither the pick nor its
  // score, and the host is probed once.
  fleet_.MakeBusy(2);
  CloudTalkServer server = MakeServer();
  const std::string alias = "host" + std::to_string(fleet_.topo.hosts()[1]);
  const std::string pool = "option noreserve\nA = (" + alias + " " + Ip(2) + ")\nf1 A -> " +
                           Ip(0) + " size 256M\n";
  const auto alone = server.Answer(pool);
  const auto named = server.Answer(pool + "f2 " + Ip(1) + " -> " + Ip(3) + " size 1M\n");
  ASSERT_TRUE(alone.ok()) << alone.error().ToString();
  ASSERT_TRUE(named.ok()) << named.error().ToString();
  EXPECT_EQ(alone.value().binding.at("A").name, alias);
  EXPECT_EQ(named.value().binding.at("A").name, alias);
  EXPECT_EQ(named.value().scores, alone.value().scores);
  EXPECT_EQ(alone.value().probe_stats.requests_sent, 3);  // Hosts 1, 2 and 0.
  EXPECT_EQ(named.value().probe_stats.requests_sent, 4);  // And host 3.
}

TEST_F(ServerTest, ParseErrorPropagates) {
  CloudTalkServer server = MakeServer();
  EXPECT_FALSE(server.Answer("A = ()\n").ok());
  // An expression nested past the parser's depth limit is rejected with
  // E007 rather than recursed into (20 000 parentheses, 40 KB).
  auto deep = server.Answer("f1 " + Ip(0) + " -> " + Ip(1) + " size " +
                            std::string(20000, '(') + "1M" + std::string(20000, ')') + "\n");
  ASSERT_FALSE(deep.ok());
  EXPECT_NE(deep.error().ToString().find("E007"), std::string::npos) << deep.error().ToString();
  // A quote fails the same way, and M107 counts it on entry all the same.
  const int64_t quotes_before = obs::Registry::Instance().counter("M107")->value();
  EXPECT_FALSE(server.Quote("A = ()\n").ok());
  EXPECT_EQ(obs::Registry::Instance().counter("M107")->value(), quotes_before + 1);
}

TEST_F(ServerTest, PacketOptionWithoutEstimatorFails) {
  CloudTalkServer server = MakeServer();
  const std::string query = "option packet\nA = (" + Ip(1) + ")\nf1 A -> " + Ip(0) +
                            " size 1M\n";
  auto reply = server.Answer(query);
  ASSERT_FALSE(reply.ok());
  // A quote runs the same pipeline, so it fails the same way.
  auto quote = server.Quote(query);
  ASSERT_FALSE(quote.ok());
  EXPECT_EQ(quote.error().message, reply.error().message);
  // With a deadline too: no estimator means no bound model, so no bound
  // analysis is built before the same error.
  const int64_t checks_before = obs::Registry::Instance().counter("M108")->value();
  auto with_end = server.Answer("option packet\nA = (" + Ip(1) + ")\nf1 A -> " + Ip(0) +
                                " size 1M end 1000\n");
  ASSERT_FALSE(with_end.ok());
  EXPECT_EQ(with_end.error().message, reply.error().message);
  EXPECT_EQ(obs::Registry::Instance().counter("M108")->value(), checks_before);
}

TEST_F(ServerTest, BoundAdmissionRejectsImpossibleDeadline) {
  CloudTalkServer server = MakeServer();
  const std::string flow = "f1 " + Ip(0) + " -> " + Ip(1) + " size 8000G";
  const int64_t checks_before = obs::Registry::Instance().counter("M108")->value();
  const int64_t rejections_before = obs::Registry::Instance().counter("M109")->value();
  // Without an `end` no binding can miss a deadline: the flow is answered,
  // and no bound analysis is built.
  auto open = server.Answer(flow + "\n");
  ASSERT_TRUE(open.ok()) << open.error().ToString();
  EXPECT_EQ(obs::Registry::Instance().counter("M108")->value(), checks_before);
  const auto attrs = SpanAttrs(open.value().trace, "bound");
  EXPECT_NE(std::find(attrs.begin(), attrs.end(),
                      std::make_pair(std::string("skipped"), std::string("no-deadline"))),
            attrs.end());
  EXPECT_FALSE(HasAttr(attrs, "lb"));
  // Feasible on idle (unconstrained) hosts — so lint's E080 stays quiet —
  // but provably impossible on the cluster's real 1 Gbps NICs: the
  // admission bound check must reject before any search runs.
  auto reply = server.Answer(flow + " end 1\n");
  ASSERT_FALSE(reply.ok());
  EXPECT_NE(reply.error().message.find("no binding can meet the deadline"),
            std::string::npos)
      << reply.error().ToString();
  EXPECT_EQ(obs::Registry::Instance().counter("M108")->value(), checks_before + 1);
  EXPECT_EQ(obs::Registry::Instance().counter("M109")->value(), rejections_before + 1);
}

// A flow-level estimator that, like the packet simulator, offers no bound
// model.
class NoBoundModelEstimator : public FlowLevelEstimator {
 public:
  double BoundAvailabilityFraction() const override { return -1; }
};

TEST_F(ServerTest, ExhaustiveBindSpanCarriesPassAttribution) {
  // Any CompletionEstimator works as the wired "packet" model here; the
  // test only exercises the exhaustive branch's trace attribution.
  FlowLevelEstimator packet_stand_in;
  ServerConfig config;
  CloudTalkServer server(config, &fleet_.directory, fleet_.transport.get(),
                         [this] { return now_; }, &packet_stand_in);
  const std::string query = "option packet\nA = (" + Ip(1) + " " + Ip(2) + " " + Ip(3) +
                            ")\nf1 A -> " + Ip(0) + " size 64M end 1000\n";
  auto reply = server.Answer(query);
  ASSERT_TRUE(reply.ok()) << reply.error().ToString();
  EXPECT_TRUE(reply.value().used_exhaustive);
  // Without a bound model the plan runs without O500, which the engine
  // could not use anyway: the same binding, and no O500 attribution.
  NoBoundModelEstimator no_model_stand_in;
  CloudTalkServer no_model_server(config, &fleet_.directory, fleet_.transport.get(),
                                  [this] { return now_; }, &no_model_stand_in);
  auto no_model = no_model_server.Answer(query);
  ASSERT_TRUE(no_model.ok()) << no_model.error().ToString();
  EXPECT_EQ(no_model.value().binding, reply.value().binding);
  const auto no_model_bind = SpanAttrs(no_model.value().trace, "bind");
  EXPECT_TRUE(HasAttr(no_model_bind, "opt.O100.seconds"));
  for (const auto& [key, value] : no_model_bind) {
    EXPECT_EQ(key.rfind("opt.O500.", 0), std::string::npos) << key << "=" << value;
  }
  const obs::Trace& trace = reply.value().trace;
  // The wired estimator vouches for the bound model and the query has a
  // deadline, so the bound check ran.
  const auto bound = SpanAttrs(trace, "bound");
  EXPECT_TRUE(HasAttr(bound, "lb"));
  EXPECT_FALSE(HasAttr(bound, "skipped"));
  const auto bind = SpanAttrs(trace, "bind");
  EXPECT_NE(std::find(bind.begin(), bind.end(),
                      std::make_pair(std::string("mode"), std::string("exhaustive"))),
            bind.end());
  // The branch-and-bound counter and the per-pass attribution (the same
  // numbers `ctlint --show opt --json` prints) ride on the bind span.
  EXPECT_TRUE(HasAttr(bind, "bound_prunes"));
  EXPECT_TRUE(HasAttr(bind, "opt.O100.seconds"));
  EXPECT_TRUE(HasAttr(bind, "opt.O500.pruned"));
}

TEST_F(ServerTest, WarningOnlyQueryAnsweredWithWarningsAttached) {
  CloudTalkServer server = MakeServer();
  // Self-flow (W020) plus an unused variable (W001, and its scope-analysis
  // twin W100 on the never-probed pool host): suspect but legal.
  auto reply = server.Answer("A = (" + Ip(1) + " " + Ip(2) + ")\nunused = (" + Ip(3) +
                             ")\nf1 A -> A size 1M\n");
  ASSERT_TRUE(reply.ok()) << reply.error().ToString();
  EXPECT_FALSE(reply.value().binding.empty());
  ASSERT_EQ(reply.value().warnings.size(), 3u);
  std::vector<std::string> codes;
  for (const lang::Diagnostic& d : reply.value().warnings) {
    codes.push_back(d.code);
    EXPECT_GT(d.span.line, 0);
  }
  EXPECT_NE(std::find(codes.begin(), codes.end(), "W001"), codes.end());
  EXPECT_NE(std::find(codes.begin(), codes.end(), "W020"), codes.end());
  EXPECT_NE(std::find(codes.begin(), codes.end(), "W100"), codes.end());
}

TEST_F(ServerTest, CleanQueryCarriesNoWarnings) {
  CloudTalkServer server = MakeServer();
  auto reply =
      server.Answer("A = (" + Ip(1) + " " + Ip(2) + ")\nf1 A -> " + Ip(0) + " size 1M\n");
  ASSERT_TRUE(reply.ok());
  EXPECT_TRUE(reply.value().warnings.empty());
}

TEST_F(ServerTest, LintErrorRejectsQueryWithPositionAndCode) {
  CloudTalkServer server = MakeServer();
  // E030 size-reference cycle: an error-severity lint finding.
  auto reply = server.Answer("f1 " + Ip(1) + " -> " + Ip(2) + " size sz(f2)\nf2 " + Ip(2) +
                             " -> " + Ip(3) + " size sz(f1)\n");
  ASSERT_FALSE(reply.ok());
  EXPECT_GT(reply.error().line, 0);
  EXPECT_NE(reply.error().message.find("[E030]"), std::string::npos);
}


// ---- Section 7: price quotes ----

TEST_F(ServerTest, QuoteChecksDeadline) {
  CloudTalkServer server = MakeServer();
  // 1 GiB at 1 Gbps takes ~8.6 s: a 20 s deadline holds, a 2 s one cannot.
  const std::string base =
      "A = (" + Ip(1) + ")\nf1 A -> " + Ip(0) + " size 1G";
  auto relaxed = server.Quote(base + " end 20\n");
  ASSERT_TRUE(relaxed.ok()) << relaxed.error().ToString();
  EXPECT_TRUE(relaxed.value().has_deadline);
  EXPECT_DOUBLE_EQ(relaxed.value().deadline, 20.0);
  EXPECT_TRUE(relaxed.value().deadline_met);

  // A deadline Answer refutes gets Answer's error instead of a quote: the
  // admission bound check rejects 2 s on the 1 Gbps NICs...
  auto tight = server.Quote(base + " end 2\n");
  ASSERT_FALSE(tight.ok());
  EXPECT_NE(tight.error().message.find("no binding can meet the deadline"), std::string::npos)
      << tight.error().ToString();
  // ...and lint rejects it outright when the flow's own rate cap rules it out.
  auto capped = server.Quote(base + " rate 1M end 2\n");
  ASSERT_FALSE(capped.ok());
  EXPECT_NE(capped.error().message.find("[E080]"), std::string::npos)
      << capped.error().ToString();

  // Contention the bound check cannot refute: each flow alone makes 10 s,
  // but both share host 3's downlink, so the quote predicts a miss.
  const std::string pools = "A = (" + Ip(1) + " " + Ip(2) + ")\nB = (" + Ip(1) + " " +
                            Ip(2) + ")\n";
  auto contended = server.Quote(pools + "f1 A -> " + Ip(3) + " size 1G end 10\nf2 B -> " +
                                Ip(3) + " size 1G end 10\n");
  ASSERT_TRUE(contended.ok()) << contended.error().ToString();
  EXPECT_TRUE(contended.value().has_deadline);
  EXPECT_GT(contended.value().estimate.makespan, 10.0);
  EXPECT_FALSE(contended.value().deadline_met);

  auto none = server.Quote(base + "\n");
  ASSERT_TRUE(none.ok());
  EXPECT_FALSE(none.value().has_deadline);
}

TEST_F(ServerTest, QuotePricesWorkload) {
  CloudTalkServer server = MakeServer();
  const std::string query =
      "A = (" + Ip(1) + " " + Ip(2) + ")\nf1 A -> " + Ip(0) + " size 1G\n";
  auto quote = server.Quote(query);
  ASSERT_TRUE(quote.ok()) << quote.error().ToString();
  EXPECT_DOUBLE_EQ(quote.value().bytes_moved, 1024.0 * 1024 * 1024);
  EXPECT_EQ(quote.value().endpoints, 2);  // Chosen replica + client.
  EXPECT_GT(quote.value().estimate.makespan, 0);
  EXPECT_GT(quote.value().price, 0);
  // Roughly: 1 GiB * 0.01 + 2 endpoints * ~8.6s * 0.0001.
  EXPECT_NEAR(quote.value().price, 0.01 + 2 * quote.value().estimate.makespan * 0.0001, 1e-9);
}

TEST_F(ServerTest, QuoteDoesNotReserve) {
  CloudTalkServer server = MakeServer();
  const std::string query =
      "A = (" + Ip(1) + " " + Ip(2) + ")\nf1 A -> " + Ip(0) + " size 256M\n";
  auto quote = server.Quote(query);
  ASSERT_TRUE(quote.ok());
  // Neither pool host is held right after the quote.
  EXPECT_FALSE(server.IsReservedAnywhere(Ip(1), now_));
  EXPECT_FALSE(server.IsReservedAnywhere(Ip(2), now_));
  // A real query right after still gets the best endpoint: the quote held
  // nothing.
  auto reply = server.Answer(query);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply.value().binding.at("A").name, quote.value().binding.at("A").name);
}

TEST_F(ServerTest, QuoteScalesWithPricingModel) {
  CloudTalkServer server = MakeServer();
  const std::string query =
      "A = (" + Ip(1) + ")\nf1 A -> " + Ip(0) + " size 1G\n";
  auto cheap = server.Quote(query);
  ASSERT_TRUE(cheap.ok());
  PricingModel expensive;
  expensive.per_gb_moved = 1.0;
  expensive.per_server_second = 0.1;
  server.set_pricing(expensive);
  auto pricier = server.Quote(query);
  ASSERT_TRUE(pricier.ok());
  EXPECT_GT(pricier.value().price, cheap.value().price * 10);
}

// ---- Front-end cache: parse and lint a repeated spelling once ----

// Everything a client sees of an answer but its trace, bit-faithfully.
std::string AnswerDigest(const Result<QueryReply>& reply) {
  if (!reply.ok()) {
    return "error: " + reply.error().ToString();
  }
  const QueryReply& r = reply.value();
  std::ostringstream out;
  out << std::setprecision(17);
  std::map<std::string, std::string> binding;
  for (const auto& [var, endpoint] : r.binding) {
    binding[var] = endpoint.name;
  }
  for (const auto& [var, name] : binding) {
    out << var << '=' << name << ' ';
  }
  for (const auto& [var, score] : r.scores) {
    out << var << ':' << score << ' ';
  }
  for (const lang::Diagnostic& d : r.warnings) {
    out << d.code << '@' << d.span.line << ':' << d.span.column << ' ' << d.message << "; ";
  }
  const ProbeStats& p = r.probe_stats;
  out << "probes " << p.requests_sent << '/' << p.replies_received << '/' << p.bytes_sent
      << '/' << p.bytes_received << '/' << p.timeouts << " makespan " << r.estimate.makespan
      << (r.used_exhaustive ? " exhaustive" : "");
  return out.str();
}

int64_t FrontEndCacheHits() { return obs::Registry::Instance().counter("M119")->value(); }

bool ParsedFromCache(const Result<QueryReply>& reply) {
  return reply.ok() && HasAttr(SpanAttrs(reply.value().trace, "parse"), "cache");
}

// An answer that neither probes nor reserves: its reply is a function of
// the bytes alone.
std::string StaticSpelling(const Fleet& fleet, int size_kib) {
  return "option static\noption noreserve\nA = (" + fleet.Ip(2) + " " + fleet.Ip(3) +
         ")\nf1 A -> " + fleet.Ip(0) + " size " + std::to_string(size_kib) + "K\n";
}

// `body` padded with a trailing comment to about `bytes` bytes.
std::string Padded(const std::string& body, size_t bytes) {
  return body + "# " + std::string(bytes > body.size() + 3 ? bytes - body.size() - 3 : 0, 'x') +
         "\n";
}

TEST(FrontEndCacheTest, RepeatedSpellingsAnswerLikeFreshOnes) {
  // Twin servers on twin fleets see the same queries three times. One gets
  // exact repeats, which hit from the third answer on; the other gets each
  // repeat with a new trailing comment, which never hits. Every pair of
  // replies must match, errors included.
  Fleet cached_fleet;
  Fleet fresh_fleet;
  cached_fleet.MakeBusy(1);
  fresh_fleet.MakeBusy(1);
  CloudTalkServer cached = cached_fleet.MakeServer({}, [] { return 0.0; });
  CloudTalkServer fresh = fresh_fleet.MakeServer({}, [] { return 0.0; });
  const Fleet& f = cached_fleet;
  const std::vector<std::string> queries = {
      // Probes, binds and reserves: later rounds see the earlier holds.
      "A = (" + f.Ip(1) + " " + f.Ip(2) + " " + f.Ip(3) + ")\nf1 A -> " + f.Ip(0) +
          " size 256M\n",
      "option noreserve\nA = (host" + std::to_string(f.topo.hosts()[4]) + " " + f.Ip(5) +
          ")\nB = (" + f.Ip(6) + " " + f.Ip(7) + ")\nf1 A -> B size 64M\nf2 B -> disk size 8M\n",
      StaticSpelling(f, 1024),
      // Warning-only: W001, W020 and W100.
      "A = (" + f.Ip(1) + " " + f.Ip(2) + ")\nunused = (" + f.Ip(3) + ")\nf1 A -> A size 1M\n",
      // Rejected by lint (E030), by the parser, and by the bound check.
      "f1 " + f.Ip(1) + " -> " + f.Ip(2) + " size sz(f2)\nf2 " + f.Ip(2) + " -> " + f.Ip(3) +
          " size sz(f1)\n",
      "A = (" + f.Ip(1) + ")\nf1 A => " + f.Ip(0) + " size 1M\n",
      "A = (" + f.Ip(2) + ")\nf1 A -> " + f.Ip(0) + " size 1G end 0.001\n",
  };
  const std::vector<std::string> rejections = {"[E030]", "[E001]",
                                                "no binding can meet the deadline"};
  const int64_t hits_before = FrontEndCacheHits();
  for (int round = 0; round < 3; ++round) {
    for (size_t q = 0; q < queries.size(); ++q) {
      const std::string& query = queries[q];
      SCOPED_TRACE("round " + std::to_string(round) + ": " + query);
      const Result<QueryReply> repeat = cached.Answer(query);
      const Result<QueryReply> respelled =
          fresh.Answer(round == 0 ? query : query + "# round " + std::to_string(round) + "\n");
      EXPECT_EQ(AnswerDigest(repeat), AnswerDigest(respelled));
      const size_t rejected = queries.size() - rejections.size();
      EXPECT_EQ(repeat.ok(), q < rejected);
      if (q >= rejected) {
        EXPECT_NE(AnswerDigest(repeat).find(rejections[q - rejected]), std::string::npos);
      }
      EXPECT_FALSE(ParsedFromCache(respelled));
      if (repeat.ok()) {
        EXPECT_EQ(ParsedFromCache(repeat), round == 2);
      }
    }
  }
  EXPECT_FALSE(cached.Answer(queries[4]).ok());
  // The third round and the extra answer above hit; the respellings never did.
  EXPECT_EQ(FrontEndCacheHits() - hits_before, static_cast<int64_t>(queries.size()) + 1);
}

// The host of every `probe.host` event, in trace order.
std::vector<std::string> ProbedHosts(const obs::Trace& trace) {
  std::vector<std::string> hosts;
  for (const obs::TraceSpan& span : trace.spans) {
    if (span.name() == "probe.host") {
      for (const auto& [key, value] : trace.AttrsOf(span.id)) {
        if (key == "host") {
          hosts.push_back(value);
        }
      }
    }
  }
  return hosts;
}

TEST(FrontEndCacheTest, CachedSpellingResolvesItsNamesOnEveryAnswer) {
  // A pool names host 1 by an alias and host 3, half loaded, by its
  // address. Once the spelling hits the cache, the alias moves to host 2,
  // which is busy. The next answer, a hit too, must probe and score the
  // host the alias names now, exactly as a fresh server does.
  Fleet cached_fleet;
  Fleet fresh_fleet;
  const std::string alias = "mover";
  for (Fleet* fleet : {&cached_fleet, &fresh_fleet}) {
    fleet->MakeBusy(2);
    const NodeId host3 = fleet->topo.hosts()[3];
    StatusReport half = StatusReport::Idle(host3, fleet->topo.host_caps(host3));
    half.nic_tx_use = half.nic_tx_cap / 2;
    fleet->source.Set(host3, half);
    fleet->directory.AddAlias(alias, fleet->topo.hosts()[1]);
  }
  const Fleet& f = cached_fleet;
  const std::string query = "option noreserve\nA = (" + alias + " " + f.Ip(3) + ")\nf1 A -> " +
                            f.Ip(0) + " size 256M\n";
  CloudTalkServer cached = cached_fleet.MakeServer({}, [] { return 0.0; });
  for (int sighting = 1; sighting <= 2; ++sighting) {
    ASSERT_TRUE(cached.Answer(query).ok());
  }
  const Result<QueryReply> idle = cached.Answer(query);
  ASSERT_TRUE(idle.ok()) << idle.error().ToString();
  ASSERT_TRUE(ParsedFromCache(idle));
  EXPECT_EQ(idle.value().binding.at("A").name, alias);

  for (Fleet* fleet : {&cached_fleet, &fresh_fleet}) {
    fleet->directory.AddAlias(alias, fleet->topo.hosts()[2]);
  }
  const Result<QueryReply> moved = cached.Answer(query);
  CloudTalkServer fresh = fresh_fleet.MakeServer({}, [] { return 0.0; });
  const Result<QueryReply> want = fresh.Answer(query);
  ASSERT_TRUE(moved.ok()) << moved.error().ToString();
  ASSERT_TRUE(want.ok()) << want.error().ToString();
  EXPECT_TRUE(ParsedFromCache(moved));
  EXPECT_FALSE(ParsedFromCache(want));
  EXPECT_EQ(AnswerDigest(moved), AnswerDigest(want));
  EXPECT_EQ(moved.value().binding.at("A").name, f.Ip(3));
  EXPECT_NE(moved.value().scores, idle.value().scores);
  // Every probed host replied, so the alias read the busy host's own report.
  EXPECT_EQ(moved.value().probe_stats.requests_sent, 3);
  EXPECT_EQ(moved.value().probe_stats.replies_received, 3);
  EXPECT_EQ(ProbedHosts(moved.value().trace), ProbedHosts(want.value().trace));
}

TEST(FrontEndCacheTest, SampledPoolDrawsAlikeOnCachedSpellings) {
  // A pool over the sampling threshold is sampled on every answer from the
  // server's one RNG stream, cached spelling or not. Twin servers with one
  // seed see the same query four times, one as exact repeats (hits from
  // the third on), the other with a new trailing comment each time.
  ServerConfig config;
  config.sample_threshold = 4;
  config.sample_override = 5;
  Fleet cached_fleet;
  Fleet fresh_fleet;
  for (Fleet* fleet : {&cached_fleet, &fresh_fleet}) {
    fleet->MakeBusy(1);
    fleet->MakeBusy(4);
    fleet->MakeBusy(6);
  }
  CloudTalkServer cached = cached_fleet.MakeServer(config, [] { return 0.0; });
  CloudTalkServer fresh = fresh_fleet.MakeServer(config, [] { return 0.0; });
  const Fleet& f = cached_fleet;
  std::string pool;
  for (int i = 0; i < 9; ++i) {
    pool += f.Ip(i) + " ";
  }
  const std::string query = "A = (" + pool + ")\nf1 A -> " + f.Ip(9) + " size 1M\n";
  for (int round = 0; round < 4; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const Result<QueryReply> repeat = cached.Answer(query);
    const Result<QueryReply> respelled =
        fresh.Answer(query + "# round " + std::to_string(round) + "\n");
    ASSERT_TRUE(repeat.ok()) << repeat.error().ToString();
    ASSERT_TRUE(respelled.ok()) << respelled.error().ToString();
    EXPECT_EQ(ParsedFromCache(repeat), round >= 2);
    EXPECT_EQ(AnswerDigest(repeat), AnswerDigest(respelled));
    EXPECT_EQ(repeat.value().probe_stats.requests_sent, 6);  // 5 sampled + 1 literal.
    EXPECT_EQ(ProbedHosts(repeat.value().trace), ProbedHosts(respelled.value().trace));
    const auto sample = SpanAttrs(repeat.value().trace, "sample");
    EXPECT_EQ(sample, SpanAttrs(respelled.value().trace, "sample"));
    EXPECT_NE(std::find(sample.begin(), sample.end(),
                        std::make_pair(std::string("sampled"), std::string("1"))),
              sample.end());
  }
}

TEST(FrontEndCacheTest, SpellingIsKeptOnItsSecondSighting) {
  Fleet fleet;
  CloudTalkServer server = fleet.MakeServer({}, [] { return 0.0; });
  const std::string query = StaticSpelling(fleet, 64);
  const int64_t hits_before = FrontEndCacheHits();
  for (int sighting = 1; sighting <= 3; ++sighting) {
    SCOPED_TRACE("sighting " + std::to_string(sighting));
    const Result<QueryReply> reply = server.Answer(query);
    ASSERT_TRUE(reply.ok()) << reply.error().ToString();
    EXPECT_EQ(FrontEndCacheHits() - hits_before, sighting == 3 ? 1 : 0);
    EXPECT_EQ(ParsedFromCache(reply), sighting == 3);
  }
  // A spelling differing by one byte is a new spelling.
  const Result<QueryReply> other = server.Answer(query + "\n");
  ASSERT_TRUE(other.ok());
  EXPECT_FALSE(ParsedFromCache(other));
}

TEST(FrontEndCacheTest, EverySpellingOfALongCycleIsKept) {
  // Two thousand spellings answered round-robin: the first round records
  // each, the second keeps each, and from the third on every answer hits.
  Fleet fleet;
  CloudTalkServer server = fleet.MakeServer({}, [] { return 0.0; });
  std::vector<std::string> spellings;
  for (int i = 0; i < 2000; ++i) {
    spellings.push_back(StaticSpelling(fleet, i + 1));
  }
  for (int round = 1; round <= 5; ++round) {
    const int64_t hits_before = FrontEndCacheHits();
    for (const std::string& spelling : spellings) {
      ASSERT_TRUE(server.Answer(spelling).ok()) << spelling;
    }
    EXPECT_EQ(FrontEndCacheHits() - hits_before, round >= 3 ? 2000 : 0) << "round " << round;
  }
}

TEST(FrontEndCacheTest, OldestSpellingIsEvictedFirst) {
  // Spellings of a sixteenth of the budget each: after seventeen are kept,
  // the budget no longer holds the first one, while the last one stays.
  Fleet fleet;
  CloudTalkServer server = fleet.MakeServer({}, [] { return 0.0; });
  const size_t bytes = CloudTalkServer::kFrontEndBudget / 16;
  std::vector<std::string> spellings;
  for (int i = 0; i < 17; ++i) {
    spellings.push_back(Padded(StaticSpelling(fleet, i + 1), bytes));
    ASSERT_TRUE(server.Answer(spellings.back()).ok());
    ASSERT_TRUE(server.Answer(spellings.back()).ok());  // Kept on this sighting.
  }
  const int64_t hits_before = FrontEndCacheHits();
  const Result<QueryReply> latest = server.Answer(spellings.back());
  const Result<QueryReply> second = server.Answer(spellings[1]);
  const Result<QueryReply> earliest = server.Answer(spellings.front());
  ASSERT_TRUE(latest.ok() && second.ok() && earliest.ok());
  EXPECT_TRUE(ParsedFromCache(latest));
  EXPECT_TRUE(ParsedFromCache(second));
  EXPECT_FALSE(ParsedFromCache(earliest));
  EXPECT_EQ(FrontEndCacheHits() - hits_before, 2);
}

TEST(FrontEndCacheTest, ConcurrentAnswersMatchSingleThreadedReplies) {
  // Four threads share one server over small spellings, which stay cached,
  // and spellings of over a third of the budget, which keep evicting one
  // another. Every reply must equal the one a fresh server gives.
  Fleet fleet;
  std::vector<std::string> spellings;
  for (int i = 0; i < 6; ++i) {
    spellings.push_back(StaticSpelling(fleet, 100 + i));
  }
  for (int i = 0; i < 4; ++i) {
    spellings.push_back(Padded(StaticSpelling(fleet, 200 + i),
                               CloudTalkServer::kFrontEndBudget / 3 + 1));
  }
  std::vector<std::string> want;
  {
    CloudTalkServer reference = fleet.MakeServer({}, [] { return 0.0; });
    for (const std::string& spelling : spellings) {
      want.push_back(AnswerDigest(reference.Answer(spelling)));
      ASSERT_EQ(want.back().rfind("error", 0), std::string::npos) << want.back();
    }
  }
  CloudTalkServer server = fleet.MakeServer({}, [] { return 0.0; });
  constexpr int kThreads = 4;
  constexpr int kAnswers = 60;
  std::vector<std::vector<std::string>> got(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&server, &spellings, &got, t] {
      for (int i = 0; i < kAnswers; ++i) {
        got[t].push_back(AnswerDigest(server.Answer(spellings[(i + t) % spellings.size()])));
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kAnswers; ++i) {
      EXPECT_EQ(got[t][i], want[(i + t) % spellings.size()]) << "thread " << t << " answer " << i;
    }
  }
}

// ---- One host identity per answer ----

// A one-shard and a four-shard server over `fleet`, both at the time `now`,
// with `packet` as their packet estimator.
std::vector<std::unique_ptr<CloudTalkServer>> OneAndFourShards(
    Fleet& fleet, const Seconds* now, CompletionEstimator* packet = nullptr,
    const ServerConfig& config = {}) {
  std::vector<std::unique_ptr<CloudTalkServer>> servers;
  for (const int shards : {1, 4}) {
    servers.push_back(std::make_unique<CloudTalkServer>(
        ShardedConfig{config, shards}, &fleet.directory, fleet.transport.get(),
        [now] { return *now; }, packet));
  }
  return servers;
}

std::string Alias(const Fleet& fleet, int host_index) {
  return "host" + std::to_string(fleet.topo.hosts()[host_index]);
}

TEST_F(ServerTest, HostSpelledTwiceInOnePoolIsBoundOnce) {
  // `host2` and 10.0.0.2 are one host. With host 3 busy, binding A and B to
  // the pool's two spellings of host 2 would put both on one host, although
  // the query does not say `option allow_same`.
  fleet_.MakeBusy(2);
  const std::string query = "option noreserve\nA = B = (" + Alias(fleet_, 1) + " " + Ip(1) +
                            " " + Ip(2) + ")\nf1 A -> " + Ip(0) + " size 1M\nf2 B -> " + Ip(0) +
                            " size 1M\n";
  for (const auto& server : OneAndFourShards(fleet_, &now_)) {
    SCOPED_TRACE(std::to_string(server->num_shards()) + " shard(s)");
    const auto reply = server->Answer(query);
    ASSERT_TRUE(reply.ok()) << reply.error().ToString();
    const Binding& binding = reply.value().binding;
    EXPECT_NE(fleet_.directory.Resolve(binding.at("A").name),
              fleet_.directory.Resolve(binding.at("B").name))
        << binding.at("A").name << " and " << binding.at("B").name;
    EXPECT_EQ(binding.at("B").name, Ip(2));
  }
}

// The binding's hosts, by variable.
std::map<std::string, NodeId> BoundHosts(const Fleet& fleet, const Binding& binding) {
  std::map<std::string, NodeId> hosts;
  for (const auto& [var, endpoint] : binding) {
    hosts[var] = fleet.directory.Resolve(endpoint.name);
  }
  return hosts;
}

TEST_F(ServerTest, PacketSearchBindsAHostSpelledTwiceOnce) {
  // The packet twin of HostSpelledTwiceInOnePoolIsBoundOnce: `host1` and
  // 10.0.0.1 are one host, to the exhaustive search too. Its twin spells
  // host 1 by its address both times.
  PacketLevelEstimator packet(&fleet_.topo, &fleet_.directory);
  const std::string flows = ")\nf1 A -> " + Ip(0) + " size 1M\nf2 B -> " + Ip(0) + " size 1M\n";
  const std::string head = "option packet\noption noreserve\nA = B = (";
  for (const auto& server : OneAndFourShards(fleet_, &now_, &packet)) {
    SCOPED_TRACE(std::to_string(server->num_shards()) + " shard(s)");
    const auto reply =
        server->Answer(head + Alias(fleet_, 1) + " " + Ip(1) + " " + Ip(2) + flows);
    ASSERT_TRUE(reply.ok()) << reply.error().ToString();
    const auto twin = server->Answer(head + Ip(1) + " " + Ip(1) + " " + Ip(2) + flows);
    ASSERT_TRUE(twin.ok()) << twin.error().ToString();
    EXPECT_TRUE(reply.value().used_exhaustive);
    EXPECT_EQ(BoundHosts(fleet_, reply.value().binding), BoundHosts(fleet_, twin.value().binding))
        << reply.value().binding.at("A").name << " and " << reply.value().binding.at("B").name;
    EXPECT_EQ(reply.value().estimate.makespan, twin.value().estimate.makespan);
  }
}

TEST_F(ServerTest, PacketSearchFindsNoLegalBindingOnOneHostSpelledTwice) {
  // Two variables over one host named twice: no two hosts to bind, as for
  // the twin that spells it by its address both times.
  PacketLevelEstimator packet(&fleet_.topo, &fleet_.directory);
  const std::string flows = ")\nf1 A -> " + Ip(0) + " size 1M\nf2 B -> " + Ip(0) + " size 1M\n";
  for (const auto& server : OneAndFourShards(fleet_, &now_, &packet)) {
    SCOPED_TRACE(std::to_string(server->num_shards()) + " shard(s)");
    const auto reply =
        server->Answer("option packet\nA = B = (" + Alias(fleet_, 3) + " " + Ip(3) + flows);
    const auto twin = server->Answer("option packet\nA = B = (" + Ip(3) + " " + Ip(3) + flows);
    ASSERT_FALSE(twin.ok());
    ASSERT_FALSE(reply.ok()) << reply.value().binding.at("A").name << " and "
                             << reply.value().binding.at("B").name;
    EXPECT_NE(twin.error().message.find("no legal binding"), std::string::npos)
        << twin.error().ToString();
    EXPECT_EQ(reply.error().message, twin.error().message);
  }
}

TEST_F(ServerTest, QuotePricesAHostSendingToItsOwnAddressAsALoopback) {
  // A's one candidate is host 5 by its alias, and A sends to host 5's
  // address: a loopback, priced like the twin that spells both alike.
  const std::string flow = ")\nf1 A -> " + Ip(5) + " size 1G\n";
  for (const auto& server : OneAndFourShards(fleet_, &now_)) {
    SCOPED_TRACE(std::to_string(server->num_shards()) + " shard(s)");
    const auto by_alias = server->Quote("A = (" + Alias(fleet_, 5) + flow);
    ASSERT_TRUE(by_alias.ok()) << by_alias.error().ToString();
    const auto by_address = server->Quote("A = (" + Ip(5) + flow);
    ASSERT_TRUE(by_address.ok()) << by_address.error().ToString();
    EXPECT_LT(by_address.value().estimate.makespan, 1e-3);
    EXPECT_EQ(by_alias.value().estimate.makespan, by_address.value().estimate.makespan);
    EXPECT_EQ(by_alias.value().endpoints, by_address.value().endpoints);
    EXPECT_DOUBLE_EQ(by_alias.value().price, by_address.value().price);
  }
}

TEST_F(ServerTest, AdmissionBoundCountsAnAliasedSourceOnce) {
  // f1 and f2 share one chain rate and one source, host 6, spelled once by
  // address and once by alias: 2 GiB through its 1 Gbps NIC cannot finish
  // within 12 s. The twin spelling host 6 by address twice is rejected the
  // same way.
  const auto query = [this](const std::string& second_source) {
    return "A = (" + Ip(1) + ")\nf0 A -> " + Ip(0) + " size 1M\nf1 " + Ip(6) + " -> " + Ip(9) +
           " size 1G rate r(f2) end 12\nf2 " + second_source + " -> " + Ip(8) +
           " size 1G rate r(f1)\n";
  };
  for (const auto& server : OneAndFourShards(fleet_, &now_)) {
    SCOPED_TRACE(std::to_string(server->num_shards()) + " shard(s)");
    const auto twin = server->Answer(query(Ip(6)));
    ASSERT_FALSE(twin.ok());
    EXPECT_NE(twin.error().message.find("no binding can meet the deadline"), std::string::npos)
        << twin.error().ToString();
    const auto reply = server->Answer(query(Alias(fleet_, 6)));
    ASSERT_FALSE(reply.ok()) << "answered: " << reply.value().binding.at("A").name;
    EXPECT_EQ(reply.error().message, twin.error().message);
  }
}

// The engines read a host's report at its identity slot, its first
// spelling. In the next three cases that spelling is an alias the status
// gather never lists, while the host's address is a literal endpoint. Each
// must read the host as its twin does, which spells the alias by address.

TEST_F(ServerTest, InertPoolAliasHidesNoReport) {
  // B is inert, so probe pruning skips its `host6`. The chain group still
  // sends 2 GiB from host 6, and the quote's sink, host 5, is busy.
  fleet_.MakeBusy(5);
  const auto chain = [this](const std::string& inert) {
    return "A = (" + Ip(1) + ")\nB = (" + inert + ")\nf0 A -> " + Ip(0) + " size 1M\nf1 " +
           Ip(6) + " -> " + Ip(9) + " size 1G rate r(f2) end 12\nf2 " + Ip(6) + " -> " + Ip(8) +
           " size 1G rate r(f1)\n";
  };
  const auto sink = [this](const std::string& inert) {
    return "A = (" + Ip(1) + ")\nB = (" + inert + ")\nf1 A -> " + Ip(5) + " size 1G\n";
  };
  for (const auto& server : OneAndFourShards(fleet_, &now_)) {
    SCOPED_TRACE(std::to_string(server->num_shards()) + " shard(s)");
    const auto twin = server->Answer(chain(Ip(6)));
    ASSERT_FALSE(twin.ok());
    EXPECT_NE(twin.error().message.find("no binding can meet the deadline"), std::string::npos)
        << twin.error().ToString();
    const auto reply = server->Answer(chain(Alias(fleet_, 6)));
    ASSERT_FALSE(reply.ok()) << "answered: " << reply.value().binding.at("A").name;
    EXPECT_EQ(reply.error().message, twin.error().message);

    const auto by_address = server->Quote(sink(Ip(5)));
    ASSERT_TRUE(by_address.ok()) << by_address.error().ToString();
    const auto by_alias = server->Quote(sink(Alias(fleet_, 5)));
    ASSERT_TRUE(by_alias.ok()) << by_alias.error().ToString();
    EXPECT_GT(by_address.value().estimate.makespan, 20.0);  // Host 5's NIC is busy.
    EXPECT_EQ(by_alias.value().estimate.makespan, by_address.value().estimate.makespan);
    EXPECT_DOUBLE_EQ(by_alias.value().price, by_address.value().price);
  }
}

TEST_F(ServerTest, UndrawnSampleAliasHidesNoReport) {
  // A's pool is sampled down to one candidate, never its `host5`; host 5,
  // busy, receives f2 by its address.
  fleet_.MakeBusy(5);
  ServerConfig config;
  config.sample_threshold = 3;
  config.sample_override = 1;
  config.seed = 7;
  const int drawn = Rng(config.seed).SampleWithoutReplacement(4, 1)[0];
  const auto query = [&](const std::string& spelling) {
    std::vector<std::string> pool = {Ip(1), Ip(2), Ip(3), Ip(4)};
    pool[(drawn + 1) % 4] = spelling;
    return "A = (" + pool[0] + " " + pool[1] + " " + pool[2] + " " + pool[3] + ")\nf1 A -> " +
           Ip(0) + " size 1M\nf2 " + Ip(7) + " -> " + Ip(5) + " size 1G\n";
  };
  // A fresh pair of servers per spelling, so both draw the same sample.
  const auto by_address = OneAndFourShards(fleet_, &now_, nullptr, config);
  const auto by_alias = OneAndFourShards(fleet_, &now_, nullptr, config);
  for (size_t i = 0; i < by_address.size(); ++i) {
    SCOPED_TRACE(std::to_string(by_address[i]->num_shards()) + " shard(s)");
    const auto twin = by_address[i]->Quote(query(Ip(5)));
    ASSERT_TRUE(twin.ok()) << twin.error().ToString();
    const auto quote = by_alias[i]->Quote(query(Alias(fleet_, 5)));
    ASSERT_TRUE(quote.ok()) << quote.error().ToString();
    EXPECT_EQ(quote.value().binding.at("A").name, twin.value().binding.at("A").name);
    EXPECT_GT(twin.value().estimate.makespan, 20.0);  // Host 5's NIC is busy.
    EXPECT_EQ(quote.value().estimate.makespan, twin.value().estimate.makespan);
  }
}

TEST_F(ServerTest, StaticInertPoolAliasHidesNoReport) {
  // `option static` gives each host a footprint slot names its idle report,
  // pool entry or literal endpoint: B's `host6` is outside the footprint,
  // and host 6's address is in no pool, or there is no B at all. Idle at its
  // nominal 1 Gbps, host 6 cannot send 2 GiB within 12 s.
  const auto query = [this](const std::string& inert) {
    return "option static\nA = (" + Ip(1) + ")\n" +
           (inert.empty() ? "" : "B = (" + inert + ")\n") + "f0 A -> " + Ip(0) +
           " size 1M\nf1 " + Ip(6) + " -> " + Ip(9) + " size 1G rate r(f2) end 12\nf2 " +
           Ip(6) + " -> " + Ip(8) + " size 1G rate r(f1)\n";
  };
  for (const auto& server : OneAndFourShards(fleet_, &now_)) {
    SCOPED_TRACE(std::to_string(server->num_shards()) + " shard(s)");
    const auto twin = server->Answer(query(Ip(6)));
    ASSERT_FALSE(twin.ok());
    EXPECT_NE(twin.error().message.find("no binding can meet the deadline"), std::string::npos)
        << twin.error().ToString();
    for (const std::string& inert : {Alias(fleet_, 6), std::string()}) {
      SCOPED_TRACE("B = (" + inert + ")");
      const auto reply = server->Answer(query(inert));
      ASSERT_FALSE(reply.ok()) << "answered: " << reply.value().binding.at("A").name;
      EXPECT_EQ(reply.error().message, twin.error().message);
    }
  }
}

TEST_F(ServerTest, StaticQuoteReadsALiteralEndpointAsTheProbeDoes) {
  // Host 5, a literal endpoint no pool names, receives two 1 GiB flows.
  // Idle at its nominal 1 Gbps it is their bottleneck under `option static`,
  // as it is when probed on this idle fleet.
  const std::string flows = "A = (" + Ip(1) + ")\nf1 A -> " + Ip(5) + " size 1G\nf2 " + Ip(7) +
                            " -> " + Ip(5) + " size 1G\n";
  for (const auto& server : OneAndFourShards(fleet_, &now_)) {
    SCOPED_TRACE(std::to_string(server->num_shards()) + " shard(s)");
    const auto probed = server->Quote(flows);
    ASSERT_TRUE(probed.ok()) << probed.error().ToString();
    const auto quote = server->Quote("option static\n" + flows);
    ASSERT_TRUE(quote.ok()) << quote.error().ToString();
    EXPECT_GT(probed.value().estimate.makespan, 17.0);
    EXPECT_EQ(quote.value().estimate.makespan, probed.value().estimate.makespan);
  }
}

TEST(HostStatusTest, ReadsEachHostAtItsIdentitySlot) {
  // Slots: 10.0.0.2, `host2` (host 2 again), 10.0.0.3, `nowhere` (no host),
  // then the sink, 10.0.0.4.
  Fleet fleet;
  const Query query = MustParse("A = (" + fleet.Ip(2) + " " + Alias(fleet, 2) + " " +
                                fleet.Ip(3) + " nowhere)\nf1 A -> " + fleet.Ip(4) +
                                " size 1M\n");
  const CompiledQuery compiled = MustCompile(query);
  const AnswerHosts answer(compiled.hosts(), &fleet.directory);
  ASSERT_EQ(answer.identity, (std::vector<int>{0, 0, 2, 3, 4}));
  ASSERT_EQ(answer.slots[3].node, kInvalidNode);

  // By spelling, a merged host gets the report filed under its identity
  // slot's spelling, not its alias's.
  StatusByAddress by_spelling;
  by_spelling[fleet.Ip(2)] = MakeReport(1e9, 300e6, 0);
  by_spelling[Alias(fleet, 2)] = MakeReport(1e9, 0, 0);
  by_spelling[fleet.Ip(4)] = MakeReport(1e9, 0, 0);
  const HostStatus status(compiled.hosts(), by_spelling, answer.identity);
  ASSERT_NE(status.Find(0), nullptr);
  EXPECT_EQ(status.Find(0)->nic_tx_use, 300e6);
  EXPECT_EQ(status.Find(1), status.Find(0));
  EXPECT_NE(status.Find(4), nullptr);
  // No report, a name the directory does not know, and no slot read null.
  EXPECT_EQ(status.Find(2), nullptr);
  EXPECT_EQ(status.Find(3), nullptr);
  EXPECT_EQ(status.Find(-1), nullptr);
  EXPECT_EQ(HostStatus().Find(0), nullptr);

  // A report filed through an alias is its host's, read at either slot.
  HostStatus gathered(compiled.hosts(), answer.identity);
  gathered.Set(1, MakeReport(1e9, 100e6, 0));
  ASSERT_NE(gathered.Find(0), nullptr);
  EXPECT_EQ(gathered.Find(0)->nic_tx_use, 100e6);
  EXPECT_EQ(gathered.Find(1), gathered.Find(0));
  EXPECT_EQ(gathered.Find(3), nullptr);
}

TEST_F(ServerTest, HoldTakenThroughAnAliasKeepsTheAddressOff) {
  // With host 4 busy, the first answer binds host 2 through its alias and
  // holds it. A pool spelling host 2 by its address must then pass it over.
  fleet_.MakeBusy(3);
  const std::string sink = ")\nf1 A -> " + Ip(0) + " size 1M\n";
  for (const auto& server : OneAndFourShards(fleet_, &now_)) {
    SCOPED_TRACE(std::to_string(server->num_shards()) + " shard(s)");
    const auto first = server->Answer("A = (" + Alias(fleet_, 1) + " " + Ip(3) + sink);
    ASSERT_TRUE(first.ok()) << first.error().ToString();
    EXPECT_EQ(first.value().binding.at("A").name, Alias(fleet_, 1));
    EXPECT_TRUE(server->IsReservedAnywhere(Ip(1), now_));
    EXPECT_TRUE(server->IsReservedAnywhere(Alias(fleet_, 1), now_));
    const auto second = server->Answer("A = (" + Ip(1) + " " + Ip(3) + sink);
    ASSERT_TRUE(second.ok()) << second.error().ToString();
    EXPECT_EQ(second.value().binding.at("A").name, Ip(3));
  }
  // The one-shard table answers lookups by name for the host the name
  // resolves to.
  CloudTalkServer flat = MakeServer();
  ASSERT_TRUE(flat.Answer("A = (" + Alias(fleet_, 1) + " " + Ip(3) + sink).ok());
  EXPECT_TRUE(flat.reservations().IsReserved(Ip(1), now_));
  EXPECT_TRUE(flat.reservations().IsReserved(fleet_.topo.hosts()[1], now_));
  EXPECT_FALSE(flat.reservations().IsReserved(Ip(3), now_));
}

TEST_F(ServerTest, QuoteCountsAnAliasAndItsAddressAsOneEndpoint) {
  // Host 3 receives f1 and writes f2 to its disk. Spelling it once by its
  // alias names the same two hosts, so the quote is the same.
  const std::string pool = "A = (" + Ip(1) + " " + Ip(2) + ")\nf1 A -> " + Ip(3) + " size 1G\nf2 ";
  for (const auto& server : OneAndFourShards(fleet_, &now_)) {
    SCOPED_TRACE(std::to_string(server->num_shards()) + " shard(s)");
    const auto by_address = server->Quote(pool + Ip(3) + " -> disk size 1G\n");
    ASSERT_TRUE(by_address.ok()) << by_address.error().ToString();
    EXPECT_EQ(by_address.value().endpoints, 2);
    const auto by_alias = server->Quote(pool + Alias(fleet_, 3) + " -> disk size 1G\n");
    ASSERT_TRUE(by_alias.ok()) << by_alias.error().ToString();
    EXPECT_EQ(by_alias.value().binding.at("A").name, by_address.value().binding.at("A").name);
    EXPECT_EQ(by_alias.value().endpoints, by_address.value().endpoints);
    EXPECT_DOUBLE_EQ(by_alias.value().price, by_address.value().price);
  }
}

TEST_F(ServerTest, PriorityVariableBindsItsPeerSpelledByAlias) {
  // Z's only peer is host 2, spelled by its alias; Z's pool spells host 2 by
  // its address. Binding Z there turns the transfer into a loopback, so it
  // wins with the top score although host 2 is busy.
  fleet_.MakeBusy(1);
  CloudTalkServer server = MakeServer();
  const auto reply = server.Answer("option noreserve\nZ = (" + Ip(2) + " " + Ip(1) + ")\nf1 " +
                                   Alias(fleet_, 1) + " -> Z size 100M\n");
  ASSERT_TRUE(reply.ok()) << reply.error().ToString();
  EXPECT_EQ(reply.value().binding.at("Z").name, Ip(1));
  ASSERT_EQ(reply.value().scores.size(), 1u);
  EXPECT_EQ(reply.value().scores[0].second, kMaxScore);
}

TEST_F(ServerTest, SampledPoolsDrawInFirstMentionOrder) {
  // Two pools over the sampling threshold: A's sample is drawn first, then
  // B's, from the server's one seeded stream; the probes follow the draws.
  ServerConfig config;
  config.sample_threshold = 3;
  config.sample_override = 2;
  config.seed = 11;
  CloudTalkServer server = MakeServer(config);
  const std::vector<std::string> a = {Ip(1), Ip(2), Ip(3), Ip(4)};
  const std::vector<std::string> b = {Ip(5), Ip(6), Ip(7), Ip(8)};
  const auto reply = server.Answer("option noreserve\nB = (" + b[0] + " " + b[1] + " " + b[2] +
                                   " " + b[3] + ")\nA = (" + a[0] + " " + a[1] + " " + a[2] +
                                   " " + a[3] + ")\nf1 B -> " + Ip(0) + " size 1M\nf2 A -> " +
                                   Ip(0) + " size 1M\n");
  ASSERT_TRUE(reply.ok()) << reply.error().ToString();
  Rng rng(config.seed);
  std::vector<std::string> want;
  for (const std::vector<std::string>* pool : {&b, &a}) {
    for (const int pick : rng.SampleWithoutReplacement(4, 2)) {
      want.push_back((*pool)[pick]);
    }
  }
  want.push_back(Ip(0));
  EXPECT_EQ(ProbedHosts(reply.value().trace), want);
}

TEST_F(ServerTest, UnresolvableNamesBindBySpellingAndAreNeverHeld) {
  // Names the directory does not know are never probed or held, but they
  // stay bindable, and two of them are two candidates.
  for (const auto& server : OneAndFourShards(fleet_, &now_)) {
    SCOPED_TRACE(std::to_string(server->num_shards()) + " shard(s)");
    const int64_t holds_before = obs::Registry::Instance().counter("M104")->value();
    const auto reply = server->Answer("A = B = (ghost1 ghost2)\nf1 A -> " + Ip(0) +
                                      " size 1M\nf2 B -> " + Ip(0) + " size 1M\n");
    ASSERT_TRUE(reply.ok()) << reply.error().ToString();
    EXPECT_EQ(reply.value().binding.at("A").name, "ghost1");
    EXPECT_EQ(reply.value().binding.at("B").name, "ghost2");
    EXPECT_EQ(obs::Registry::Instance().counter("M104")->value(), holds_before);
    EXPECT_EQ(reply.value().probe_stats.requests_sent, 1);  // The literal sink only.
    EXPECT_FALSE(server->IsReservedAnywhere("ghost1", now_));
    const auto reserve = SpanAttrs(reply.value().trace, "reserve");
    EXPECT_NE(std::find(reserve.begin(), reserve.end(),
                        std::make_pair(std::string("reserved"), std::string("0"))),
              reserve.end());
  }
}

}  // namespace
}  // namespace cloudtalk
