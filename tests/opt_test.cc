// Tests for the static query-optimisation passes (src/lang/opt.h).
//
// Two layers: per-pass unit tests that pin down what each O-code may and
// may not claim, and the differential sweep that enforces the framework's
// core contract — for every fixture under examples/queries/{good,opt} and
// for both idle and heterogeneous status, exhaustive search with the plan
// applied returns the byte-identical winning binding and bit-exact
// estimate of the unoptimised walk, serial and threaded, inside the query's
// bound interval.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/estimator.h"
#include "src/core/exhaustive.h"
#include "src/lang/bound.h"
#include "src/lang/opt.h"
#include "src/lang/parser.h"

namespace cloudtalk {
namespace {

using lang::CompiledQuery;
using lang::Endpoint;
using lang::HostStatus;
using lang::InterchangeableClasses;
using lang::OptimizeParams;
using lang::Parse;
using lang::PrunedSpace;
using lang::Query;
using lang::SatisfiesRequirements;
using lang::VarComm;

Query MustParse(const std::string& text) {
  auto query = Parse(text);
  EXPECT_TRUE(query.ok()) << (query.ok() ? "" : query.error().ToString());
  return std::move(query).value();
}

CompiledQuery MustCompile(const Query& query) {
  auto compiled = CompiledQuery::Compile(query);
  EXPECT_TRUE(compiled.ok()) << (compiled.ok() ? "" : compiled.error().ToString());
  return std::move(compiled).value();
}

StatusReport MakeReport(Bps cap, Bps tx_use, Bps rx_use) {
  StatusReport r;
  r.nic_tx_cap = cap;
  r.nic_tx_use = tx_use;
  r.nic_rx_cap = cap;
  r.nic_rx_use = rx_use;
  r.disk_read_cap = 4e9;
  r.disk_write_cap = 4e9;
  return r;
}

// Every address mentioned by the query gets a report; `heterogeneous`
// derives a per-address load from the name so hosts differ deterministically
// (distinct winners, not an all-ties landscape). Hosts are numbered by
// `identity`.
HostStatus SynthesizeStatus(const CompiledQuery& compiled, bool heterogeneous,
                            std::span<const int> identity = {}) {
  StatusByAddress status;
  auto add = [&](const Endpoint& e) {
    if (e.kind != Endpoint::Kind::kAddress || status.count(e.name) > 0) {
      return;
    }
    size_t h = 0;
    for (char c : e.name) {
      h = h * 131 + static_cast<unsigned char>(c);
    }
    const double load = heterogeneous ? 50e6 * static_cast<double>(h % 16) : 0;
    status[e.name] = MakeReport(1e9, load, load / 2);
  };
  for (const VarComm& var : compiled.variables()) {
    for (const Endpoint& e : var.pool) {
      add(e);
    }
  }
  for (const lang::CompiledFlow& flow : compiled.flows()) {
    add(flow.src);
    add(flow.dst);
  }
  return HostStatus(compiled.hosts(), status, identity);
}

// ---- Shared analyses ----

TEST(OptAnalysisTest, SatisfiesRequirementsTreatsMissingInfoAsPass) {
  VarComm var;
  var.cpu_required = 4;
  var.mem_required = 8LL << 30;
  StatusReport no_info;  // No cpu/mem totals reported.
  EXPECT_TRUE(SatisfiesRequirements(var, no_info));

  StatusReport rich;
  rich.cpu_cores_total = 8;
  rich.cpu_cores_used = 2;
  rich.mem_total = 16LL << 30;
  rich.mem_used = 4LL << 30;
  EXPECT_TRUE(SatisfiesRequirements(var, rich));

  rich.cpu_cores_used = 6;  // 2 free < 4 required.
  EXPECT_FALSE(SatisfiesRequirements(var, rich));
  rich.cpu_cores_used = 2;
  rich.mem_used = 10LL << 30;  // 6G free < 8G required.
  EXPECT_FALSE(SatisfiesRequirements(var, rich));

  VarComm unconstrained;  // requires nothing: always passes.
  rich.cpu_cores_used = 8;
  rich.mem_used = rich.mem_total;
  EXPECT_TRUE(SatisfiesRequirements(unconstrained, rich));
}

TEST(OptAnalysisTest, DeadFlowIndicesFindsZeroSizeFlows) {
  const Query query = MustParse(
      "A = (v1 v2)\n"
      "f1 A -> sink size 32M\n"
      "f2 A -> sink size 0\n"
      "f3 sink -> A size 0\n");
  const CompiledQuery compiled = MustCompile(query);
  EXPECT_EQ(lang::DeadFlowIndices(compiled), (std::vector<int32_t>{1, 2}));
}

TEST(OptAnalysisTest, InterchangeableClassesRequiresFullSymmetry) {
  // A and B receive identical shards of one chain group: symmetric.
  const Query sym = MustParse(
      "A = B = (v1 v2 v3)\n"
      "f1 src -> A size 1M rate 5M\n"
      "f2 src -> B size 1M rate r(f1)\n");
  const auto classes = InterchangeableClasses(MustCompile(sym));
  ASSERT_EQ(classes.size(), 1u);
  EXPECT_EQ(classes[0], (std::vector<int32_t>{0, 1}));

  // Different sizes break the symmetry.
  const Query asym = MustParse(
      "A = B = (v1 v2 v3)\n"
      "f1 src -> A size 1M rate 5M\n"
      "f2 src -> B size 2M rate r(f1)\n");
  EXPECT_TRUE(InterchangeableClasses(MustCompile(asym)).empty());

  // Different pools break it too.
  const Query pools = MustParse(
      "A = (v1 v2)\nB = (v1 v3)\n"
      "f1 src -> A size 1M rate 5M\n"
      "f2 src -> B size 1M rate r(f1)\n");
  EXPECT_TRUE(InterchangeableClasses(MustCompile(pools)).empty());

  // Same (src, dst, size) but different start times: not symmetric.
  const Query starts = MustParse(
      "A = B = (v1 v2 v3)\n"
      "f1 src -> A size 1M rate 5M\n"
      "f2 src -> B size 1M start 2 rate r(f1)\n");
  EXPECT_TRUE(InterchangeableClasses(MustCompile(starts)).empty());
}

// ---- Individual passes ----

TEST(OptPassTest, RegistryIsStableAndOrdered) {
  const auto& passes = lang::OptPasses();
  ASSERT_EQ(passes.size(), 5u);
  uint32_t all = 0;
  for (size_t i = 1; i < passes.size(); ++i) {
    EXPECT_LT(std::string(passes[i - 1].code), passes[i].code);
  }
  for (const auto& pass : passes) {
    EXPECT_EQ(all & pass.bit, 0u) << pass.code;  // Bits are unique.
    all |= pass.bit;
  }
  EXPECT_EQ(all, lang::kOptAllPasses);
}

TEST(OptPassTest, DomainPruningDropsRequirementViolators) {
  const Query query = MustParse(
      "A = (v1 v2 v3)\n"
      "A requires cpu 4\n"
      "f1 A -> sink size 32M\n");
  const CompiledQuery compiled = MustCompile(query);
  StatusByAddress status;
  for (const char* name : {"v1", "v2", "v3", "sink"}) {
    status[name] = MakeReport(1e9, 0, 0);
  }
  status["v2"].cpu_cores_total = 8;
  status["v2"].cpu_cores_used = 6;  // Only 2 free: pruned.
  status["v3"].cpu_cores_total = 8;
  status["v3"].cpu_cores_used = 1;  // 7 free: kept.
  // v1 reports no cpu info: kept (the engine cannot rule it out either).
  const PrunedSpace plan = lang::Optimize(compiled, HostStatus(compiled.hosts(), status));
  EXPECT_FALSE(plan.infeasible);
  ASSERT_EQ(plan.kept.size(), 1u);
  EXPECT_EQ(plan.kept[0], (std::vector<int32_t>{0, 2}));
}

TEST(OptPassTest, DomainPruningDetectsPigeonholeInfeasibility) {
  // Three distinct variables over a two-address pool: no legal binding.
  const Query query = MustParse(
      "A = B = C = (v1 v2)\n"
      "f1 A -> B size 1M\nf2 B -> C size 1M\n");
  const CompiledQuery compiled = MustCompile(query);
  const HostStatus status = SynthesizeStatus(compiled, false);
  const PrunedSpace plan = lang::Optimize(compiled, status);
  EXPECT_TRUE(plan.infeasible);
  EXPECT_FALSE(plan.infeasible_reason.empty());
  EXPECT_EQ(plan.space_after, 0);

  // With `option allow_same` the pigeonhole does not apply.
  const Query same = MustParse(
      "option allow_same\n"
      "A = B = C = (v1 v2)\n"
      "f1 A -> B size 1M\nf2 B -> C size 1M\n");
  const CompiledQuery same_compiled = MustCompile(same);
  EXPECT_FALSE(lang::Optimize(same_compiled, SynthesizeStatus(same_compiled, false)).infeasible);
}

TEST(OptPassTest, MergedSlotsAreOneHost) {
  // With h1 and v1 one host, A and B have one host between them, and C's
  // pool equals D's host by host, though not spelling by spelling.
  const Query query = MustParse(
      "A = B = (h1 v1)\nC = (h1 v2 v3)\nD = (v1 v2 v3)\n"
      "f1 A -> sink size 1M\nf2 B -> sink size 1M\n"
      "f3 src -> C size 1M rate 5M\nf4 src -> D size 1M rate r(f3)\n");
  const CompiledQuery compiled = MustCompile(query);
  const std::vector<int> identity = {0, 0, 2, 3, 4, 5};  // h1, v1, v2, v3, sink, src.
  ASSERT_EQ(compiled.hosts().names.size(), identity.size());
  EXPECT_FALSE(lang::Optimize(compiled, SynthesizeStatus(compiled, false)).infeasible);
  EXPECT_TRUE(lang::Optimize(compiled, SynthesizeStatus(compiled, false, identity)).infeasible);
  EXPECT_TRUE(InterchangeableClasses(compiled).empty());
  EXPECT_EQ(InterchangeableClasses(compiled, identity),
            (std::vector<std::vector<int32_t>>{{2, 3}}));
}

TEST(OptPassTest, InterchangeablePassChainsOrbitsAscending) {
  const Query query = MustParse(
      "A = B = C = (v1 v2 v3 v4)\n"
      "f1 src -> A size 1M rate 5M\n"
      "f2 src -> B size 1M rate r(f1)\n"
      "f3 src -> C size 1M rate r(f1)\n");
  const CompiledQuery compiled = MustCompile(query);
  const HostStatus status = SynthesizeStatus(compiled, false);
  const PrunedSpace plan = lang::Optimize(compiled, status);
  ASSERT_EQ(plan.orbit_prev.size(), 3u);
  EXPECT_EQ(plan.orbit_prev[0], -1);
  EXPECT_EQ(plan.orbit_prev[1], 0);
  EXPECT_EQ(plan.orbit_prev[2], 1);
  // Orbit reductions are dynamic (engine orbit_skips), not part of the
  // static space accounting.
  EXPECT_EQ(plan.space_after, plan.space_before);
}

TEST(OptPassTest, ComponentSplitCountsAndPinsInertVariables) {
  const Query query = MustParse(
      "A = B = (v1 v2 v3)\n"
      "C = (v4 v5)\n"
      "D = (v6 v7)\n"
      "f1 A -> B size 1M\n"
      "f2 C -> sink size 2M\n");
  // D appears in no flow: inert, pinned to its first legal candidate. A/B
  // and C communicate in disjoint components.
  const CompiledQuery compiled = MustCompile(query);
  const HostStatus status = SynthesizeStatus(compiled, false);
  const PrunedSpace plan = lang::Optimize(compiled, status);
  EXPECT_EQ(plan.components, 2);
  ASSERT_EQ(plan.pinned.size(), 4u);
  EXPECT_EQ(plan.pinned[0], -1);
  EXPECT_EQ(plan.pinned[1], -1);
  EXPECT_EQ(plan.pinned[2], -1);
  EXPECT_EQ(plan.pinned[3], 0);  // D pinned.
  EXPECT_EQ(plan.component_of[3], -1);
}

TEST(OptPassTest, DeadFlowFoldingListsDeadAndLiteralOnlyFlows) {
  const Query query = MustParse(
      "A = (v1 v2)\n"
      "shard src -> A size 32M\n"
      "probe src -> A size 0\n"
      "ctrl h1 -> h2 size 1M\n");
  const CompiledQuery compiled = MustCompile(query);
  const HostStatus status = SynthesizeStatus(compiled, false);
  const PrunedSpace plan = lang::Optimize(compiled, status);
  // probe (zero size) and ctrl (binding-independent literal group).
  std::vector<int32_t> dead = plan.dead_flows;
  std::sort(dead.begin(), dead.end());
  EXPECT_EQ(dead, (std::vector<int32_t>{1, 2}));
}

TEST(OptPassTest, PassSelectionBitsDisablePasses) {
  const Query query = MustParse(
      "A = B = (v1 v2 v3)\n"
      "f1 src -> A size 1M rate 5M\n"
      "f2 src -> B size 1M rate r(f1)\n");
  const CompiledQuery compiled = MustCompile(query);
  const HostStatus status = SynthesizeStatus(compiled, false);
  OptimizeParams params;
  params.passes = lang::kOptAllPasses & ~lang::kOptInterchangeable;
  const PrunedSpace plan = lang::Optimize(compiled, status, params);
  for (int32_t prev : plan.orbit_prev) {
    EXPECT_EQ(prev, -1);
  }
}

TEST(OptPassTest, PinnedVariablesNeverCarryOrbitConstraints) {
  // Regression for a fuzzer-found divergence: when every flow is dead, all
  // variables are inert (pinned) *and* trivially interchangeable. Orbit
  // constraints over pinned single-candidate pools would prune the one
  // remaining binding; Optimize must drop them.
  const Query query = MustParse(
      "A = B = (v1 v2 v3 v4)\n"
      "f0 A -> B size 0\n"
      "f1 B -> v4 size 0 start 1\n");
  const CompiledQuery compiled = MustCompile(query);
  const HostStatus status = SynthesizeStatus(compiled, false);
  const PrunedSpace plan = lang::Optimize(compiled, status);
  for (size_t v = 0; v < plan.orbit_prev.size(); ++v) {
    if (plan.pinned[v] >= 0) {
      EXPECT_EQ(plan.orbit_prev[v], -1) << "variable " << v;
    }
  }
  EXPECT_FALSE(plan.infeasible);

  // And the engine must still find the binding with the plan applied.
  FlowLevelEstimator estimator;
  ExhaustiveParams off;
  ExhaustiveParams on;
  on.optimize = true;
  const auto base = EvaluateExhaustive(compiled, status, estimator, off);
  const auto opt = EvaluateExhaustive(compiled, status, estimator, on);
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE(opt.ok()) << opt.error().ToString();
  for (const auto& [var, endpoint] : base.value().binding) {
    EXPECT_EQ(opt.value().binding.at(var).name, endpoint.name) << var;
  }
}

// ---- Engine integration: counters and byte-identity ----

TEST(OptEngineTest, OptimizedSearchPrunesAndAgreesByteIdentically) {
  const Query query = MustParse(
      "option packet\n"
      "W1 = W2 = W3 = (10.0.1.1 10.0.1.2 10.0.1.3 10.0.1.4 10.0.1.5 10.0.1.6)\n"
      "s1 src -> W1 size 64M rate 800M\n"
      "s2 src -> W2 size 64M rate r(s1)\n"
      "s3 src -> W3 size 64M rate r(s1)\n");
  const CompiledQuery compiled = MustCompile(query);
  const HostStatus status = SynthesizeStatus(compiled, /*heterogeneous=*/true);
  FlowLevelEstimator estimator;
  ExhaustiveParams off;
  ExhaustiveParams on;
  on.optimize = true;
  const auto base = EvaluateExhaustive(compiled, status, estimator, off);
  const auto opt = EvaluateExhaustive(compiled, status, estimator, on);
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE(opt.ok());
  // 6*5*4 = 120 ordered triples vs C(6,3) = 20 ascending representatives.
  EXPECT_EQ(base.value().counters.enumerated, 120);
  EXPECT_EQ(opt.value().counters.enumerated, 20);
  EXPECT_GT(opt.value().counters.orbit_skips, 0);
  EXPECT_EQ(opt.value().estimate.makespan, base.value().estimate.makespan);
  EXPECT_EQ(opt.value().estimate.aggregate_throughput,
            base.value().estimate.aggregate_throughput);
  for (const auto& [var, endpoint] : base.value().binding) {
    EXPECT_EQ(opt.value().binding.at(var).name, endpoint.name) << var;
  }
}

TEST(OptEngineTest, InfeasiblePlanReportsSameErrorAsExhaustion) {
  const Query query = MustParse(
      "A = B = C = (v1 v2)\n"
      "f1 A -> B size 1M\nf2 B -> C size 1M\n");
  const CompiledQuery compiled = MustCompile(query);
  const HostStatus status = SynthesizeStatus(compiled, false);
  FlowLevelEstimator estimator;
  ExhaustiveParams off;
  ExhaustiveParams on;
  on.optimize = true;
  const auto base = EvaluateExhaustive(compiled, status, estimator, off);
  const auto opt = EvaluateExhaustive(compiled, status, estimator, on);
  ASSERT_FALSE(base.ok());
  ASSERT_FALSE(opt.ok());
  EXPECT_EQ(opt.error().message, base.error().message);
}

// ---- Differential sweep over the repository fixtures ----

std::vector<std::filesystem::path> FixtureQueries() {
  std::vector<std::filesystem::path> paths;
  for (const char* dir : {"good", "opt"}) {
    const std::filesystem::path root = std::filesystem::path(CLOUDTALK_QUERY_DIR) / dir;
    if (!std::filesystem::exists(root)) {
      continue;
    }
    for (const auto& entry : std::filesystem::directory_iterator(root)) {
      if (entry.path().extension() == ".ct") {
        paths.push_back(entry.path());
      }
    }
  }
  std::sort(paths.begin(), paths.end());
  return paths;
}

TEST(OptDifferentialTest, FixturesAgreeByteIdenticallyAcrossModesAndThreads) {
  const std::vector<std::filesystem::path> fixtures = FixtureQueries();
  ASSERT_FALSE(fixtures.empty()) << "no fixtures under " << CLOUDTALK_QUERY_DIR;
  int swept = 0;
  for (const std::filesystem::path& path : fixtures) {
    std::ifstream in(path);
    std::ostringstream text;
    text << in.rdbuf();
    const Query query = MustParse(text.str());
    const CompiledQuery compiled = MustCompile(query);
    for (const bool heterogeneous : {false, true}) {
      const HostStatus status = SynthesizeStatus(compiled, heterogeneous);
      const lang::BoundInterval query_bounds =
          lang::BoundAnalysis::Build(compiled, status).query_bounds();
      FlowLevelEstimator estimator;
      ExhaustiveParams off;
      const auto base = EvaluateExhaustive(compiled, status, estimator, off);
      for (const int threads : {1, 4}) {
        ExhaustiveParams on = off;
        on.optimize = true;
        on.threads = threads;
        const auto opt = EvaluateExhaustive(compiled, status, estimator, on);
        const std::string label =
            path.filename().string() + (heterogeneous ? " het" : " idle") + " t" +
            std::to_string(threads);
        ASSERT_EQ(base.ok(), opt.ok()) << label;
        if (!base.ok()) {
          EXPECT_EQ(opt.error().message, base.error().message) << label;
          continue;
        }
        // EXPECT_EQ on doubles is exact: bit-identical, not "close".
        EXPECT_EQ(opt.value().estimate.makespan, base.value().estimate.makespan) << label;
        EXPECT_EQ(opt.value().estimate.aggregate_throughput,
                  base.value().estimate.aggregate_throughput)
            << label;
        ASSERT_EQ(opt.value().binding.size(), base.value().binding.size()) << label;
        for (const auto& [var, endpoint] : base.value().binding) {
          EXPECT_EQ(opt.value().binding.at(var).name, endpoint.name) << label << " " << var;
        }
        EXPECT_LE(opt.value().counters.enumerated, base.value().counters.enumerated) << label;
        // The winner lies inside the query's bound interval, which O500
        // prunes against (D502).
        EXPECT_TRUE(query_bounds.Contains(opt.value().estimate.makespan)) << label;
      }
    }
    ++swept;
  }
  EXPECT_GE(swept, 5);  // good/ + opt/ fixtures; update when fixtures move.
}

}  // namespace
}  // namespace cloudtalk
