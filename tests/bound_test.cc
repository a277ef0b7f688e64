// Tests for the sound makespan-bound analysis (src/lang/bound.h).
//
// The randomized section checks the two contracts everything downstream
// leans on: refinement monotonicity (pinning a variable never lowers LB and
// never raises UB — what makes O500 branch-and-bound sound) and estimator
// soundness (every flow-level makespan lands inside the reported interval —
// invariant D502, also fuzzed by ctcheck --diff-bound). The fixed section
// pins down the deadline verdicts ctlint E080/W080 and the server admission
// fast path read off GroupBound.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <random>
#include <string>
#include <vector>

#include "src/core/estimator.h"
#include "src/lang/analysis.h"
#include "src/lang/bound.h"
#include "src/lang/parser.h"

namespace cloudtalk {
namespace {

using lang::BoundAnalysis;
using lang::BoundInterval;
using lang::BoundOptions;
using lang::CompiledQuery;
using lang::GroupBound;
using lang::HostStatus;
using lang::Query;

Query MustParse(const std::string& text) {
  auto query = lang::Parse(text);
  EXPECT_TRUE(query.ok()) << (query.ok() ? text : query.error().ToString());
  return std::move(query).value();
}

// `query` must outlive the result, which keeps pointing into it.
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

// Small random query over a handful of literal 10.9.0.x hosts: 2-3
// variables with overlapping pools, 2-4 flows mixing variable and literal
// endpoints, literal sizes, occasional rate caps and rate chains.
std::string GenerateQuery(std::mt19937_64& rng) {
  const int num_hosts = 4 + static_cast<int>(rng() % 3);
  const int num_vars = 2 + static_cast<int>(rng() % 2);
  std::vector<std::string> hosts;
  for (int h = 0; h < num_hosts; ++h) {
    hosts.push_back("10.9.0." + std::to_string(h + 1));
  }
  std::string text;
  for (int v = 0; v < num_vars; ++v) {
    const int pool = 2 + static_cast<int>(rng() % (num_hosts - 1));
    std::string line(1, static_cast<char>('A' + v));
    line += " = (";
    for (int p = 0; p < pool; ++p) {
      if (p > 0) {
        line.push_back(' ');
      }
      line += hosts[(rng() + static_cast<uint64_t>(p)) % hosts.size()];
    }
    // Duplicate pool entries are legal (W011 is advisory) and only repeat
    // work in the enumeration below.
    text += line + ")\n";
  }
  const int num_flows = 2 + static_cast<int>(rng() % 3);
  for (int f = 0; f < num_flows; ++f) {
    std::string line = "f" + std::to_string(f) + " ";
    const auto endpoint = [&](bool avoid_var) -> std::string {
      if (!avoid_var && rng() % 2 == 0) {
        return std::string(1, static_cast<char>('A' + rng() % num_vars));
      }
      return hosts[rng() % hosts.size()];
    };
    const std::string src = endpoint(false);
    std::string dst = endpoint(false);
    while (dst == src) {
      dst = endpoint(false);
    }
    line += src + " -> " + dst + " size " + std::to_string(1 + rng() % 64) + "M";
    if (f > 0 && rng() % 3 == 0) {
      line += " rate r(f" + std::to_string(rng() % f) + ")";  // Join a chain.
    } else if (rng() % 3 == 0) {
      line += " rate " + std::to_string(1 + rng() % 32) + "M";
    }
    text += line + "\n";
  }
  return text;
}

HostStatus GenerateStatus(const CompiledQuery& query, std::mt19937_64& rng) {
  StatusByAddress status;
  const auto touch = [&](const lang::Endpoint& e) {
    if (e.kind != lang::Endpoint::Kind::kAddress || e.name.empty()) {
      return;
    }
    const Bps cap = rng() % 2 == 0 ? 1e9 : 10e9;
    status[e.name] = MakeReport(cap, cap * (rng() % 100) / 100.0,
                                cap * (rng() % 100) / 100.0);
  };
  for (const auto& v : query.variables()) {
    for (const lang::Endpoint& e : v.pool) {
      touch(e);
    }
  }
  for (const auto& f : query.flows()) {
    touch(f.src);
    touch(f.dst);
  }
  return HostStatus(query.hosts(), status);
}

// Candidate host ids per variable: their slots, each slot its own host
// (every pool entry is a literal).
std::vector<std::vector<int32_t>> CandidateIds(const CompiledQuery& query) {
  std::vector<std::vector<int32_t>> ids(query.variables().size());
  for (size_t v = 0; v < query.variables().size(); ++v) {
    const std::vector<int> slots = query.hosts().CandidateSlots(static_cast<int>(v));
    EXPECT_EQ(slots.size(), query.variables()[v].pool.size());
    ids[v].assign(slots.begin(), slots.end());
  }
  return ids;
}

TEST(BoundAnalysisTest, RandomizedRefinementMonotonicity) {
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::mt19937_64 rng(seed);
    const std::string text = GenerateQuery(rng);
    SCOPED_TRACE(text);
    const Query parsed = MustParse(text);
    const CompiledQuery query = MustCompile(parsed);
    const HostStatus status = GenerateStatus(query, rng);
    const BoundAnalysis bounds = BoundAnalysis::Build(query, status);
    std::vector<std::vector<int32_t>> ids;
    CandidateIds(query).swap(ids);

    const size_t n = query.variables().size();
    std::vector<int32_t> var_host(n, -1);
    BoundInterval prev = bounds.BindingBounds(var_host);
    EXPECT_LE(bounds.query_bounds().lb, prev.lb);
    EXPECT_GE(bounds.query_bounds().ub, prev.ub);

    BoundAnalysis::Cursor cursor = bounds.MakeCursor();
    Seconds prev_cursor_lb = cursor.LowerBound();

    // Pin the variables one at a time, in a random order, each to a random
    // pool candidate not already taken (distinct semantics, the default).
    std::vector<size_t> order(n);
    for (size_t i = 0; i < n; ++i) {
      order[i] = i;
    }
    std::shuffle(order.begin(), order.end(), rng);
    for (const size_t v : order) {
      int32_t pick = -1;
      for (size_t attempt = 0; attempt < 32 && pick < 0; ++attempt) {
        const int32_t candidate = ids[v][rng() % ids[v].size()];
        if (std::find(var_host.begin(), var_host.end(), candidate) == var_host.end()) {
          pick = candidate;
        }
      }
      if (pick < 0) {
        break;  // Tiny overlapping pools can run out of distinct hosts.
      }
      var_host[v] = pick;
      const BoundInterval refined = bounds.BindingBounds(var_host);
      EXPECT_LE(refined.lb, refined.ub);
      EXPECT_GE(refined.lb, prev.lb) << "LB dropped when pinning var " << v;
      EXPECT_LE(refined.ub, prev.ub) << "UB rose when pinning var " << v;
      prev = refined;

      cursor.Assign(static_cast<int>(v), pick);
      const Seconds cursor_lb = cursor.LowerBound();
      EXPECT_GE(cursor_lb, prev_cursor_lb) << "cursor LB dropped at var " << v;
      EXPECT_LE(cursor_lb, refined.lb)
          << "cursor LB must stay a conservative subset of BindingBounds";
      prev_cursor_lb = cursor_lb;
    }

    // Unassigning everything returns the cursor to the unpinned bound.
    for (const size_t v : order) {
      if (var_host[v] >= 0) {
        cursor.Unassign(static_cast<int>(v));
      }
    }
    EXPECT_DOUBLE_EQ(cursor.LowerBound(), bounds.MakeCursor().LowerBound());
  }
}

TEST(BoundAnalysisTest, RandomizedEstimatorSoundness) {
  int checked_bindings = 0;
  for (uint64_t seed = 1; seed <= 25; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::mt19937_64 rng(seed ^ 0x9e3779b97f4a7c15ULL);
    const std::string text = GenerateQuery(rng);
    SCOPED_TRACE(text);
    const Query parsed = MustParse(text);
    const CompiledQuery query = MustCompile(parsed);
    const HostStatus status = GenerateStatus(query, rng);
    const BoundAnalysis bounds = BoundAnalysis::Build(query, status);
    std::vector<std::vector<int32_t>> ids;
    CandidateIds(query).swap(ids);

    const size_t n = query.variables().size();
    FlowLevelEstimator estimator;  // Fraction 0.1 = BoundOptions default.
    estimator.BeginQuery(query, status);
    // Each slot is its own host here, so the pinned hosts are the binding
    // the estimator reads.
    std::vector<int32_t> var_host(n, -1);

    const std::function<void(size_t)> walk = [&](size_t d) {
      if (d == n) {
        const Result<Estimate> est = estimator.EstimateQuery(query, var_host, status);
        if (!est.ok()) {
          return;  // E.g. no-route bindings; bounds only cover successes.
        }
        const Seconds makespan = est.value().makespan;
        EXPECT_TRUE(bounds.BindingBounds(var_host).Contains(makespan))
            << "makespan " << makespan << " outside pinned interval";
        EXPECT_TRUE(bounds.query_bounds().Contains(makespan))
            << "makespan " << makespan << " outside query interval";
        ++checked_bindings;
        return;
      }
      for (size_t c = 0; c < ids[d].size(); ++c) {
        bool clash = false;
        for (size_t p = 0; p < d; ++p) {
          clash = clash || var_host[p] == ids[d][c];
        }
        if (clash) {
          continue;  // Distinct bindings, the default semantics.
        }
        var_host[d] = ids[d][c];
        walk(d + 1);
        var_host[d] = -1;
      }
    };
    walk(0);
    estimator.EndQuery();
  }
  EXPECT_GT(checked_bindings, 100);  // The sweep must actually exercise bindings.
}

TEST(BoundAnalysisTest, DeadlineVerdictsMatchTheInterval) {
  // size/rate = 10G * 8 / 8M bits/s far exceeds 1s: provably infeasible.
  const Query infeasible_query = MustParse("f1 10.9.0.1 -> 10.9.0.2 size 10G rate 8M end 1\n");
  const CompiledQuery infeasible = MustCompile(infeasible_query);
  const BoundAnalysis a = BoundAnalysis::Build(infeasible, HostStatus{});
  ASSERT_EQ(a.group_bounds().size(), 1u);
  EXPECT_TRUE(a.group_bounds()[0].provably_infeasible);
  EXPECT_FALSE(a.group_bounds()[0].trivially_satisfied);
  EXPECT_GT(a.group_bounds()[0].interval.lb, a.group_bounds()[0].deadline);

  // The same transfer against a generous deadline is trivially satisfied.
  const Query trivial_query = MustParse("f1 10.9.0.1 -> 10.9.0.2 size 1M end 3600\n");
  const CompiledQuery trivial = MustCompile(trivial_query);
  const BoundAnalysis b = BoundAnalysis::Build(trivial, HostStatus{});
  ASSERT_EQ(b.group_bounds().size(), 1u);
  EXPECT_FALSE(b.group_bounds()[0].provably_infeasible);
  EXPECT_TRUE(b.group_bounds()[0].trivially_satisfied);
  EXPECT_LE(b.group_bounds()[0].interval.ub, b.group_bounds()[0].deadline);

  // No deadline: both verdicts stay off and the deadline reads +inf.
  const Query open_query = MustParse("f1 10.9.0.1 -> 10.9.0.2 size 1M\n");
  const CompiledQuery open = MustCompile(open_query);
  const BoundAnalysis c = BoundAnalysis::Build(open, HostStatus{});
  ASSERT_EQ(c.group_bounds().size(), 1u);
  EXPECT_FALSE(c.group_bounds()[0].provably_infeasible);
  EXPECT_FALSE(c.group_bounds()[0].trivially_satisfied);
}

TEST(BoundAnalysisTest, MergedSlotsShareOneHostsResources) {
  // f1 and f2 share one chain rate. Declaring h6 one host with 10.0.9.6
  // puts both members' 1 GiB through one 1 Gbps NIC, as the twin that
  // spells the source by address twice does.
  const std::string chain = " -> 10.0.9.9 size 1G rate r(f2)\nf2 ";
  const Query aliased = MustParse("f1 10.0.9.6" + chain + "h6 -> 10.0.9.10 size 1G rate r(f1)\n");
  const Query twin = MustParse("f1 10.0.9.6" + chain + "10.0.9.6 -> 10.0.9.10 size 1G rate r(f1)\n");
  const CompiledQuery compiled = MustCompile(aliased);
  StatusByAddress status;
  for (const std::string* name : compiled.hosts().names) {
    status[*name] = MakeReport(1e9, 0, 0);
  }
  const std::vector<int> identity = {0, 1, 0, 3};  // 10.0.9.6, 10.0.9.9, h6, 10.0.9.10.
  ASSERT_EQ(compiled.hosts().names.size(), identity.size());
  ASSERT_EQ(*compiled.hosts().names[2], "h6");
  const CompiledQuery twin_compiled = MustCompile(twin);
  const BoundAnalysis apart = BoundAnalysis::Build(compiled, HostStatus(compiled.hosts(), status));
  const BoundAnalysis merged =
      BoundAnalysis::Build(compiled, HostStatus(compiled.hosts(), status, identity));
  const BoundAnalysis spelled =
      BoundAnalysis::Build(twin_compiled, HostStatus(twin_compiled.hosts(), status));
  EXPECT_EQ(merged.query_bounds().lb, spelled.query_bounds().lb);
  EXPECT_EQ(merged.query_bounds().ub, spelled.query_bounds().ub);
  EXPECT_GT(merged.query_bounds().lb, 1.9 * apart.query_bounds().lb);
}

TEST(BoundAnalysisTest, GuardBandBracketsTheRawValue) {
  for (const Seconds raw : {0.0, 1e-9, 0.25, 1.0, 3600.0, 1e12}) {
    EXPECT_LE(lang::GuardLowerBound(raw), raw);
    EXPECT_GE(lang::GuardUpperBound(raw), raw);
    EXPECT_GE(lang::GuardLowerBound(raw), 0.0);
  }
}

}  // namespace
}  // namespace cloudtalk
