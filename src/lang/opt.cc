#include "src/lang/opt.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <unordered_map>
#include <unordered_set>

#include "src/lang/bound.h"

namespace cloudtalk {
namespace lang {

namespace {

// Where the variable's name is first declared.
Span VarSpan(const CompiledQuery& query, const VarComm& var) {
  const int first = query.graph().variable(var.id);
  const VarDecl& decl = query.query().variables[query.variables()[first].decl];
  for (size_t i = 0; i < decl.names.size(); ++i) {
    if (decl.names[i] == var.name && i < decl.name_spans.size()) {
      return decl.name_spans[i];
    }
  }
  return decl.span;
}

Span FlowSpan(const CompiledQuery& query, const CompiledFlow& flow) {
  return query.query().flows[flow.index].span;
}

std::string FormatCount(double count) {
  char buf[32];
  if (count < 1e6) {
    std::snprintf(buf, sizeof(buf), "%.0f", count);
  } else {
    std::snprintf(buf, sizeof(buf), "%.3g", count);
  }
  return buf;
}

// Kuhn's augmenting-path maximum bipartite matching: variables on the left,
// candidate hosts on the right. Pools are tiny (tens), so the O(V * E)
// bound is irrelevant.
struct Matching {
  const std::vector<std::vector<int32_t>>* adj = nullptr;  // var -> hosts.
  std::vector<int32_t> match_of_addr;                      // host -> var or -1.
  std::vector<char> visited;

  bool TryAugment(int32_t v) {
    for (const int32_t a : (*adj)[v]) {
      if (visited[a] != 0) {
        continue;
      }
      visited[a] = 1;
      if (match_of_addr[a] < 0 || TryAugment(match_of_addr[a])) {
        match_of_addr[a] = v;
        return true;
      }
    }
    return false;
  }

  // True when every variable in `vars` can be matched to a distinct host.
  bool Perfect(const std::vector<int32_t>& vars, size_t num_hosts) {
    match_of_addr.assign(num_hosts, -1);
    for (const int32_t v : vars) {
      visited.assign(num_hosts, 0);
      if (!TryAugment(v)) {
        return false;
      }
    }
    return true;
  }
};

// Everything the passes share.
struct PassContext {
  const CompiledQuery* query = nullptr;
  const HostStatus* status = nullptr;
  OptimizeParams params;
  bool distinct = true;
  std::vector<std::vector<int>> candidates;  // Per variable: its candidate slots.

  const std::string& Name(int v, int32_t c) const {
    return *query->hosts().names[candidates[v][c]];
  }
  int32_t Host(int v, int32_t c) const { return HostOf(status->identity(), candidates[v][c]); }
  size_t num_hosts() const { return query->hosts().names.size(); }
};

void Note(DiagnosticSink* sink, const char* code, Span span, std::string message,
          std::string hint = "") {
  if (sink != nullptr) {
    sink->Add({Severity::kNote, code, span, std::move(message), std::move(hint)});
  }
}

// Hosts a variable may legally bind to (post requirement pruning).
std::vector<std::vector<int32_t>> KeptHosts(const PassContext& ctx, const PrunedSpace& plan) {
  std::vector<std::vector<int32_t>> adj(plan.kept.size());
  for (size_t v = 0; v < plan.kept.size(); ++v) {
    for (const int32_t c : plan.kept[v]) {
      adj[v].push_back(ctx.Host(static_cast<int>(v), c));
    }
  }
  return adj;
}

// ---- O100: domain pruning ----
void RunDomainPruning(PassContext* ctx, PrunedSpace* plan, DiagnosticSink* sink) {
  const auto& variables = ctx->query->variables();
  for (size_t v = 0; v < variables.size(); ++v) {
    const VarComm& var = variables[v];
    if (var.cpu_required <= 0 && var.mem_required <= 0) {
      continue;
    }
    std::vector<int32_t> kept;
    std::vector<std::string> dropped;
    for (size_t c = 0; c < ctx->candidates[v].size(); ++c) {
      const StatusReport* report = ctx->status->Find(ctx->candidates[v][c]);
      if (report == nullptr || SatisfiesRequirements(var, *report)) {
        kept.push_back(static_cast<int32_t>(c));
      } else {
        dropped.push_back(ctx->Name(static_cast<int>(v), static_cast<int32_t>(c)));
      }
    }
    if (dropped.empty()) {
      continue;
    }
    plan->kept[v] = std::move(kept);
    std::string list;
    for (const std::string& name : dropped) {
      list += (list.empty() ? "" : ", ") + name;
    }
    Note(sink, "O100", VarSpan(*ctx->query, var),
         "pruned " + std::to_string(dropped.size()) + " of " +
             std::to_string(ctx->candidates[v].size()) + " candidates of '" + var.name +
             "' that cannot satisfy its cpu/mem requirements (" + list + ")");
    if (plan->kept[v].empty()) {
      plan->infeasible = true;
      plan->infeasible_reason = "every candidate of '" + var.name +
                                "' fails its cpu/mem requirements";
      Note(sink, "O100", VarSpan(*ctx->query, var),
           "no candidate of '" + var.name + "' satisfies its requirements; the query has "
           "no legal binding");
    }
  }
  if (plan->infeasible || !ctx->distinct) {
    return;
  }
  // Pigeonhole: under distinctness every variable needs its own host.
  std::vector<std::vector<int32_t>> adj = KeptHosts(*ctx, *plan);
  std::vector<int32_t> vars(variables.size());
  std::iota(vars.begin(), vars.end(), 0);
  Matching matching;
  matching.adj = &adj;
  if (!matching.Perfect(vars, ctx->num_hosts())) {
    plan->infeasible = true;
    plan->infeasible_reason =
        "distinctness pigeonhole: no assignment of distinct feasible candidates exists";
    Note(sink, "O100", Span{},
         std::to_string(variables.size()) +
             " variables cannot be bound to distinct feasible candidates (pigeonhole); "
             "the query has no legal binding",
         "grow a pool, relax a requirement, or use 'option allow_same'");
  }
}

// ---- O200: interchangeable variables ----
void RunInterchangeable(PassContext* ctx, PrunedSpace* plan, DiagnosticSink* sink) {
  const std::vector<std::vector<int32_t>> classes =
      InterchangeableClasses(*ctx->query, ctx->status->identity());
  for (const std::vector<int32_t>& cls : classes) {
    for (size_t i = 1; i < cls.size(); ++i) {
      plan->orbit_prev[cls[i]] = cls[i - 1];
    }
    std::string names;
    for (const int32_t v : cls) {
      names += (names.empty() ? "" : ", ") + ctx->query->variables()[v].name;
    }
    double factorial = 1;
    for (size_t i = 2; i <= cls.size(); ++i) {
      factorial *= static_cast<double>(i);
    }
    Note(sink, "O200", VarSpan(*ctx->query, ctx->query->variables()[cls.front()]),
         "variables " + names + " are interchangeable: any binding permuting them has an "
         "identical traffic pattern; enumerating ascending assignments only (~" +
             FormatCount(factorial) + "x fewer bindings)");
  }
}

// ---- O300: independent components / inert-variable pinning ----
void RunComponentSplit(PassContext* ctx, PrunedSpace* plan, DiagnosticSink* sink) {
  const auto& variables = ctx->query->variables();
  const auto& flows = ctx->query->flows();
  const size_t n = variables.size();
  if (n == 0) {
    return;
  }
  std::unordered_set<int32_t> dead(plan->dead_flows.begin(), plan->dead_flows.end());

  // Variables touching at least one live flow, connected when they share a
  // flow or a chain group.
  std::vector<char> live(n, 0);
  UnionFind comm(n);
  std::vector<int32_t> group_rep(ctx->query->groups().size(), -1);
  for (size_t f = 0; f < flows.size(); ++f) {
    if (dead.count(static_cast<int32_t>(f)) > 0) {
      continue;
    }
    std::vector<int32_t> touched;
    for (const Endpoint* e : {&flows[f].src, &flows[f].dst}) {
      if (e->kind != Endpoint::Kind::kVariable) {
        continue;
      }
      const int v = ctx->query->VariableIndex(e->name);
      if (v >= 0) {
        touched.push_back(v);
        live[v] = 1;
      }
    }
    for (size_t i = 1; i < touched.size(); ++i) {
      comm.Union(touched[0], touched[i]);
    }
    if (!touched.empty()) {
      int32_t& rep = group_rep[flows[f].group];
      if (rep < 0) {
        rep = touched[0];
      } else {
        comm.Union(rep, touched[0]);
      }
    }
  }
  std::unordered_map<int32_t, int32_t> component_ids;
  for (size_t v = 0; v < n; ++v) {
    if (live[v] == 0) {
      continue;
    }
    const int32_t root = comm.Find(static_cast<int32_t>(v));
    const int32_t id = component_ids.emplace(root, static_cast<int32_t>(component_ids.size()))
                           .first->second;
    plan->component_of[v] = id;
  }
  plan->components = static_cast<int>(component_ids.size());
  if (plan->components > 1) {
    Note(sink, "O300", Span{},
         "the communication graph splits into " + std::to_string(plan->components) +
             " independent components; their optima compose, but shared access links "
             "couple their completion times, so they are evaluated jointly (see "
             "DESIGN.md on floating-point separability)");
  }

  // Inert variables (no live flows) never affect the estimate; pin each to
  // its lexicographically-first legal candidate. Under distinctness this is
  // only byte-identical when the variable's choices cannot collide with an
  // enumerated variable's, so pin exactly the pool-sharing components made
  // entirely of inert variables.
  std::vector<std::vector<int32_t>> adj = KeptHosts(*ctx, *plan);
  std::vector<int32_t> pin_set;
  if (!ctx->distinct) {
    for (size_t v = 0; v < n; ++v) {
      if (live[v] == 0 && !plan->kept[v].empty()) {
        pin_set.push_back(static_cast<int32_t>(v));
      }
    }
  } else {
    UnionFind pools(n);
    std::vector<int32_t> owner(ctx->num_hosts(), -1);  // Host -> first var seen.
    for (size_t v = 0; v < n; ++v) {
      for (const int32_t a : adj[v]) {
        if (owner[a] < 0) {
          owner[a] = static_cast<int32_t>(v);
        } else {
          pools.Union(owner[a], static_cast<int32_t>(v));
        }
      }
    }
    std::vector<char> all_inert(n, 1);  // By pool-component root.
    for (size_t v = 0; v < n; ++v) {
      all_inert[pools.Find(static_cast<int32_t>(v))] &= live[v] == 0 ? 1 : 0;
    }
    for (size_t v = 0; v < n; ++v) {
      if (all_inert[pools.Find(static_cast<int32_t>(v))] && !plan->kept[v].empty()) {
        pin_set.push_back(static_cast<int32_t>(v));
      }
    }
  }
  if (pin_set.empty()) {
    return;
  }
  // Greedy lexicographic assignment, keeping the rest of the pin set
  // completable (matching check) — exactly the choice the full walk's
  // first minimal-makespan binding makes for estimate-indifferent
  // variables.
  std::vector<char> taken(ctx->num_hosts(), 0);  // By host.
  Matching matching;
  for (size_t i = 0; i < pin_set.size(); ++i) {
    const int32_t v = pin_set[i];
    const std::vector<int32_t> rest(pin_set.begin() + i + 1, pin_set.end());
    for (const int32_t c : plan->kept[v]) {
      const int32_t host = ctx->Host(v, c);
      if (ctx->distinct && taken[host] != 0) {
        continue;
      }
      // Tentatively take it and check the remaining pins still complete.
      bool feasible = true;
      if (ctx->distinct && !rest.empty()) {
        std::vector<std::vector<int32_t>> rest_adj(adj.size());
        for (const int32_t r : rest) {
          for (const int32_t a : adj[r]) {
            if (a != host && taken[a] == 0) {
              rest_adj[r].push_back(a);
            }
          }
        }
        matching.adj = &rest_adj;
        feasible = matching.Perfect(rest, ctx->num_hosts());
      }
      if (!feasible) {
        continue;
      }
      plan->pinned[v] = c;
      if (ctx->distinct) {
        taken[host] = 1;
      }
      break;
    }
    if (plan->pinned[v] >= 0) {
      Note(sink, "O300", VarSpan(*ctx->query, variables[v]),
           "variable '" + variables[v].name +
               "' has no live flows; pinned to its first legal candidate '" +
               ctx->Name(v, plan->pinned[v]) + "' instead of enumerating " +
               std::to_string(plan->kept[v].size()) + " candidates");
    }
  }
}

// ---- O400: dead flows and binding-independent groups ----
void RunDeadFlowFolding(PassContext* ctx, PrunedSpace* plan, DiagnosticSink* sink) {
  const auto& flows = ctx->query->flows();
  std::unordered_set<int32_t> dead;
  for (const int32_t f : DeadFlowIndices(*ctx->query)) {
    dead.insert(f);
    Note(sink, "O400", FlowSpan(*ctx->query, flows[f]),
         "flow '" + flows[f].name + "' has zero size: it transfers nothing and cannot "
         "affect any completion time; dropped from the binding signature");
  }
  // Binding-independent chain groups: no variable endpoint anywhere.
  std::vector<char> group_has_var(ctx->query->groups().size(), 0);
  for (const CompiledFlow& flow : flows) {
    if (flow.src.kind == Endpoint::Kind::kVariable ||
        flow.dst.kind == Endpoint::Kind::kVariable) {
      group_has_var[flow.group] = 1;
    }
  }
  for (size_t g = 0; g < group_has_var.size(); ++g) {
    if (group_has_var[g] != 0) {
      continue;
    }
    bool any = false;
    for (size_t f = 0; f < flows.size(); ++f) {
      if (flows[f].group == static_cast<int>(g) && dead.count(static_cast<int32_t>(f)) == 0) {
        dead.insert(static_cast<int32_t>(f));
        any = true;
      }
    }
    if (any) {
      Note(sink, "O400", Span{},
           "chain group " + std::to_string(g) + " references no variables: its traffic "
           "is identical under every binding; folded out of the binding signature "
           "(it still contributes its fixed makespan floor at evaluation time)");
    }
  }
  plan->dead_flows.assign(dead.begin(), dead.end());
  std::sort(plan->dead_flows.begin(), plan->dead_flows.end());
}

// ---- O500: branch-and-bound arming ----
void RunBoundPruning(PassContext* ctx, PrunedSpace* plan, DiagnosticSink* sink) {
  BoundOptions options;
  options.min_available_fraction = ctx->params.bound_fraction;
  const BoundAnalysis analysis =
      BoundAnalysis::Build(*ctx->query, *ctx->status, options);
  plan->bound_pruning = true;
  plan->bound_lb = analysis.query_bounds().lb;
  plan->bound_ub = analysis.query_bounds().ub;
  char lb[32], ub[32];
  std::snprintf(lb, sizeof(lb), "%.6g", plan->bound_lb);
  if (std::isfinite(plan->bound_ub)) {
    std::snprintf(ub, sizeof(ub), "%.6g", plan->bound_ub);
  } else {
    std::snprintf(ub, sizeof(ub), "inf");
  }
  Note(sink, "O500", Span{},
       std::string("sound makespan bounds: every binding completes within [") + lb + "s, " +
           ub + "s]; branch-and-bound pruning armed for the exhaustive walk (prefixes "
           "whose lower bound exceeds the incumbent best makespan are skipped)");
}

}  // namespace

bool SatisfiesRequirements(const VarComm& var, const StatusReport& report) {
  const bool cpu_short = report.cpu_cores_total > 0 && var.cpu_required > 0 &&
                         report.CpuFree() < var.cpu_required;
  const bool mem_short =
      report.mem_total > 0 && var.mem_required > 0 && report.MemFree() < var.mem_required;
  return !cpu_short && !mem_short;
}

std::vector<int32_t> DeadFlowIndices(const CompiledQuery& query) {
  std::vector<int32_t> dead;
  const auto& flows = query.flows();
  for (size_t f = 0; f < flows.size(); ++f) {
    if (flows[f].size <= 0) {
      dead.push_back(static_cast<int32_t>(f));
    }
  }
  return dead;
}

std::vector<std::vector<int32_t>> InterchangeableClasses(const CompiledQuery& query,
                                                         std::span<const int> identity) {
  const QueryHosts& hosts = query.hosts();
  const auto& variables = query.variables();
  const size_t n = variables.size();
  std::vector<std::vector<int32_t>> out;
  if (n < 2) {
    return out;
  }
  std::unordered_set<int32_t> dead;
  for (const int32_t f : DeadFlowIndices(query)) {
    dead.insert(f);
  }
  std::vector<std::vector<int>> pools(n);  // Per variable: its candidates' hosts.
  for (size_t v = 0; v < n; ++v) {
    pools[v] = hosts.CandidateSlots(static_cast<int>(v));
    for (int& slot : pools[v]) {
      slot = HostOf(identity, slot);
    }
  }

  // Symbolic flow tuples under a permutation of variable indices: variables
  // map to a high id range, fixed endpoints to their hosts, and each
  // unknown occurrence keeps its own id (mirroring the engine's memo).
  const FlowGraph& graph = query.graph();
  struct SymTuple {
    int32_t group, src, dst;
    double size, start;
    bool operator<(const SymTuple& o) const {
      if (group != o.group) return group < o.group;
      if (src != o.src) return src < o.src;
      if (dst != o.dst) return dst < o.dst;
      if (size != o.size) return size < o.size;
      return start < o.start;
    }
    bool operator==(const SymTuple& o) const {
      return group == o.group && src == o.src && dst == o.dst && size == o.size &&
             start == o.start;
    }
  };
  constexpr int32_t kVarBase = 1 << 28;
  constexpr int32_t kDisk = -2;
  const auto tuples_under = [&](int32_t u, int32_t v) {
    // Swap u and v; u == v means the identity.
    std::vector<SymTuple> tuples;
    int32_t next_unknown = -10;
    const auto& flows = query.flows();
    for (size_t f = 0; f < flows.size(); ++f) {
      if (dead.count(static_cast<int32_t>(f)) > 0) {
        continue;
      }
      const auto key = [&](const Endpoint& e, int id) -> int32_t {
        switch (e.kind) {
          case Endpoint::Kind::kAddress:
            return HostOf(identity, hosts.slot_of[id]);
          case Endpoint::Kind::kVariable: {
            int32_t idx = graph.variable(id);
            if (idx == u) {
              idx = v;
            } else if (idx == v) {
              idx = u;
            }
            return kVarBase + idx;  // idx may be -1 (unbindable): still stable.
          }
          case Endpoint::Kind::kDisk:
            return kDisk;
          case Endpoint::Kind::kUnknown:
          default:
            return next_unknown--;
        }
      };
      const int i = static_cast<int>(f);
      tuples.push_back({flows[f].group, key(flows[f].src, graph.src_id(i)),
                        key(flows[f].dst, graph.dst_id(i)), flows[f].size, flows[f].start});
    }
    std::sort(tuples.begin(), tuples.end());
    return tuples;
  };

  const std::vector<SymTuple> unswapped = tuples_under(0, 0);
  UnionFind classes(n);
  for (size_t u = 0; u < n; ++u) {
    for (size_t v = u + 1; v < n; ++v) {
      if (pools[u] != pools[v]) {
        continue;
      }
      if (variables[u].cpu_required != variables[v].cpu_required ||
          variables[u].mem_required != variables[v].mem_required) {
        continue;
      }
      if (tuples_under(static_cast<int32_t>(u), static_cast<int32_t>(v)) == unswapped) {
        classes.Union(static_cast<int32_t>(u), static_cast<int32_t>(v));
      }
    }
  }
  std::unordered_map<int32_t, std::vector<int32_t>> by_root;
  for (size_t v = 0; v < n; ++v) {
    by_root[classes.Find(static_cast<int32_t>(v))].push_back(static_cast<int32_t>(v));
  }
  for (size_t v = 0; v < n; ++v) {
    auto it = by_root.find(classes.Find(static_cast<int32_t>(v)));
    if (it != by_root.end() && it->second.size() >= 2 && it->second.front() == static_cast<int32_t>(v)) {
      out.push_back(it->second);  // Already ascending: filled in index order.
    }
  }
  return out;
}

const std::vector<OptPass>& OptPasses() {
  static const std::vector<OptPass> kPasses = {
      {"O100", "domain-pruning",
       "drop pool endpoints that cannot satisfy cpu/mem requirements; detect "
       "distinctness pigeonhole infeasibility",
       kOptDomainPruning},
      {"O200", "interchangeable-variables",
       "enumerate only the canonical representative of each symmetric binding class",
       kOptInterchangeable},
      {"O300", "component-split",
       "count independent communication components and pin variables with no live flows",
       kOptComponentSplit},
      {"O400", "dead-flow-folding",
       "drop zero-size flows and binding-independent chain groups from the memo signature",
       kOptDeadFlowFolding},
      {"O500", "bound-pruning",
       "arm branch-and-bound pruning: skip odometer prefixes whose sound makespan lower "
       "bound exceeds the incumbent",
       kOptBoundPruning},
  };
  return kPasses;
}

PrunedSpace Optimize(const CompiledQuery& query, const HostStatus& status,
                     const OptimizeParams& params, DiagnosticSink* sink) {
  PassContext ctx;
  ctx.query = &query;
  ctx.status = &status;
  ctx.params = params;
  ctx.distinct = !query.query().options.allow_same_binding;
  const size_t n = query.variables().size();
  ctx.candidates.resize(n);
  for (size_t v = 0; v < n; ++v) {
    ctx.candidates[v] = query.hosts().CandidateSlots(static_cast<int>(v));
  }

  PrunedSpace plan;
  plan.kept.resize(n);
  for (size_t v = 0; v < n; ++v) {
    plan.kept[v].resize(ctx.candidates[v].size());
    std::iota(plan.kept[v].begin(), plan.kept[v].end(), 0);
  }
  plan.pinned.assign(n, -1);
  plan.orbit_prev.assign(n, -1);
  plan.component_of.assign(n, -1);

  constexpr double kCap = 1e18;
  // Capped kept/pinned product: the static binding space the current plan
  // leaves (0 once proven infeasible).
  const auto static_space = [&]() -> double {
    if (plan.infeasible) {
      return 0;
    }
    double space = n == 0 ? 0 : 1;
    for (size_t v = 0; v < n; ++v) {
      const double after = plan.pinned[v] >= 0 ? 1 : std::max<double>(1, plan.kept[v].size());
      space = std::min(kCap, space * after);
    }
    return space;
  };
  const auto run_timed = [&](const char* code, auto&& fn) {
    const double before = static_space();
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    PassStat stat;
    stat.code = code;
    stat.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
    const double pruned = before - static_space();
    stat.pruned_bindings = pruned > 0 ? static_cast<int64_t>(std::min(pruned, 9e18)) : 0;
    plan.pass_stats.push_back(stat);
  };

  // O400 runs before O300 so component analysis sees the dead-flow set.
  if ((params.passes & kOptDeadFlowFolding) != 0) {
    run_timed("O400", [&] { RunDeadFlowFolding(&ctx, &plan, sink); });
  }
  if ((params.passes & kOptDomainPruning) != 0) {
    run_timed("O100", [&] { RunDomainPruning(&ctx, &plan, sink); });
  }
  if (!plan.infeasible && (params.passes & kOptInterchangeable) != 0) {
    run_timed("O200", [&] { RunInterchangeable(&ctx, &plan, sink); });
  }
  if (!plan.infeasible && (params.passes & kOptComponentSplit) != 0) {
    run_timed("O300", [&] { RunComponentSplit(&ctx, &plan, sink); });
  }
  if (!plan.infeasible && (params.passes & kOptBoundPruning) != 0) {
    run_timed("O500", [&] { RunBoundPruning(&ctx, &plan, sink); });
  }

  // A pinned variable's pool collapses to one candidate, so orbit
  // constraints over its (now meaningless) candidate indices would prune
  // the single remaining binding. Interchangeable variables share a pool,
  // hence a pool component, hence are pinned together — dropping their
  // whole chain is safe and loses nothing.
  for (size_t v = 0; v < n; ++v) {
    if (plan.pinned[v] >= 0 ||
        (plan.orbit_prev[v] >= 0 && plan.pinned[plan.orbit_prev[v]] >= 0)) {
      plan.orbit_prev[v] = -1;
    }
  }

  plan.space_before = n == 0 ? 0 : 1;
  for (size_t v = 0; v < n; ++v) {
    plan.space_before = std::min(
        kCap, plan.space_before * std::max<double>(1, ctx.candidates[v].size()));
  }
  plan.space_after = static_space();
  const double pruned = plan.space_before - plan.space_after;
  plan.bindings_pruned = pruned > 0 ? static_cast<int64_t>(std::min(pruned, 9e18)) : 0;
  return plan;
}

}  // namespace lang
}  // namespace cloudtalk
