#include "src/lang/lint.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <span>
#include <string>
#include <tuple>
#include <unordered_map>
#include <utility>

#include "src/lang/canon.h"
#include "src/lang/opt.h"

namespace cloudtalk {
namespace lang {

namespace {

std::string FormatCount(double count) {
  char buf[32];
  if (count < 1e6) {
    std::snprintf(buf, sizeof(buf), "%.0f", count);
  } else {
    std::snprintf(buf, sizeof(buf), "%.2g", count);
  }
  return buf;
}

// Rates render with the language's own K/M/G suffixes so the message echoes
// what the query said (`rate 10M` comes back as "10M", not "1.04858e+07").
std::string FormatRate(double bytes_per_sec) {
  static constexpr struct {
    double scale;
    char suffix;
  } kUnits[] = {{1024.0 * 1024.0 * 1024.0, 'G'}, {1024.0 * 1024.0, 'M'}, {1024.0, 'K'}};
  char buf[32];
  for (const auto& unit : kUnits) {
    if (bytes_per_sec >= unit.scale) {
      std::snprintf(buf, sizeof(buf), "%.4g%c", bytes_per_sec / unit.scale, unit.suffix);
      return buf;
    }
  }
  std::snprintf(buf, sizeof(buf), "%.4g", bytes_per_sec);
  return buf;
}

// ---- W001: unused variable ----
void CheckUnusedVariable(const QueryFacts& facts, DiagnosticSink* sink) {
  const Query& query = facts.query();
  const FlowGraph& graph = facts.flow_graph();
  std::vector<char> used(graph.names().size(), 0);  // By name id.
  for (int f = 0; f < static_cast<int>(query.flows.size()); ++f) {
    used[graph.src_id(f)] |= query.flows[f].src.kind == Endpoint::Kind::kVariable;
    used[graph.dst_id(f)] |= query.flows[f].dst.kind == Endpoint::Kind::kVariable;
  }
  for (size_t d = 0; d < query.variables.size(); ++d) {
    const VarDecl& decl = query.variables[d];
    const std::span<const int> ids = graph.declared_ids(static_cast<int>(d));
    for (size_t i = 0; i < decl.names.size(); ++i) {
      if (used[ids[i]]) {
        continue;
      }
      const Span span = i < decl.name_spans.size() ? decl.name_spans[i] : decl.span;
      sink->AddWarning("W001", span,
                       "variable '" + decl.names[i] + "' is declared but never used by a flow",
                       "remove the declaration or reference '" + decl.names[i] +
                           "' as a flow endpoint");
    }
  }
}

// ---- E010: empty pool ----
void CheckEmptyPool(const QueryFacts& facts, DiagnosticSink* sink) {
  const Query& query = facts.query();
  for (const VarDecl& decl : query.variables) {
    if (decl.values.empty() && !decl.names.empty()) {
      sink->AddError("E010", decl.span,
                     "variable pool of '" + decl.names.front() + "' is empty",
                     "add at least one candidate endpoint to the pool");
    }
  }
}

// ---- W011: duplicate pool entry ----
//
// Every entry after the first occurrence of its endpoint (name id and kind)
// in its declaration is a repeat, flagged once, in source order.
void CheckDuplicatePoolEntry(const QueryFacts& facts, DiagnosticSink* sink) {
  const FlowGraph& graph = facts.flow_graph();
  // By endpoint: the last declaration listing it.
  std::vector<int> listed_by(4 * graph.names().size(), -1);
  for (int d = 0; d < static_cast<int>(facts.query().variables.size()); ++d) {
    const VarDecl& decl = facts.query().variables[d];
    const std::span<const int> ids = graph.pool_ids(d);
    for (size_t i = 0; i < decl.values.size(); ++i) {
      if (std::exchange(listed_by[4 * ids[i] + static_cast<int>(decl.values[i].kind)], d) != d) {
        continue;
      }
      const Span span = i < decl.value_spans.size() ? decl.value_spans[i] : decl.span;
      sink->AddWarning("W011", span, "duplicate pool entry '" + decl.values[i].ToString() + "'",
                       "duplicates never add binding choices; remove the repeat");
    }
  }
}

// ---- W020: self-flow ----
void CheckSelfFlow(const QueryFacts& facts, DiagnosticSink* sink) {
  const Query& query = facts.query();
  for (const FlowDef& flow : query.flows) {
    if (flow.src != flow.dst) {
      continue;
    }
    if (flow.src.kind == Endpoint::Kind::kAddress) {
      sink->AddWarning("W020", flow.dst_span.valid() ? flow.dst_span : flow.span,
                       "flow '" + flow.name + "' sends from '" + flow.src.name +
                           "' to itself",
                       "a flow between one endpoint never crosses the network; remove it "
                       "or fix an endpoint");
    } else if (flow.src.kind == Endpoint::Kind::kVariable) {
      sink->AddWarning("W020", flow.dst_span.valid() ? flow.dst_span : flow.span,
                       "flow '" + flow.name + "' uses variable '" + flow.src.name +
                           "' as both source and destination",
                       "a variable binds to a single endpoint, so this flow never crosses "
                       "the network; use two variables");
    }
  }
}

// ---- E030: size-reference cycle ----
//
// Walks the flow graph's size edges: every reference in a flow's size, or
// its first transfer reference — what the compiler's size resolution
// follows.
void CheckSizeReferenceCycle(const QueryFacts& facts, DiagnosticSink* sink) {
  const Query& query = facts.query();
  const FlowGraph& graph = facts.flow_graph();
  const int n = static_cast<int>(query.flows.size());
  if (!graph.has_size_edges()) {
    return;  // No reference, so no cycle.
  }
  // Iterative three-color DFS; `path` recovers the cycle for the message,
  // and a gray flow's `path_index` is where its cycle starts. The sink keeps
  // one E030 per culprit span, so only a culprit's first cycle is spelled:
  // reporting it resets its `path_index` to -1.
  enum class Color { kWhite, kGray, kBlack };
  std::vector<Color> color(n, Color::kWhite);
  std::vector<int> path_index(n, -1);
  std::vector<int> stack;
  std::vector<int> path;
  for (int start = 0; start < n; ++start) {
    if (color[start] != Color::kWhite) {
      continue;
    }
    stack.assign(1, start);
    path.clear();
    while (!stack.empty()) {
      const int node = stack.back();
      if (color[node] == Color::kWhite) {
        color[node] = Color::kGray;
        path_index[node] = static_cast<int>(path.size());
        path.push_back(node);
        for (const FlowRef& ref : graph.size_edges(node)) {
          const int dep = ref.flow;
          if (dep < 0) {
            continue;
          }
          if (color[dep] == Color::kGray && path_index[dep] >= 0) {
            // Found a cycle: everything in `path` from `dep` onwards.
            std::string names;
            for (size_t i = path_index[dep]; i < path.size(); ++i) {
              names += query.flows[path[i]].name + " -> ";
            }
            path_index[dep] = -1;
            names += query.flows[dep].name;
            const FlowDef& culprit = query.flows[dep];
            sink->AddError("E030", culprit.AttrSpan(Attr::kSize),
                           "cyclic size reference involving flow '" + culprit.name +
                               "' (" + names + ")",
                           "break the cycle by giving one flow a literal size");
          } else if (color[dep] == Color::kWhite) {
            stack.push_back(dep);
          }
        }
      } else {
        stack.pop_back();
        if (color[node] == Color::kGray) {
          color[node] = Color::kBlack;
          path.pop_back();
        }
      }
    }
  }
}

// ---- W040: unreachable flow (transfer chain can never start) ----
//
// The packet-level estimator starts a flow only when the flows its
// `transfer` attribute references have completed (store-and-forward). A
// cycle in that dependency graph means none of its members — nor anything
// downstream of them — can ever start.
void CheckUnreachableFlow(const QueryFacts& facts, DiagnosticSink* sink) {
  const Query& query = facts.query();
  const FlowGraph& graph = facts.flow_graph();
  const int n = static_cast<int>(query.flows.size());
  if (!graph.has_transfer_edges()) {
    return;  // Every flow starts at once.
  }
  // A flow is startable once every flow its transfer references is.
  // Kahn's worklist: `waiting` counts a flow's references to flows not yet
  // startable, and each flow found startable releases its dependents along
  // the reverse edges. Flows left unstartable sit on or behind a cycle (a
  // self-reference is one).
  std::vector<size_t> waiting(n);
  std::vector<std::vector<int>> dependents(n);
  std::vector<int> worklist;
  for (int i = 0; i < n; ++i) {
    for (const int d : graph.transfer_edges(i)) {
      dependents[d].push_back(i);
    }
    waiting[i] = graph.transfer_edges(i).size();
    if (waiting[i] == 0) {
      worklist.push_back(i);
    }
  }
  std::vector<bool> startable(n, false);
  while (!worklist.empty()) {
    const int d = worklist.back();
    worklist.pop_back();
    startable[d] = true;
    for (const int dependent : dependents[d]) {
      if (--waiting[dependent] == 0) {
        worklist.push_back(dependent);
      }
    }
  }
  for (int i = 0; i < n; ++i) {
    if (startable[i]) {
      continue;
    }
    const FlowDef& flow = query.flows[i];
    sink->AddWarning("W040", flow.AttrSpan(Attr::kTransfer),
                     "flow '" + flow.name +
                         "' can never start: its transfer chain waits on itself",
                     "break the dependency cycle by removing one transfer reference");
  }
}

// A chain-group member's positive literal value of `rate` or `end`, as
// written (bytes per second, seconds). Compilation keeps the per-group
// minimum and ignores non-positive values.
struct Literal {
  int flow = 0;
  double value = 0;
};

// Per chain group, in the flow graph's group order, its members' literal
// values of `attr`, in flow order; no groups when no flow has one. W050,
// W090 and W091 read these.
std::vector<std::vector<Literal>> GroupLiterals(const QueryFacts& facts, Attr attr) {
  const Query& query = facts.query();
  const FlowGraph& graph = facts.flow_graph();
  std::vector<std::vector<Literal>> by_group;
  for (size_t i = 0; i < query.flows.size(); ++i) {
    const Expr* expr = query.flows[i].FindAttr(attr);
    if (expr == nullptr || !IsConstantExpr(*expr)) {
      continue;
    }
    const double value = EvalConstant(*expr);
    if (value > 0) {
      by_group.resize(graph.num_groups());
      by_group[graph.group(static_cast<int>(i))].push_back({static_cast<int>(i), value});
    }
  }
  return by_group;
}

// ---- W050 / W091: a looser literal inside a chain group ----
//
// Chained flows share a single rate and a single deadline, and compilation
// keeps the tightest literal of each, so a looser `rate` (W050) or `end`
// (W091) on another member silently loses. Exact restatements are W090's.
void CheckLooserLiteral(const QueryFacts& facts, Attr attr, DiagnosticSink* sink) {
  const Query& query = facts.query();
  const bool rate = attr == Attr::kRate;
  const char* code = rate ? "W050" : "W091";
  const char* relation = rate ? "' conflicts with tighter " : "' is subsumed by the tighter ";
  const char* hint = rate ? "chained flows share one rate and the tightest limit wins; keep "
                            "only the intended limit"
                          : "chained flows share one deadline and the earliest wins; drop "
                            "the looser constraint";
  auto render = [rate](double value) {
    return rate ? "rate " + FormatRate(value) : "deadline " + FormatCount(value) + "s";
  };
  for (const std::vector<Literal>& literals : GroupLiterals(facts, attr)) {
    if (literals.size() < 2) {
      continue;
    }
    const Literal& tightest = *std::min_element(
        literals.begin(), literals.end(),
        [](const Literal& a, const Literal& b) { return a.value < b.value; });
    for (const Literal& literal : literals) {
      if (literal.value == tightest.value) {
        continue;
      }
      const FlowDef& flow = query.flows[literal.flow];
      sink->AddWarning(code, flow.AttrSpan(attr),
                       render(literal.value) + " on flow '" + flow.name + relation +
                           render(tightest.value) + " on flow '" +
                           query.flows[tightest.flow].name + "' in the same chain group",
                       hint);
    }
  }
}

// ---- W090: duplicate constraint ----
//
// Two members of one chain group carrying the *identical* literal rate (or
// deadline) are redundant restatements: compilation takes the per-group
// minimum, so one of them adds nothing. W050 covers conflicting (unequal)
// rates; this rule covers exact duplicates, which W050 deliberately skips.
// Each repeat names the group's first member carrying its value; repeats
// are reported in flow order.
void CheckDuplicateConstraint(const QueryFacts& facts, DiagnosticSink* sink) {
  const Query& query = facts.query();
  for (const Attr attr : {Attr::kRate, Attr::kEnd}) {
    std::vector<std::tuple<int, int, double>> repeats;  // Flow, first flow, value.
    for (const std::vector<Literal>& literals : GroupLiterals(facts, attr)) {
      if (literals.size() < 2) {
        continue;
      }
      std::unordered_map<double, int> first;
      for (const Literal& literal : literals) {
        const auto [it, inserted] = first.try_emplace(literal.value, literal.flow);
        if (!inserted) {
          repeats.emplace_back(literal.flow, it->second, literal.value);
        }
      }
    }
    std::sort(repeats.begin(), repeats.end());
    for (const auto& [f, original, value] : repeats) {
      const FlowDef& flow = query.flows[f];
      const std::string rendered = attr == Attr::kRate ? "rate " + FormatRate(value)
                                                       : "end " + FormatCount(value) + "s";
      sink->AddWarning("W090", flow.AttrSpan(attr),
                       rendered + " on flow '" + flow.name +
                           "' duplicates the identical constraint on flow '" +
                           query.flows[original].name + "' in the same chain group",
                       "chained flows share one " +
                           std::string(attr == Attr::kRate ? "rate limit" : "deadline") +
                           "; drop the restatement");
    }
  }
}

// ---- W092: equivalent to earlier query (batch mode) ----
//
// Registered so --rules and the documentation catalogue list the code; the
// actual check needs the whole input batch and lives in
// FindEquivalentQueries(), driven by the ctlint CLI.
void CheckEquivalentToEarlierQuery(const QueryFacts& facts, DiagnosticSink* sink) {
  (void)facts;
  (void)sink;
}

// ---- W060: search-space explosion ----
void CheckSearchSpaceExplosion(const QueryFacts& facts, DiagnosticSink* sink) {
  const Query& query = facts.query();
  if (!query.options.use_packet_simulator) {
    return;  // The heuristic scales linearly; only exhaustive search explodes.
  }
  const double bindings = EstimateBindingCount(query);
  if (bindings <= kSearchSpaceWarnThreshold) {
    return;
  }
  // Anchor at the declaration contributing the most combinations.
  const VarDecl* largest = nullptr;
  for (const VarDecl& decl : query.variables) {
    if (largest == nullptr ||
        decl.names.size() * decl.values.size() >
            largest->names.size() * largest->values.size()) {
      largest = &decl;
    }
  }
  const Span span = largest != nullptr ? largest->span : Span{};
  std::string hint;
  if (query.options.eval_threads == 0) {
    hint = "add 'option threads N' to shard the search, or drop 'option packet' to use "
           "the linear-time heuristic";
  } else {
    hint = "even sharded over " + std::to_string(query.options.eval_threads) +
           " threads this may take very long; consider the flow-level heuristic "
           "('option flow')";
  }
  sink->AddWarning("W060", span,
                   "exhaustive packet-level evaluation will enumerate about " +
                       FormatCount(bindings) + " candidate bindings",
                   hint);
}

// ---- W070: interchangeable variables ----
//
// Backed by the O200 analysis (opt.h): variables with identical pools,
// identical requirements, and swap-invariant communication structure yield
// symmetric bindings that differ only in variable naming. Only the
// exhaustive path enumerates them, so the rule is silent for heuristic
// queries, and silent when the query does not compile (compilation problems
// carry their own diagnostics).
void CheckInterchangeableVariables(const QueryFacts& facts, DiagnosticSink* sink) {
  const Query& query = facts.query();
  if (!query.options.use_packet_simulator) {
    return;
  }
  const Result<CompiledQuery>& compiled = facts.compiled();
  if (!compiled.ok()) {
    return;
  }
  const std::vector<VarComm>& vars = compiled.value().variables();
  for (const std::vector<int32_t>& cls : InterchangeableClasses(compiled.value())) {
    std::string names;
    for (size_t i = 0; i < cls.size(); ++i) {
      names += std::string(i ? ", '" : "'") + vars[cls[i]].name + "'";
    }
    // Anchored at the declaration of the class's first name.
    const VarComm& first = vars[facts.flow_graph().variable(vars[cls.front()].id)];
    sink->AddWarning("W070", query.variables[first.decl].span,
                     "variables " + names +
                         " are interchangeable: swapping their bindings never changes "
                         "any completion time",
                     "keep 'option optimize' on (the default) so the search visits one "
                     "representative per symmetric binding class (pass O200)");
  }
}

// ---- W071: statically dead flow ----
//
// Backed by the O400 analysis (opt.h): a flow whose resolved size is zero
// transfers nothing — the fluid model completes it on arrival and no
// completion time can depend on it.
void CheckStaticallyDeadFlow(const QueryFacts& facts, DiagnosticSink* sink) {
  const Query& query = facts.query();
  const Result<CompiledQuery>& compiled = facts.compiled();
  if (!compiled.ok()) {
    return;
  }
  const std::vector<CompiledFlow>& flows = compiled.value().flows();
  for (const int32_t f : DeadFlowIndices(compiled.value())) {
    const CompiledFlow& flow = flows[f];
    Span span;
    if (flow.index >= 0 && flow.index < static_cast<int>(query.flows.size())) {
      span = query.flows[flow.index].AttrSpan(Attr::kSize);
    }
    sink->AddWarning("W071", span,
                     "flow '" + flow.name +
                         "' resolves to zero size: it transfers nothing and cannot "
                         "affect any completion time",
                     "give the flow a positive size, or remove it");
  }
}

// ---- E080 / W080 / W081: bound analysis vs deadlines and the objective ----
//
// Backed by src/lang/bound.h on an *empty* status snapshot
// (QueryFacts::idle_bounds): every host is modelled idle with unconstrained
// (1e15 Bps) resources — the most optimistic world the solver can see. A
// completion-time lower bound proved there holds under every real snapshot
// (contention only lowers availability), so E080 is a sound static
// infeasibility proof. The upper bounds W080/W081 read are idle-world
// ceilings and advisory: the messages say so.
//
// Each rule asks for the bounds only once it knows it can fire on them.
// The analysis sets a group's E080/W080 verdicts only when the group has a
// finite deadline, and W081 reads only a group that touches no variable;
// a query with neither never builds them.

std::string FormatSeconds(double seconds) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", seconds);
  return buf;
}

// Diagnostic anchor for a chain group: the first member carrying `attr`
// (that attribute's span), else the group's first member (its flow span).
struct GroupAnchor {
  std::string flow;
  Span span;
};
GroupAnchor AnchorForGroup(const Query& query, const CompiledQuery& compiled, int g,
                           Attr attr) {
  GroupAnchor anchor;
  for (const int f : compiled.groups()[g].flow_indices) {
    const CompiledFlow& flow = compiled.flows()[f];
    const bool in_query =
        flow.index >= 0 && flow.index < static_cast<int>(query.flows.size());
    if (anchor.flow.empty()) {
      anchor.flow = flow.name;
      if (in_query) {
        anchor.span = query.flows[flow.index].span;
      }
    }
    if (in_query) {
      const Span span = query.flows[flow.index].AttrSpan(attr);
      if (span.valid()) {
        anchor.flow = flow.name;
        anchor.span = span;
        break;
      }
    }
  }
  return anchor;
}

// ---- E080: deadline-infeasible group ----
void CheckDeadlineInfeasibleGroup(const QueryFacts& facts, DiagnosticSink* sink) {
  if (!std::isfinite(facts.deadline())) {
    return;  // No verdicts to read; a finite deadline also means it compiled.
  }
  const Query& query = facts.query();
  const Result<CompiledQuery>& compiled = facts.compiled();
  for (const GroupBound& gb : facts.idle_bounds().group_bounds()) {
    if (!gb.provably_infeasible) {
      continue;
    }
    const GroupAnchor anchor = AnchorForGroup(query, compiled.value(), gb.group, Attr::kEnd);
    sink->AddError("E080", anchor.span,
                   "chain group of flow '" + anchor.flow +
                       "' can never meet its deadline of " + FormatSeconds(gb.deadline) +
                       "s: even on idle hosts every binding needs at least " +
                       FormatSeconds(gb.interval.lb) + "s",
                   "raise the deadline, shrink the transfers, or loosen the rate limit");
  }
}

// ---- W080: trivially satisfied deadline ----
void CheckTriviallySatisfiedDeadline(const QueryFacts& facts, DiagnosticSink* sink) {
  if (!std::isfinite(facts.deadline())) {
    return;  // As in E080.
  }
  const Query& query = facts.query();
  const Result<CompiledQuery>& compiled = facts.compiled();
  for (const GroupBound& gb : facts.idle_bounds().group_bounds()) {
    if (!gb.trivially_satisfied) {
      continue;
    }
    const GroupAnchor anchor = AnchorForGroup(query, compiled.value(), gb.group, Attr::kEnd);
    sink->AddWarning("W080", anchor.span,
                     "deadline of " + FormatSeconds(gb.deadline) +
                         "s on the chain group of flow '" + anchor.flow +
                         "' is trivially satisfied: on idle hosts no binding can take "
                         "longer than " +
                         FormatSeconds(gb.interval.ub) + "s",
                     "the deadline only bites under contention; tighten it if it is "
                     "meant to constrain placement");
  }
}

// ---- W081: dominated objective ----
//
// A binding-independent chain group (literal endpoints only) whose lower
// bound meets or exceeds every other group's upper bound pins the makespan:
// no placement choice can change when the slowest group finishes.
void CheckDominatedObjective(const QueryFacts& facts, DiagnosticSink* sink) {
  const Query& query = facts.query();
  if (query.variables.empty()) {
    return;
  }
  const Result<CompiledQuery>& compiled = facts.compiled();
  if (!compiled.ok()) {
    return;
  }
  const std::vector<CompiledGroup>& groups = compiled.value().groups();
  if (groups.size() < 2) {
    return;
  }
  std::vector<char> has_var(groups.size(), 0);
  for (const CompiledFlow& flow : compiled.value().flows()) {
    if (flow.src.kind == Endpoint::Kind::kVariable ||
        flow.dst.kind == Endpoint::Kind::kVariable) {
      has_var[flow.group] = 1;
    }
  }
  const size_t var_groups = static_cast<size_t>(std::count(has_var.begin(), has_var.end(), 1));
  if (var_groups == 0) {
    return;  // No group depends on the binding; W001 covers unused variables.
  }
  if (var_groups == groups.size()) {
    return;  // Every group depends on the binding; none can pin the makespan.
  }
  const std::vector<GroupBound>& gb = facts.idle_bounds().group_bounds();
  for (size_t g = 0; g < groups.size(); ++g) {
    const double lb = gb[g].interval.lb;
    if (has_var[g] != 0 || lb <= 0 || lb >= 1e17) {
      continue;
    }
    bool dominates = true;
    double slowest_other = 0;
    for (size_t h = 0; h < groups.size(); ++h) {
      if (h == g) {
        continue;
      }
      const double ub = gb[h].interval.ub;
      if (!(ub <= lb)) {
        dominates = false;
        break;
      }
      slowest_other = std::max(slowest_other, ub);
    }
    if (!dominates) {
      continue;
    }
    const GroupAnchor anchor =
        AnchorForGroup(query, compiled.value(), static_cast<int>(g), Attr::kSize);
    sink->AddWarning("W081", anchor.span,
                     "the makespan is pinned by the binding-independent chain group of "
                     "flow '" +
                         anchor.flow + "': it needs at least " + FormatSeconds(lb) +
                         "s while every other group finishes within " +
                         FormatSeconds(slowest_other) + "s under any binding",
                     "placement search cannot improve the completion time; revisit the "
                     "dominating flow's size or rate limit");
  }
}

// ---- W100: unused pool host ----
//
// A host listed in a pool whose every drawing variable is inert (no flows,
// no disk, no requirements) is provably outside the query footprint: no
// evaluation engine reads its status and the server never probes it
// (src/lang/scope.h).
void CheckUnusedPoolHost(const QueryFacts& facts, DiagnosticSink* sink) {
  const Query& query = facts.query();
  if (!facts.compiled().ok()) {
    return;
  }
  const ScopeAnalysis& scope = facts.scope();
  if (scope.excluded.empty()) {
    return;
  }
  const FlowGraph& graph = facts.flow_graph();
  std::vector<char> reported(graph.names().size(), 0);  // By name id.
  for (int d = 0; d < static_cast<int>(query.variables.size()); ++d) {
    const VarDecl& decl = query.variables[d];
    const std::span<const int> ids = graph.pool_ids(d);
    for (size_t i = 0; i < decl.values.size(); ++i) {
      const Endpoint& value = decl.values[i];
      if (value.kind != Endpoint::Kind::kAddress ||
          scope.host_by_id[ids[i]] != HostScope::kExcluded || std::exchange(reported[ids[i]], 1)) {
        continue;
      }
      const Span span = i < decl.value_spans.size() ? decl.value_spans[i] : decl.span;
      sink->AddWarning("W100", span,
                       "host '" + value.name +
                           "' is outside every query footprint: each variable drawing "
                           "from this pool is never used by a flow or requirement",
                       "the server will never probe it; remove the host or use the "
                       "variable in a flow");
    }
  }
}

// ---- W101: footprint exceeds pool ----
//
// A flow that pins a literal host which also sits in a pool makes the
// pool's effective footprint larger than the pool suggests: the binding
// search may place a variable on a host that already carries the pinned
// traffic. The one intentional shape is priority binding (Listing 1), where
// the literal is the single peer of the pool variable *on the same flow*;
// that pairing is exempt.
void CheckFootprintExceedsPool(const QueryFacts& facts, DiagnosticSink* sink) {
  const Query& query = facts.query();
  const Result<CompiledQuery>& compiled = facts.compiled();
  if (!compiled.ok()) {
    return;
  }
  // Per name id: the first variable whose pool lists it, and the first one
  // after it with another name. A finding names the first unless the flow's
  // other endpoint is that variable (priority binding), then the second.
  const FlowGraph& graph = facts.flow_graph();
  const std::vector<VarComm>& variables = compiled.value().variables();
  std::vector<std::pair<int, int>> pooled(graph.names().size(), {-1, -1});
  for (int v = 0; v < static_cast<int>(variables.size()); ++v) {
    const std::span<const int> ids = graph.pool_ids(variables[v].decl);
    for (size_t k = 0; k < ids.size(); ++k) {
      auto& [first, second] = pooled[ids[k]];
      if (variables[v].pool[k].kind != Endpoint::Kind::kAddress) {
        continue;
      }
      if (first < 0) {
        first = v;
      } else if (second < 0 && variables[first].id != variables[v].id) {
        second = v;
      }
    }
  }
  for (int f = 0; f < static_cast<int>(query.flows.size()); ++f) {
    const FlowDef& flow = query.flows[f];
    struct Side {
      const Endpoint* literal;
      int literal_id;
      const Endpoint* other;
      int other_id;
      const Span* span;
    };
    for (const Side& side :
         {Side{&flow.src, graph.src_id(f), &flow.dst, graph.dst_id(f), &flow.src_span},
          Side{&flow.dst, graph.dst_id(f), &flow.src, graph.src_id(f), &flow.dst_span}}) {
      if (side.literal->kind != Endpoint::Kind::kAddress) {
        continue;
      }
      const auto [first, second] = pooled[side.literal_id];
      const bool priority = first >= 0 && side.other->kind == Endpoint::Kind::kVariable &&
                            variables[first].id == side.other_id;
      const int v = priority ? second : first;
      if (v < 0) {
        continue;
      }
      sink->AddWarning("W101", *side.span,
                       "literal endpoint '" + side.literal->name +
                           "' is also a binding candidate of pool variable '" +
                           variables[v].name + "': the flow's fixed footprint reaches into the pool",
                       "a binding may collide with the pinned traffic; remove the host "
                       "from the pool or address the variable instead");
    }
  }
}

}  // namespace

double EstimateBindingCount(const Query& query) {
  constexpr double kCap = 1e18;
  double total = 1;
  for (const VarDecl& decl : query.variables) {
    const double p = static_cast<double>(decl.values.size());
    const size_t d = decl.names.size();
    if (p == 0) {
      continue;  // Empty pool is E010's problem, not W060's.
    }
    if (query.options.allow_same_binding || d > decl.values.size()) {
      // Shared bindings (or wrap-around when variables outnumber values):
      // every variable picks independently.
      for (size_t i = 0; i < d && total < kCap; ++i) {
        total *= p;
      }
    } else {
      // Distinct bindings: falling factorial p * (p-1) * ... * (p-d+1).
      for (size_t i = 0; i < d && total < kCap; ++i) {
        total *= p - static_cast<double>(i);
      }
    }
  }
  return std::min(total, kCap);
}

const std::vector<LintRule>& LintRules() {
  static const std::vector<LintRule> kRules = {
      {"W001", Severity::kWarning, "unused-variable",
       "declared variable never used as a flow endpoint", CheckUnusedVariable},
      {"E010", Severity::kError, "empty-pool", "variable pool has no candidate endpoints",
       CheckEmptyPool},
      {"W011", Severity::kWarning, "duplicate-pool-entry",
       "same endpoint listed more than once in a pool", CheckDuplicatePoolEntry},
      {"W020", Severity::kWarning, "self-flow",
       "flow source and destination are identical", CheckSelfFlow},
      {"E030", Severity::kError, "size-reference-cycle",
       "sz()/t() size resolution can never settle", CheckSizeReferenceCycle},
      {"W040", Severity::kWarning, "unreachable-flow",
       "transfer chain waits on itself and never starts", CheckUnreachableFlow},
      {"W050", Severity::kWarning, "contradictory-rate-chain",
       "two literal rates in one chain group; the tighter silently wins",
       [](const QueryFacts& facts, DiagnosticSink* sink) {
         CheckLooserLiteral(facts, Attr::kRate, sink);
       }},
      {"W060", Severity::kWarning, "search-space-explosion",
       "exhaustive binding count is intractably large", CheckSearchSpaceExplosion},
      {"W070", Severity::kWarning, "interchangeable-variables",
       "variables are symmetric; exhaustive search enumerates them redundantly",
       CheckInterchangeableVariables},
      {"W071", Severity::kWarning, "statically-dead-flow",
       "flow resolves to zero size and transfers nothing", CheckStaticallyDeadFlow},
      {"E080", Severity::kError, "deadline-infeasible-group",
       "no binding can meet the group's deadline, even on idle hosts",
       CheckDeadlineInfeasibleGroup},
      {"W080", Severity::kWarning, "trivially-satisfied-deadline",
       "every binding meets the deadline on idle hosts; it never constrains placement",
       CheckTriviallySatisfiedDeadline},
      {"W081", Severity::kWarning, "dominated-objective",
       "a binding-independent chain group pins the makespan; search cannot improve it",
       CheckDominatedObjective},
      {"W090", Severity::kWarning, "duplicate-constraint",
       "identical literal rate/deadline restated in one chain group",
       CheckDuplicateConstraint},
      {"W091", Severity::kWarning, "subsumed-constraint",
       "looser deadline subsumed by a tighter one in the same chain group",
       [](const QueryFacts& facts, DiagnosticSink* sink) {
         CheckLooserLiteral(facts, Attr::kEnd, sink);
       }},
      {"W092", Severity::kWarning, "equivalent-to-earlier-query",
       "query is semantically equivalent to an earlier input (batch mode)",
       CheckEquivalentToEarlierQuery},
      {"W100", Severity::kWarning, "unused-pool-host",
       "pool host provably outside every query footprint; never probed",
       CheckUnusedPoolHost},
      {"W101", Severity::kWarning, "footprint-exceeds-pool",
       "literal flow endpoint doubles as a binding candidate of a pool variable",
       CheckFootprintExceedsPool},
  };
  return kRules;
}

std::vector<BatchEquivalence> FindEquivalentQueries(const std::vector<const Query*>& queries) {
  std::vector<BatchEquivalence> result(queries.size());
  std::unordered_map<std::string, int> first_by_text;
  for (size_t i = 0; i < queries.size(); ++i) {
    Result<CanonicalQuery> canon = Canonicalize(*queries[i]);
    if (!canon.ok()) {
      continue;  // Not renameable (duplicate names etc.); never matches.
    }
    result[i].hash = canon.value().hash;
    const auto [it, inserted] =
        first_by_text.try_emplace(canon.value().text, static_cast<int>(i));
    if (!inserted) {
      result[i].equivalent_to = it->second;
    }
  }
  return result;
}

void RunLint(const QueryFacts& facts, DiagnosticSink* sink) {
  for (const LintRule& rule : LintRules()) {
    rule.check(facts, sink);
  }
}

}  // namespace lang
}  // namespace cloudtalk
