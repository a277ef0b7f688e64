#include "src/lang/analysis.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <unordered_set>
#include <utility>

#include "src/fluidsim/fluid_simulation.h"

namespace cloudtalk {
namespace lang {

namespace {

// A size expression's value once every reference in it has resolved:
// `*ref` steps through the flow's size edges, one per reference, in the
// source order CollectFlowRefs lists them.
Bytes EvalSize(const Expr& expr, const std::vector<Bytes>& sizes, const FlowRef** ref) {
  switch (expr.kind) {
    case Expr::Kind::kLiteral:
      return expr.literal;
    case Expr::Kind::kRef:
      return sizes[(*ref)++->flow];
    case Expr::Kind::kBinary: {
      const Bytes l = EvalSize(*expr.lhs, sizes, ref);
      const Bytes r = EvalSize(*expr.rhs, sizes, ref);
      switch (expr.op) {
        case '+':
          return l + r;
        case '-':
          return l - r;
        case '*':
          return l * r;
        case '/':
          return r != 0 ? l / r : 0;
      }
      return 0;
    }
  }
  return 0;
}

// Resolves every flow's size along the graph's size edges into `sizes`, in
// the depth-first order a recursive resolver would take, but with an
// explicit stack: a chain of any length needs no native stack. A flow with
// a `size` evaluates it once its references have resolved; a flow without
// one inherits the size of its first transfer reference (web-search query,
// Section 5.4). Each failure is reported once, where it happens, into the
// sink: E031 for a start/end/rate reference, E003 for an undefined flow,
// E030 for a reference back into a flow still being resolved, E032 for a
// flow with nothing to size it. A flow that reads a failed flow fails
// without a report of its own. Returns false when any flow failed.
bool ResolveSizes(const Query& query, const FlowGraph& graph, DiagnosticSink* sink,
                  std::vector<Bytes>* sizes) {
  enum class State : char { kUnresolved, kInProgress, kDone, kFailed };
  const int n = static_cast<int>(query.flows.size());
  std::vector<State> state(n, State::kUnresolved);
  sizes->assign(n, 0);
  bool ok = true;
  struct Frame {
    int flow;
    size_t next_edge;
  };
  std::vector<Frame> stack;
  for (int root = 0; root < n; ++root) {
    if (state[root] != State::kUnresolved) {
      continue;
    }
    state[root] = State::kInProgress;
    stack.push_back({root, 0});
    while (!stack.empty()) {
      const int f = stack.back().flow;
      const FlowDef& flow = query.flows[f];
      const Expr* size_expr = flow.FindAttr(Attr::kSize);
      const std::span<const FlowRef> edges = graph.size_edges(f);
      State outcome = State::kDone;
      for (size_t& e = stack.back().next_edge; e < edges.size(); ++e) {
        const FlowRef& ref = edges[e];
        if (size_expr == nullptr && ref.flow < 0) {
          break;  // An undefined transfer reference sizes nothing: E032 below.
        }
        if (size_expr != nullptr && ref.expr->ref_attr != Attr::kSize &&
            ref.expr->ref_attr != Attr::kTransfer) {
          sink->AddError("E031",
                         ref.expr->span.valid() ? ref.expr->span : flow.AttrSpan(Attr::kSize),
                         "flow '" + flow.name +
                             "': only sz()/t() references are usable inside size expressions",
                         "start, end, and rate are not known until evaluation time");
          outcome = State::kFailed;
          break;
        }
        if (ref.flow < 0) {
          sink->AddError("E003", ref.expr->span.valid() ? ref.expr->span : flow.span,
                         "undefined flow '" + ref.expr->ref_flow + "'");
          outcome = State::kFailed;
          break;
        }
        const State target = state[ref.flow];
        if (target == State::kDone) {
          continue;
        }
        if (target == State::kInProgress) {
          const FlowDef& culprit = query.flows[ref.flow];
          sink->AddError("E030", culprit.AttrSpan(Attr::kSize),
                         "cyclic size reference involving flow '" + culprit.name + "'",
                         "break the cycle by giving one flow a literal size");
        }
        if (target != State::kUnresolved) {
          outcome = State::kFailed;
          break;
        }
        state[ref.flow] = State::kInProgress;
        stack.push_back({ref.flow, 0});
        outcome = State::kInProgress;
        break;
      }
      if (outcome == State::kInProgress) {
        continue;  // Resolve the dependency first, then come back.
      }
      if (outcome == State::kDone) {
        if (size_expr != nullptr) {
          const FlowRef* ref = edges.data();
          (*sizes)[f] = EvalSize(*size_expr, *sizes, &ref);
        } else if (!edges.empty() && edges.front().flow >= 0) {
          (*sizes)[f] = (*sizes)[edges.front().flow];
        } else {
          sink->AddError("E032", flow.span, "flow '" + flow.name + "' has no resolvable size",
                         "add a size attribute or a transfer reference to a sized flow");
          outcome = State::kFailed;
        }
      }
      state[f] = outcome;
      ok = ok && outcome == State::kDone;
      stack.pop_back();
    }
  }
  return ok;
}

// Appends `e` to a variable's `peers` unless already listed, keeping
// first-occurrence order. `seen` mirrors `peers` from its second entry on,
// so n peers cost O(n) and a single peer costs no hashing.
void AddPeer(const Endpoint& e, std::vector<Endpoint>* peers,
             std::unordered_set<Endpoint, EndpointHash>* seen) {
  if (peers->empty()) {
    peers->push_back(e);
    return;
  }
  if (seen->empty()) {
    seen->insert(peers->front());
  }
  if (seen->insert(e).second) {
    peers->push_back(e);
  }
}

}  // namespace

FlowGraph::FlowGraph(const Query& query) {
  const int n = static_cast<int>(query.flows.size());
  size_t mentions = 2 * query.flows.size();
  for (const VarDecl& decl : query.variables) {
    mentions += decl.names.size() + decl.values.size();
  }
  names_.reserve(mentions + query.flows.size());
  named_.reserve(mentions + query.flows.size());
  ids_.reserve(mentions);
  mention_begin_.reserve(2 * query.variables.size() + 1);
  const auto intern = [this](const std::string& name) {
    const int id = names_.Intern(name);
    if (id == static_cast<int>(named_.size())) {
      named_.emplace_back();
    }
    return id;
  };
  int variables = 0;
  for (const VarDecl& decl : query.variables) {
    mention_begin_.push_back(static_cast<int>(ids_.size()));
    for (const std::string& name : decl.names) {
      const int id = intern(name);
      ids_.push_back(id);
      // A name declared twice resolves to its first declaration.
      named_[id].variable = named_[id].variable < 0 ? variables : named_[id].variable;
      ++variables;
    }
    mention_begin_.push_back(static_cast<int>(ids_.size()));
    for (const Endpoint& value : decl.values) {
      ids_.push_back(intern(value.name));
    }
  }
  mention_begin_.push_back(static_cast<int>(ids_.size()));
  for (int i = 0; i < n; ++i) {
    const FlowDef& flow = query.flows[i];
    named_[intern(flow.name)].flow = i;
    ids_.push_back(intern(flow.src.name));
    ids_.push_back(intern(flow.dst.name));
  }
  size_begin_.reserve(n + 1);
  transfer_begin_.reserve(n + 1);
  UnionFind sets(n);
  std::vector<const Expr*> refs;
  for (int i = 0; i < n; ++i) {
    const FlowDef& flow = query.flows[i];
    size_begin_.push_back(static_cast<int>(size_edges_.size()));
    transfer_begin_.push_back(static_cast<int>(transfer_edges_.size()));
    const Expr* size = flow.FindAttr(Attr::kSize);
    const Expr* transfer = flow.FindAttr(Attr::kTransfer);
    if (size != nullptr) {
      refs.clear();
      CollectFlowRefs(*size, &refs);
      for (const Expr* ref : refs) {
        size_edges_.push_back({Find(ref->ref_flow), ref});
      }
    }
    if (transfer != nullptr) {
      refs.clear();
      CollectFlowRefs(*transfer, &refs);
      if (size == nullptr && !refs.empty()) {
        size_edges_.push_back({Find(refs.front()->ref_flow), refs.front()});
      }
      for (const Expr* ref : refs) {
        const int target = Find(ref->ref_flow);
        if (target >= 0) {
          transfer_edges_.push_back(target);
        }
      }
    }
    for (const AttrValue& av : flow.attrs) {
      if (av.attr != Attr::kRate && av.attr != Attr::kTransfer) {
        continue;
      }
      refs.clear();
      CollectFlowRefs(*av.value, &refs);
      for (const Expr* ref : refs) {
        const int target = Find(ref->ref_flow);
        if (target >= 0) {
          sets.Union(i, target);
        }
      }
    }
  }
  size_begin_.push_back(static_cast<int>(size_edges_.size()));
  transfer_begin_.push_back(static_cast<int>(transfer_edges_.size()));
  // Number each group at its lowest member.
  std::vector<int> group_of_root(n, -1);
  group_.resize(n);
  for (int i = 0; i < n; ++i) {
    int& g = group_of_root[sets.Find(i)];
    if (g < 0) {
      g = num_groups_++;
    }
    group_[i] = g;
  }
}

std::optional<CompiledQuery> CompiledQuery::Compile(const Query& query, DiagnosticSink* sink) {
  auto graph = std::make_shared<const FlowGraph>(query);
  std::optional<CompiledQuery> compiled = Compile(query, *graph, sink);
  if (compiled.has_value()) {
    compiled->own_graph_ = std::move(graph);
  }
  return compiled;
}

Result<CompiledQuery> CompiledQuery::Compile(const Query& query) {
  DiagnosticSink sink;
  std::optional<CompiledQuery> compiled = Compile(query, &sink);
  return compiled ? Result<CompiledQuery>(*std::move(compiled)) : sink.ToLegacyError();
}

Result<CompiledQuery> CompiledQuery::Compile(const Query& query, const FlowGraph& graph) {
  DiagnosticSink sink;
  std::optional<CompiledQuery> compiled = Compile(query, graph, &sink);
  return compiled ? Result<CompiledQuery>(*std::move(compiled)) : sink.ToLegacyError();
}

std::optional<CompiledQuery> CompiledQuery::Compile(const Query& query, const FlowGraph& graph,
                                                    DiagnosticSink* sink) {
  CompiledQuery compiled;
  compiled.query_ = &query;
  compiled.graph_ = &graph;

  // ---- Variables and their communication sets ----
  size_t num_variables = 0;
  for (const VarDecl& decl : query.variables) {
    num_variables += decl.names.size();
  }
  compiled.variables_.reserve(num_variables);
  for (size_t d = 0; d < query.variables.size(); ++d) {
    const VarDecl& decl = query.variables[d];
    for (size_t i = 0; i < decl.names.size(); ++i) {
      VarComm comm;
      comm.name = decl.names[i];
      comm.id = graph.declared_ids(static_cast<int>(d))[i];
      comm.decl = static_cast<int>(d);
      comm.pool = decl.values;
      compiled.variables_.push_back(std::move(comm));
    }
  }
  for (const Requirement& req : query.requirements) {
    const int index = compiled.VariableIndex(req.var);
    if (index < 0) {
      sink->AddError("E003", req.span,
                     "requirement references undeclared variable '" + req.var + "'");
      return std::nullopt;
    }
    compiled.variables_[index].cpu_required = req.cpu_cores;
    compiled.variables_[index].mem_required = req.memory;
  }
  auto var_index = [&graph](const Endpoint& e, int id) -> int {
    return e.kind == Endpoint::Kind::kVariable ? graph.variable(id) : -1;
  };
  // Variable v's tx_to peers at 2 v, its rx_from peers at 2 v + 1.
  std::vector<std::unordered_set<Endpoint, EndpointHash>> seen(2 * num_variables);
  for (size_t f = 0; f < query.flows.size(); ++f) {
    const FlowDef& flow = query.flows[f];
    const int src_var = var_index(flow.src, graph.src_id(static_cast<int>(f)));
    const int dst_var = var_index(flow.dst, graph.dst_id(static_cast<int>(f)));
    if (flow.src.kind == Endpoint::Kind::kDisk && dst_var >= 0) {
      compiled.variables_[dst_var].reads_disk = true;
    } else if (flow.dst.kind == Endpoint::Kind::kDisk && src_var >= 0) {
      compiled.variables_[src_var].writes_disk = true;
    } else if (flow.src.kind != Endpoint::Kind::kDisk &&
               flow.dst.kind != Endpoint::Kind::kDisk) {
      if (src_var >= 0) {
        AddPeer(flow.dst, &compiled.variables_[src_var].tx_to, &seen[2 * src_var]);
      }
      if (dst_var >= 0) {
        AddPeer(flow.src, &compiled.variables_[dst_var].rx_from, &seen[2 * dst_var + 1]);
      }
    }
  }

  // ---- Sizes ----
  std::vector<Bytes> sizes;
  if (!ResolveSizes(query, graph, sink, &sizes)) {
    return std::nullopt;
  }

  // ---- Flows and their chain groups ----
  const int num_flows = static_cast<int>(query.flows.size());
  compiled.flows_.reserve(num_flows);
  compiled.groups_.assign(graph.num_groups(),
                          CompiledGroup{{}, kUnlimitedRate,
                                        std::numeric_limits<Seconds>::infinity(),
                                        std::numeric_limits<Seconds>::infinity()});
  for (int i = 0; i < num_flows; ++i) {
    const FlowDef& def = query.flows[i];
    CompiledFlow flow;
    flow.index = i;
    flow.name = def.name;
    flow.src = def.src;
    flow.dst = def.dst;
    flow.size = sizes[i];
    const Expr* start = def.FindAttr(Attr::kStart);
    if (start != nullptr && IsConstantExpr(*start)) {
      flow.start = EvalConstant(*start);
    }
    for (const int parent : graph.transfer_edges(i)) {
      if (parent != i) {
        flow.transfer_parents.push_back(parent);
      }
    }
    flow.group = graph.group(i);
    CompiledGroup& group = compiled.groups_[flow.group];
    group.flow_indices.push_back(i);
    group.start = std::min(group.start, flow.start);
    const Expr* end = def.FindAttr(Attr::kEnd);
    if (end != nullptr && IsConstantExpr(*end)) {
      const Seconds deadline = EvalConstant(*end);
      if (deadline > 0) {
        group.deadline = std::min(group.deadline, deadline);
      }
    }
    const Expr* rate = def.FindAttr(Attr::kRate);
    if (rate != nullptr && IsConstantExpr(*rate)) {
      // Literal rates are bytes/second in the language (Table 1); the
      // engine wants bits/second.
      const double limit_bps = EvalConstant(*rate) * 8.0;
      if (limit_bps > 0) {
        group.rate_limit = std::min(group.rate_limit, limit_bps);
      }
    }
    compiled.flows_.push_back(std::move(flow));
  }
  for (CompiledGroup& group : compiled.groups_) {
    if (!std::isfinite(group.start)) {
      group.start = 0;
    }
  }
  compiled.hosts_ = QueryHosts(compiled);
  return compiled;
}

QueryHosts::QueryHosts(const CompiledQuery& compiled) {
  // Every address mention, pool entries first, then flow endpoints: a name's
  // first mention hands out its slot.
  const FlowGraph& graph = compiled.graph();
  const std::vector<VarComm>& variables = compiled.variables();
  slot_of.assign(graph.names().size(), -1);
  const auto slot = [&](const Endpoint& e, int id) {
    if (e.kind != Endpoint::Kind::kAddress) {
      return -1;
    }
    if (slot_of[id] < 0) {
      slot_of[id] = static_cast<int>(names.size());
      names.push_back(&e.name);
      ids.push_back(id);
    }
    return slot_of[id];
  };
  names.reserve(slot_of.size());
  ids.reserve(slot_of.size());
  // Each variable's pool as slots, and each distinct pool once, interned by
  // its slot list's bytes.
  NameTable pool_index;
  pools.reserve(variables.size());
  pool_of.reserve(variables.size());
  for (const VarComm& var : variables) {
    const std::span<const int> pool_ids = graph.pool_ids(var.decl);
    std::vector<int> entries(var.pool.size());
    for (size_t k = 0; k < entries.size(); ++k) {
      entries[k] = slot(var.pool[k], pool_ids[k]);
    }
    const std::string_view bytes(reinterpret_cast<const char*>(entries.data()),
                                 entries.size() * sizeof(int));
    pool_of.push_back(pool_index.Intern(bytes));
    if (pool_of.back() == static_cast<int>(pools.size())) {
      pools.push_back(std::move(entries));  // The buffer, and so the key, stays put.
    }
  }
  pool_names = static_cast<int>(names.size());
  std::vector<char> listed(slot_of.size(), 0);  // By name id: in `endpoints`.
  const std::vector<FlowDef>& flows = compiled.query().flows;
  for (int f = 0; f < static_cast<int>(flows.size()); ++f) {
    for (const auto& [e, id] : {std::pair{&flows[f].src, graph.src_id(f)},
                                std::pair{&flows[f].dst, graph.dst_id(f)}}) {
      if (slot(*e, id) >= 0 && !std::exchange(listed[id], 1)) {
        endpoints.push_back(slot_of[id]);
      }
    }
  }

  // Each variable's only peer's slot.
  peer_of.reserve(variables.size());
  for (const VarComm& var : variables) {
    const Endpoint* only = var.rx_from.size() + var.tx_to.size() != 1 ? nullptr
                           : var.rx_from.empty()                    ? &var.tx_to.front()
                                                                    : &var.rx_from.front();
    peer_of.push_back(only != nullptr && only->kind == Endpoint::Kind::kAddress
                          ? slot_of[graph.names().Find(only->name)]
                          : -1);
  }
}

HostStatus::HostStatus(const QueryHosts& hosts, std::span<const int> identity, size_t reports)
    : identity_(identity), index_(hosts.names.size(), -1) {
  reports_.reserve(reports);
}

HostStatus::HostStatus(const QueryHosts& hosts, const StatusByAddress& status,
                       std::span<const int> identity)
    : HostStatus(hosts, identity) {
  for (int slot = 0; slot < static_cast<int>(hosts.names.size()); ++slot) {
    const auto it = status.find(*hosts.names[slot]);
    if (it != status.end() && HostOf(identity, slot) == slot) {
      Set(slot, it->second);
    }
  }
}

void HostStatus::Set(int slot, const StatusReport& report) {
  int& index = index_[HostOf(identity_, slot)];
  if (index < 0) {
    index = static_cast<int>(reports_.size());
    reports_.emplace_back();
  }
  reports_[index] = report;
}

std::vector<int> QueryHosts::CandidateSlots(int var) const {
  std::vector<int> out;
  for (const int slot : pools[pool_of[var]]) {
    if (slot >= 0) {
      out.push_back(slot);
    }
  }
  return out;
}

}  // namespace lang
}  // namespace cloudtalk
