#include "src/lang/canon.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <numeric>
#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "src/lang/analysis.h"

namespace cloudtalk {
namespace lang {

namespace {

constexpr uint64_t kFnvOffset = 14695981039346656037ULL;
constexpr uint64_t kFnvPrime = 1099511628211ULL;

uint64_t FnvMix(uint64_t h, const void* data, size_t size) {
  const unsigned char* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    h ^= bytes[i];
    h *= kFnvPrime;
  }
  return h;
}

ExprPtr CloneExpr(const Expr& expr) { return expr.Clone(); }

FlowDef CloneFlow(const FlowDef& flow) {
  FlowDef clone;
  clone.name = flow.name;
  clone.explicit_name = flow.explicit_name;
  clone.src = flow.src;
  clone.dst = flow.dst;
  clone.span = flow.span;
  clone.src_span = flow.src_span;
  clone.dst_span = flow.dst_span;
  clone.attrs.reserve(flow.attrs.size());
  for (const AttrValue& av : flow.attrs) {
    clone.attrs.push_back(AttrValue{av.attr, CloneExpr(*av.value), av.span});
  }
  return clone;
}

Query CloneQuery(const Query& query) {
  Query clone;
  clone.variables = query.variables;
  clone.requirements = query.requirements;
  clone.options = query.options;
  clone.flows.reserve(query.flows.size());
  for (const FlowDef& flow : query.flows) {
    clone.flows.push_back(CloneFlow(flow));
  }
  return clone;
}

// Folds every maximal constant subexpression to one literal, mirroring
// EvalConstant() (so the compiled doubles are bit-identical to the unfolded
// evaluation: same operations in the same association order).
void FoldConstants(ExprPtr* expr) {
  if (IsConstantExpr(**expr)) {
    if ((*expr)->kind != Expr::Kind::kLiteral) {
      *expr = Expr::Literal(EvalConstant(**expr));
    }
    return;
  }
  if ((*expr)->kind == Expr::Kind::kBinary) {
    FoldConstants(&(*expr)->lhs);
    FoldConstants(&(*expr)->rhs);
  }
}

// Dead-clause elimination on one flow's attributes. Compilation reads
// start/end only when the whole expression is constant (analysis.cc), a
// `start 0` restates the default, and non-positive deadlines/rate limits
// are ignored (`deadline > 0` / `limit_bps > 0` guards). Rate expressions
// with references must stay: they drive chain grouping even though their
// value is never read.
void DropDeadAttrs(FlowDef* flow) {
  auto dead = [](const AttrValue& av) {
    switch (av.attr) {
      case Attr::kStart:
        return !IsConstantExpr(*av.value) || EvalConstant(*av.value) == 0;
      case Attr::kEnd:
        return !IsConstantExpr(*av.value) || EvalConstant(*av.value) <= 0;
      case Attr::kRate:
        return IsConstantExpr(*av.value) && EvalConstant(*av.value) <= 0;
      case Attr::kSize:
      case Attr::kTransfer:
        return false;
    }
    return false;
  };
  flow->attrs.erase(std::remove_if(flow->attrs.begin(), flow->attrs.end(), dead),
                    flow->attrs.end());
}

// Serializes an expression for the refinement signature. Literals render as
// the exact bit pattern (canonical and collision-free, unlike any decimal
// rendering); a reference renders as its target's previous-round key, so
// the serialization is name-free.
void SerializeExpr(const Expr& expr, const FlowGraph& graph, const std::vector<uint64_t>& key,
                   std::string* out) {
  switch (expr.kind) {
    case Expr::Kind::kLiteral: {
      uint64_t bits = 0;
      std::memcpy(&bits, &expr.literal, sizeof(bits));
      char buf[24];
      std::snprintf(buf, sizeof(buf), "L%016llx", static_cast<unsigned long long>(bits));
      out->append(buf);
      return;
    }
    case Expr::Kind::kRef: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "R%d@%016llx", static_cast<int>(expr.ref_attr),
                    static_cast<unsigned long long>(key[graph.Find(expr.ref_flow)]));
      out->append(buf);
      return;
    }
    case Expr::Kind::kBinary:
      out->push_back('(');
      out->push_back(expr.op);
      SerializeExpr(*expr.lhs, graph, key, out);
      out->push_back(',');
      SerializeExpr(*expr.rhs, graph, key, out);
      out->push_back(')');
      return;
  }
}

void SerializeEndpoint(const Endpoint& e,
                       const std::unordered_map<std::string, int>& var_slot,
                       std::string* out) {
  switch (e.kind) {
    case Endpoint::Kind::kAddress:
      out->push_back('A');
      out->append(e.name);
      return;
    case Endpoint::Kind::kVariable: {
      const auto it = var_slot.find(e.name);
      out->push_back('V');
      out->append(std::to_string(it != var_slot.end() ? it->second : -1));
      return;
    }
    case Endpoint::Kind::kDisk:
      out->push_back('D');
      return;
    case Endpoint::Kind::kUnknown:
      out->push_back('U');
      return;
  }
}

// One refinement round's signature of a flow: endpoints (variables by
// declaration slot — declaration order is canonical), attributes in enum
// order with reference targets rendered through their previous-round keys,
// plus the sorted multiset of previous-round keys of the flows referencing
// this one (backward edges — forward serialization alone cannot separate
// two identical flows of which only one is referenced).
uint64_t FlowSignature(const FlowDef& flow,
                       const std::unordered_map<std::string, int>& var_slot,
                       const FlowGraph& graph, const std::vector<uint64_t>& key,
                       std::vector<uint64_t> incoming) {
  std::string sig;
  SerializeEndpoint(flow.src, var_slot, &sig);
  sig.push_back('>');
  SerializeEndpoint(flow.dst, var_slot, &sig);
  for (const AttrValue& av : flow.attrs) {
    sig.push_back('|');
    sig.append(std::to_string(static_cast<int>(av.attr)));
    sig.push_back(':');
    SerializeExpr(*av.value, graph, key, &sig);
  }
  uint64_t h = FnvMix(kFnvOffset, sig.data(), sig.size());
  std::sort(incoming.begin(), incoming.end());
  for (const uint64_t k : incoming) {
    h = FnvMix(h, &k, sizeof(k));
  }
  return h;
}

}  // namespace

uint64_t ContentHash(std::string_view text) {
  return FnvMix(kFnvOffset, text.data(), text.size());
}

const std::string* CanonicalQuery::OriginalVariable(const std::string& canonical) const {
  for (const auto& [original, canon] : variable_map) {
    if (canon == canonical) {
      return &original;
    }
  }
  return nullptr;
}

const std::string* CanonicalQuery::OriginalFlow(const std::string& canonical) const {
  for (const auto& [original, canon] : flow_map) {
    if (canon == canonical) {
      return &original;
    }
  }
  return nullptr;
}

Result<CanonicalQuery> Canonicalize(const Query& query) {
  // ---- Validity guards: renaming is only sound over unambiguous names ----
  std::unordered_set<std::string> var_names;
  for (const VarDecl& decl : query.variables) {
    for (const std::string& name : decl.names) {
      if (!var_names.insert(name).second) {
        return Error{"cannot canonicalize: variable '" + name + "' declared twice"};
      }
    }
  }
  // The working copy below keeps these flows, in this order, with these
  // names and references until the renaming, so one graph over `query`
  // indexes and groups it throughout.
  const FlowGraph graph(query);
  const int n = static_cast<int>(query.flows.size());
  for (int i = 0; i < n; ++i) {
    if (graph.Find(query.flows[i].name) != i) {
      return Error{"cannot canonicalize: flow '" + query.flows[i].name + "' defined twice"};
    }
  }
  std::vector<const Expr*> refs;
  for (const FlowDef& flow : query.flows) {
    for (const AttrValue& av : flow.attrs) {
      refs.clear();
      CollectFlowRefs(*av.value, &refs);
      for (const Expr* ref : refs) {
        if (graph.Find(ref->ref_flow) < 0) {
          return Error{"cannot canonicalize: flow '" + flow.name +
                       "' references undefined flow '" + ref->ref_flow + "'"};
        }
      }
    }
  }

  Query canon = CloneQuery(query);

  // ---- Dead clauses and constant folding ----
  for (FlowDef& flow : canon.flows) {
    DropDeadAttrs(&flow);
    for (AttrValue& av : flow.attrs) {
      FoldConstants(&av.value);
    }
    std::sort(flow.attrs.begin(), flow.attrs.end(),
              [](const AttrValue& a, const AttrValue& b) {
                return static_cast<int>(a.attr) < static_cast<int>(b.attr);
              });
  }
  for (VarDecl& decl : canon.variables) {
    // Duplicate pool entries never add binding choices (the heuristic's
    // stable score sort and the exhaustive odometer both keep the first).
    std::unordered_set<Endpoint, EndpointHash> seen;
    std::vector<Endpoint> unique;
    for (const Endpoint& e : decl.values) {
      if (seen.insert(e).second) {
        unique.push_back(e);
      }
    }
    decl.values = std::move(unique);
    decl.value_spans.clear();
  }
  {
    // A later `requires` statement fully overwrites an earlier one for the
    // same variable (analysis.cc): keep only the last, then drop no-ops.
    std::unordered_set<std::string> seen;
    std::vector<Requirement> kept;
    for (auto it = canon.requirements.rbegin(); it != canon.requirements.rend(); ++it) {
      if (seen.insert(it->var).second) {
        kept.push_back(*it);
      }
    }
    std::reverse(kept.begin(), kept.end());
    canon.requirements = std::move(kept);
  }
  canon.requirements.erase(
      std::remove_if(canon.requirements.begin(), canon.requirements.end(),
                     [](const Requirement& req) {
                       return req.cpu_cores <= 0 && req.memory <= 0;
                     }),
      canon.requirements.end());

  // ---- Group-constraint normalization ----
  // Compilation folds every member's constant rate (and deadline) into one
  // per-group minimum, so where the constraint is written is unobservable.
  // Strip them before computing the flow order (two queries differing only
  // in constraint placement must order identically), remember the per-group
  // minima, and re-attach each to one canonical member afterwards.
  using GroupMinima = std::vector<std::optional<double>>;  // One per chain group.
  GroupMinima group_rate(graph.num_groups());  // Bytes/sec, as written.
  GroupMinima group_deadline(graph.num_groups());
  for (int i = 0; i < n; ++i) {
    FlowDef& flow = canon.flows[i];
    auto strip = [&](Attr attr, GroupMinima* tightest) {
      for (auto it = flow.attrs.begin(); it != flow.attrs.end();) {
        if (it->attr == attr && IsConstantExpr(*it->value)) {
          const double value = EvalConstant(*it->value);
          std::optional<double>& entry = (*tightest)[graph.group(i)];
          entry = entry.has_value() ? std::min(*entry, value) : value;
          it = flow.attrs.erase(it);
        } else {
          ++it;
        }
      }
    };
    strip(Attr::kRate, &group_rate);
    strip(Attr::kEnd, &group_deadline);
  }

  // ---- Canonical flow order: WL-style refinement over the ref graph ----
  std::unordered_map<std::string, int> var_slot;
  for (const VarDecl& decl : canon.variables) {
    for (const std::string& name : decl.names) {
      var_slot.emplace(name, static_cast<int>(var_slot.size()));
    }
  }
  // Referrers of each flow, over the references the working copy kept.
  std::vector<std::vector<int>> incoming_of(n);
  for (int i = 0; i < n; ++i) {
    for (const AttrValue& av : canon.flows[i].attrs) {
      refs.clear();
      CollectFlowRefs(*av.value, &refs);
      for (const Expr* ref : refs) {
        incoming_of[graph.Find(ref->ref_flow)].push_back(i);
      }
    }
  }
  std::vector<uint64_t> key(n, 0);
  const int rounds = std::min(n, 64) + 1;
  for (int round = 0; round < rounds; ++round) {
    std::vector<uint64_t> next(n);
    for (int i = 0; i < n; ++i) {
      std::vector<uint64_t> incoming;
      incoming.reserve(incoming_of[i].size());
      for (const int r : incoming_of[i]) {
        incoming.push_back(key[r]);
      }
      next[i] = FlowSignature(canon.flows[i], var_slot, graph, key, std::move(incoming));
    }
    key = std::move(next);
  }
  std::vector<int> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&key](int a, int b) { return key[a] < key[b]; });

  // Re-attach each group's tightest constraint to its first member (in
  // canonical order) lacking that attribute.
  auto attach = [&](GroupMinima& tightest, Attr attr) {
    for (const int i : order) {
      std::optional<double>& value = tightest[graph.group(i)];
      if (!value.has_value() || canon.flows[i].FindAttr(attr) != nullptr) {
        continue;
      }
      std::vector<AttrValue>& attrs = canon.flows[i].attrs;
      attrs.push_back(AttrValue{attr, Expr::Literal(*value), Span{}});
      std::sort(attrs.begin(), attrs.end(), [](const AttrValue& a, const AttrValue& b) {
        return static_cast<int>(a.attr) < static_cast<int>(b.attr);
      });
      value.reset();
    }
  };
  attach(group_rate, Attr::kRate);
  attach(group_deadline, Attr::kEnd);

  // ---- Alpha-renaming ----
  // Fresh names must not collide with address identifiers (an endpoint
  // token resolves to a variable only when one of that name is declared, so
  // renaming a variable onto an in-use address string would capture it).
  std::unordered_set<std::string> taken{"disk"};
  for (const VarDecl& decl : canon.variables) {
    for (const Endpoint& e : decl.values) {
      if (e.kind == Endpoint::Kind::kAddress) {
        taken.insert(e.name);
      }
    }
  }
  for (const FlowDef& flow : canon.flows) {
    for (const Endpoint* e : {&flow.src, &flow.dst}) {
      if (e->kind == Endpoint::Kind::kAddress) {
        taken.insert(e->name);
      }
    }
  }
  auto fresh = [&taken](const char* prefix, int* counter) {
    std::string name;
    do {
      name = prefix + std::to_string((*counter)++);
    } while (taken.count(name) > 0);
    return name;
  };

  CanonicalQuery result;
  std::unordered_map<std::string, std::string> var_rename;
  int var_counter = 0;
  for (const VarDecl& decl : canon.variables) {
    for (const std::string& name : decl.names) {
      const std::string canonical = fresh("v", &var_counter);
      var_rename.emplace(name, canonical);
      result.variable_map.emplace_back(name, canonical);
    }
  }

  // Referenced flows need stable names; unreferenced flow names are
  // unobservable and drop to the parser's positional auto-name.
  std::vector<std::string> flow_rename(n);  // By statement position.
  int flow_counter = 0;
  for (int pos = 0; pos < n; ++pos) {
    const int i = order[pos];
    const bool referenced = !incoming_of[i].empty();
    flow_rename[i] = referenced ? fresh("f", &flow_counter) : "_f" + std::to_string(pos + 1);
    canon.flows[i].explicit_name = referenced;
  }
  // flow_map entries in original statement order (the certificate's
  // contract), regardless of the canonical order they were assigned in.
  for (int i = 0; i < n; ++i) {
    result.flow_map.emplace_back(query.flows[i].name, flow_rename[i]);
  }

  auto rename_expr = [&](const ExprPtr& root) {
    // Iterative walk; expressions are tiny but avoid recursion-by-habit.
    std::vector<Expr*> stack{root.get()};
    while (!stack.empty()) {
      Expr* e = stack.back();
      stack.pop_back();
      if (e->kind == Expr::Kind::kRef) {
        e->ref_flow = flow_rename[graph.Find(e->ref_flow)];
      } else if (e->kind == Expr::Kind::kBinary) {
        stack.push_back(e->lhs.get());
        stack.push_back(e->rhs.get());
      }
    }
  };
  for (int i = 0; i < n; ++i) {
    FlowDef& flow = canon.flows[i];
    flow.name = flow_rename[i];
    for (Endpoint* e : {&flow.src, &flow.dst}) {
      if (e->kind == Endpoint::Kind::kVariable) {
        e->name = var_rename.at(e->name);
      }
    }
    for (AttrValue& av : flow.attrs) {
      rename_expr(av.value);
    }
  }
  for (VarDecl& decl : canon.variables) {
    for (std::string& name : decl.names) {
      name = var_rename.at(name);
    }
  }
  for (Requirement& req : canon.requirements) {
    const auto it = var_rename.find(req.var);
    if (it != var_rename.end()) {
      req.var = it->second;
    }
  }

  // ---- Canonical statement order ----
  std::vector<FlowDef> ordered;
  ordered.reserve(canon.flows.size());
  for (const int i : order) {
    ordered.push_back(std::move(canon.flows[i]));
  }
  canon.flows = std::move(ordered);
  std::stable_sort(canon.requirements.begin(), canon.requirements.end(),
            [&var_slot, &var_rename](const Requirement& a, const Requirement& b) {
              auto slot = [&](const std::string& canonical_name) {
                // Requirements were renamed above; recover the slot via the
                // rename map (small maps, linear is fine).
                for (const auto& [original, canonical] : var_rename) {
                  if (canonical == canonical_name) {
                    const auto it = var_slot.find(original);
                    return it != var_slot.end() ? it->second : -1;
                  }
                }
                return -1;
              };
              return slot(a.var) < slot(b.var);
            });

  result.query = std::move(canon);
  result.text = result.query.ToString();
  result.hash = ContentHash(result.text);
  return result;
}

bool Equivalent(const Query& a, const Query& b) {
  const Result<CanonicalQuery> ca = Canonicalize(a);
  if (!ca.ok()) {
    return false;
  }
  const Result<CanonicalQuery> cb = Canonicalize(b);
  if (!cb.ok()) {
    return false;
  }
  return ca.value().text == cb.value().text;
}

}  // namespace lang
}  // namespace cloudtalk
