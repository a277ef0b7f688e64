// Tests for semantic query canonicalization (src/lang/canon).
//
// Targeted sections pin each normalization rule (alpha-renaming, constant
// folding, flow reordering, dead clauses, group-constraint placement) with
// a pair of equivalent spellings; the property sections drive a seeded
// random query generator through three laws: parse/print round-tripping
// (printing a parsed query and reparsing yields an identical AST),
// canonicalization idempotence (canon(canon(q)) == canon(q)), and
// equivalence preservation under semantics-preserving mutations.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <random>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/lang/canon.h"
#include "src/lang/diagnostics.h"
#include "src/lang/facts.h"
#include "src/lang/lint.h"
#include "src/lang/parser.h"

namespace cloudtalk {
namespace lang {
namespace {

Query MustParse(const std::string& source) {
  DiagnosticSink sink;
  Query query = ParseWithDiagnostics(source, &sink);
  EXPECT_FALSE(sink.has_errors()) << source;
  return query;
}

CanonicalQuery MustCanon(const std::string& source) {
  Result<CanonicalQuery> canon = Canonicalize(MustParse(source));
  EXPECT_TRUE(canon.ok()) << source;
  return std::move(canon).value();
}

// ---- Structural AST equality (spans ignored) ----

bool ExprEq(const Expr& a, const Expr& b) {
  if (a.kind != b.kind) {
    return false;
  }
  switch (a.kind) {
    case Expr::Kind::kLiteral: {
      // Bitwise: canonical equality must not conflate 0.0 with -0.0 etc.
      return std::memcmp(&a.literal, &b.literal, sizeof(double)) == 0;
    }
    case Expr::Kind::kRef:
      return a.ref_attr == b.ref_attr && a.ref_flow == b.ref_flow;
    case Expr::Kind::kBinary:
      return a.op == b.op && ExprEq(*a.lhs, *b.lhs) && ExprEq(*a.rhs, *b.rhs);
  }
  return false;
}

bool QueryEq(const Query& a, const Query& b) {
  if (a.variables.size() != b.variables.size() || a.flows.size() != b.flows.size() ||
      a.requirements.size() != b.requirements.size()) {
    return false;
  }
  for (size_t i = 0; i < a.variables.size(); ++i) {
    if (a.variables[i].names != b.variables[i].names ||
        !(a.variables[i].values == b.variables[i].values)) {
      return false;
    }
  }
  for (size_t i = 0; i < a.requirements.size(); ++i) {
    const Requirement& ra = a.requirements[i];
    const Requirement& rb = b.requirements[i];
    if (ra.var != rb.var || ra.cpu_cores != rb.cpu_cores || ra.memory != rb.memory) {
      return false;
    }
  }
  for (size_t i = 0; i < a.flows.size(); ++i) {
    const FlowDef& fa = a.flows[i];
    const FlowDef& fb = b.flows[i];
    if (fa.name != fb.name || fa.explicit_name != fb.explicit_name ||
        !(fa.src == fb.src) || !(fa.dst == fb.dst) || fa.attrs.size() != fb.attrs.size()) {
      return false;
    }
    for (size_t j = 0; j < fa.attrs.size(); ++j) {
      if (fa.attrs[j].attr != fb.attrs[j].attr ||
          !ExprEq(*fa.attrs[j].value, *fb.attrs[j].value)) {
        return false;
      }
    }
  }
  const QueryOptions& oa = a.options;
  const QueryOptions& ob = b.options;
  return oa.use_packet_simulator == ob.use_packet_simulator &&
         oa.use_dynamic_load == ob.use_dynamic_load &&
         oa.allow_same_binding == ob.allow_same_binding && oa.reserve == ob.reserve &&
         oa.eval_threads == ob.eval_threads && oa.optimize == ob.optimize;
}

// ---- Targeted normalization rules ----

TEST(Canon, AlphaRenamingConverges) {
  const CanonicalQuery a = MustCanon(
      "A = (vm1 vm2)\n"
      "B = (vm3)\n"
      "copy A -> B size 64M\n");
  const CanonicalQuery b = MustCanon(
      "X = (vm1 vm2)\n"
      "Y = (vm3)\n"
      "shuffle X -> Y size 64M\n");
  EXPECT_EQ(a.text, b.text);
  EXPECT_EQ(a.hash, b.hash);
  EXPECT_NE(a.text.find("v0"), std::string::npos);
  EXPECT_NE(a.text.find("v1"), std::string::npos);
  // Unreferenced flow names are unobservable and dropped.
  EXPECT_EQ(a.text.find("copy"), std::string::npos);
}

TEST(Canon, ConstantFoldingAndUnits) {
  const CanonicalQuery folded = MustCanon("vm1 -> vm2 size 64M\n");
  EXPECT_EQ(folded.text, MustCanon("vm1 -> vm2 size 2*32M\n").text);
  EXPECT_EQ(folded.text, MustCanon("vm1 -> vm2 size 65536K\n").text);
  EXPECT_EQ(folded.text, MustCanon("vm1 -> vm2 size 32M + 16M + 16M\n").text);
}

TEST(Canon, FlowReorderConverges) {
  const CanonicalQuery a = MustCanon(
      "vm1 -> vm2 size 1M\n"
      "vm3 -> vm4 size 2M\n");
  const CanonicalQuery b = MustCanon(
      "vm3 -> vm4 size 2M\n"
      "vm1 -> vm2 size 1M\n");
  EXPECT_EQ(a.text, b.text);
  EXPECT_EQ(a.hash, b.hash);
}

TEST(Canon, ReorderWithReferencesConverges) {
  const CanonicalQuery a = MustCanon(
      "w vm1 -> vm2 size 8M\n"
      "vm2 -> vm3 transfer t(w)\n");
  const CanonicalQuery b = MustCanon(
      "vm2 -> vm3 transfer t(w)\n"
      "w vm1 -> vm2 size 8M\n");
  EXPECT_EQ(a.text, b.text);
}

TEST(Canon, DeadClausesEliminated) {
  const CanonicalQuery clean = MustCanon(
      "A = (vm1 vm2)\n"
      "A -> vm3 size 1M\n");
  const CanonicalQuery noisy = MustCanon(
      "A = (vm1 vm2 vm1 vm2)\n"
      "A -> vm3 size 1M start 0\n");
  EXPECT_EQ(clean.text, noisy.text);
}

TEST(Canon, PoolDedupKeepsFirstOccurrenceOrder) {
  // A 20 000-host pool shared by A, B and C with three repeats inserted
  // (vm5 twice more, vm7 once more): the canonical pool keeps each host
  // once, in first-occurrence order.
  constexpr int kHosts = 20000;
  std::string source = "A = B = C = (";
  for (int i = 0; i < kHosts; ++i) {
    source += (i == 0 ? "vm" : " vm") + std::to_string(i);
    if (i == 100 || i == 10000) {
      source += " vm5";
    }
  }
  source += " vm7)\nf1 A -> B size 1M\nf2 B -> C size 1M\n";
  const CanonicalQuery canon = MustCanon(source);
  ASSERT_EQ(canon.query.variables.size(), 1u);
  const std::vector<Endpoint>& pool = canon.query.variables[0].values;
  ASSERT_EQ(pool.size(), static_cast<size_t>(kHosts));
  for (int i = 0; i < kHosts; ++i) {
    ASSERT_TRUE(pool[i] == Endpoint::Address("vm" + std::to_string(i)))
        << "entry " << i << " is " << pool[i].ToString();
  }
}

TEST(Canon, LastRequirementWins) {
  // The parser rejects duplicate `requires` statements (E002), but
  // programmatic queries can carry them; compilation lets the last one win.
  Query duplicated = MustParse(
      "A = (vm1 vm2)\n"
      "A requires cpu 2\n"
      "A -> vm3 size 1M\n");
  Requirement override_req = duplicated.requirements[0];
  override_req.cpu_cores = 4;
  duplicated.requirements.push_back(override_req);
  Result<CanonicalQuery> a = Canonicalize(duplicated);
  ASSERT_TRUE(a.ok());
  const CanonicalQuery b = MustCanon(
      "A = (vm1 vm2)\n"
      "A requires cpu 4\n"
      "A -> vm3 size 1M\n");
  EXPECT_EQ(a.value().text, b.text);
}

TEST(Canon, GroupConstraintPlacementConverges) {
  // The rate limit may be written on any member of the chain group; the
  // compiler takes the per-group minimum either way.
  const CanonicalQuery on_head = MustCanon(
      "w vm1 -> vm2 size 8M rate 10M\n"
      "vm2 -> vm3 transfer t(w)\n");
  const CanonicalQuery on_tail = MustCanon(
      "w vm1 -> vm2 size 8M\n"
      "vm2 -> vm3 transfer t(w) rate 10M\n");
  EXPECT_EQ(on_head.text, on_tail.text);
}

TEST(Canon, SubsumedDeadlineDropped) {
  const CanonicalQuery tight = MustCanon(
      "w vm1 -> vm2 size 8M end 10\n"
      "vm2 -> vm3 transfer t(w)\n");
  const CanonicalQuery subsumed = MustCanon(
      "w vm1 -> vm2 size 8M end 10\n"
      "vm2 -> vm3 transfer t(w) end 20\n");
  EXPECT_EQ(tight.text, subsumed.text);
}

TEST(Canon, DistinctQueriesStayDistinct) {
  EXPECT_NE(MustCanon("vm1 -> vm2 size 1M\n").text, MustCanon("vm1 -> vm2 size 2M\n").text);
  EXPECT_NE(MustCanon("vm1 -> vm2 size 1M\n").text, MustCanon("vm1 -> vm3 size 1M\n").text);
  EXPECT_NE(MustCanon("A = (vm1)\nA -> vm2 size 1M\n").text,
            MustCanon("A = (vm3)\nA -> vm2 size 1M\n").text);
  EXPECT_FALSE(Equivalent(MustParse("vm1 -> vm2 size 1M\n"), MustParse("vm1 -> vm2 size 2M\n")));
}

TEST(Canon, OptionsAreSignificant) {
  EXPECT_NE(MustCanon("vm1 -> vm2 size 1M\n").text,
            MustCanon("option static\nvm1 -> vm2 size 1M\n").text);
}

TEST(Canon, CertificateMapsNames) {
  const CanonicalQuery canon = MustCanon(
      "Alpha = (vm1 vm2)\n"
      "w vm3 -> vm4 size 4M\n"
      "Alpha -> vm5 size sz(w)\n");
  ASSERT_EQ(canon.variable_map.size(), 1u);
  EXPECT_EQ(canon.variable_map[0].first, "Alpha");
  EXPECT_EQ(canon.variable_map[0].second, "v0");
  ASSERT_EQ(canon.flow_map.size(), 2u);
  EXPECT_EQ(canon.flow_map[0].first, "w");
  const std::string* original = canon.OriginalVariable("v0");
  ASSERT_NE(original, nullptr);
  EXPECT_EQ(*original, "Alpha");
  EXPECT_EQ(canon.OriginalVariable("v9"), nullptr);
  const std::string* flow = canon.OriginalFlow(canon.flow_map[0].second);
  ASSERT_NE(flow, nullptr);
  EXPECT_EQ(*flow, "w");
}

TEST(Canon, FreshNamesAvoidAddressCapture) {
  // An address literally named v0 must not be captured by the canonical
  // variable name (endpoint idents resolve to variables first).
  const CanonicalQuery canon = MustCanon(
      "Worker = (vm1 v0)\n"
      "Worker -> v0 size 1M\n");
  ASSERT_EQ(canon.variable_map.size(), 1u);
  EXPECT_NE(canon.variable_map[0].second, "v0");
}

TEST(Canon, RejectsAmbiguousQueries) {
  Query dup_var;
  VarDecl decl;
  decl.names = {"A", "A"};
  decl.values = {Endpoint::Address("vm1")};
  dup_var.variables.push_back(decl);
  EXPECT_FALSE(Canonicalize(dup_var).ok());

  Query dup_flow = MustParse("vm1 -> vm2 size 1M\nvm1 -> vm3 size 1M\n");
  dup_flow.flows[1].name = dup_flow.flows[0].name;
  EXPECT_FALSE(Canonicalize(dup_flow).ok());

  Query bad_ref = MustParse("vm1 -> vm2 size 1M\n");
  bad_ref.flows[0].attrs[0].value = Expr::Ref(Attr::kSize, "nosuch");
  EXPECT_FALSE(Canonicalize(bad_ref).ok());
}

TEST(Canon, LiteralPrintingRoundTrips) {
  // Canonical-text equality relies on distinct doubles printing distinctly.
  const double values[] = {1.0 / 3.0,       2.5,   1e-4, 123456789.25,
                           1024.0 * 3 + 1,  0.125, 7.0,  64.0 * 1024 * 1024};
  for (const double v : values) {
    const std::string text = Expr::Literal(v)->ToString();
    double reparsed = 0;
    if (text.back() == 'K' || text.back() == 'M' || text.back() == 'G') {
      const double scale = text.back() == 'K'   ? 1024.0
                           : text.back() == 'M' ? 1024.0 * 1024.0
                                                : 1024.0 * 1024.0 * 1024.0;
      reparsed = std::strtod(text.substr(0, text.size() - 1).c_str(), nullptr) * scale;
    } else {
      reparsed = std::strtod(text.c_str(), nullptr);
    }
    EXPECT_EQ(reparsed, v) << text;
  }
  EXPECT_NE(Expr::Literal(1.0 / 3.0)->ToString(),
            Expr::Literal(std::nextafter(1.0 / 3.0, 1.0))->ToString());
}

// ---- Seeded random query generator ----

class Gen {
 public:
  explicit Gen(uint32_t seed) : rng_(seed) {}

  int Int(int lo, int hi) { return std::uniform_int_distribution<int>(lo, hi)(rng_); }
  bool Chance(int denom) { return Int(1, denom) == 1; }

  Query Query_() {
    Query q;
    if (Chance(5)) {
      q.options.use_dynamic_load = false;
    }
    if (Chance(5)) {
      q.options.allow_same_binding = true;
    }
    if (Chance(5)) {
      q.options.reserve = false;
    }
    if (Chance(5)) {
      q.options.eval_threads = Int(1, 4);
    }
    if (Chance(5)) {
      q.options.optimize = Chance(2) ? 1 : -1;
    }

    const char* var_names[] = {"A", "B", "C"};
    const int num_vars = Int(0, 3);
    for (int v = 0; v < num_vars; ++v) {
      VarDecl decl;
      decl.names = {var_names[v]};
      const int pool = Int(1, 4);
      for (int p = 0; p < pool; ++p) {
        Endpoint e = Endpoint::Address("h" + std::to_string(Int(0, 5)));
        if (std::find(decl.values.begin(), decl.values.end(), e) == decl.values.end()) {
          decl.values.push_back(e);
        }
      }
      q.variables.push_back(std::move(decl));
      if (Chance(4)) {
        Requirement req;
        req.var = var_names[v];
        req.cpu_cores = Int(0, 4);
        req.memory = Chance(2) ? Int(1, 8) * 1024.0 * 1024.0 * 1024.0 : 0;
        if (req.cpu_cores > 0 || req.memory > 0) {
          q.requirements.push_back(req);
        }
      }
    }

    const int num_flows = Int(1, 5);
    std::vector<std::string> named;
    for (int f = 0; f < num_flows; ++f) {
      FlowDef flow;
      if (Chance(2)) {
        flow.name = "w" + std::to_string(f);
        flow.explicit_name = true;
      } else {
        flow.name = "_f" + std::to_string(f + 1);
        flow.explicit_name = false;
      }
      flow.src = Endpoint_(num_vars, /*allow_disk=*/false);
      flow.dst = Endpoint_(num_vars, /*allow_disk=*/true);
      // size: literal, arithmetic, or a reference to an earlier named flow.
      if (!named.empty() && Chance(4)) {
        flow.attrs.push_back(AttrValue{
            Attr::kSize,
            Expr::Ref(Attr::kSize, named[Int(0, static_cast<int>(named.size()) - 1)]), Span{}});
      } else if (Chance(4)) {
        flow.attrs.push_back(AttrValue{
            Attr::kSize,
            Expr::Binary(Chance(2) ? '+' : '*', SizeLiteral(), Expr::Literal(Int(1, 4))),
            Span{}});
      } else {
        flow.attrs.push_back(AttrValue{Attr::kSize, SizeLiteral(), Span{}});
      }
      if (!named.empty() && Chance(4)) {
        flow.attrs.push_back(AttrValue{
            Attr::kTransfer,
            Expr::Ref(Attr::kTransfer, named[Int(0, static_cast<int>(named.size()) - 1)]),
            Span{}});
      }
      if (Chance(3)) {
        flow.attrs.push_back(
            AttrValue{Attr::kRate, Expr::Literal(Int(1, 100) * 1024.0 * 1024.0), Span{}});
      }
      if (Chance(4)) {
        flow.attrs.push_back(AttrValue{Attr::kStart, Expr::Literal(Int(0, 10)), Span{}});
      }
      if (Chance(4)) {
        flow.attrs.push_back(AttrValue{Attr::kEnd, Expr::Literal(Int(5, 60)), Span{}});
      }
      if (flow.explicit_name) {
        named.push_back(flow.name);
      }
      q.flows.push_back(std::move(flow));
    }
    return q;
  }

  // ---- Semantics-preserving mutations ----

  // Alpha-renames variables and explicitly named flows in place.
  static void RenameInPlace(Query* q) {
    for (VarDecl& decl : q->variables) {
      for (std::string& name : decl.names) {
        name += "r";
      }
    }
    for (Requirement& req : q->requirements) {
      req.var += "r";
    }
    std::vector<Expr*> exprs;
    for (FlowDef& flow : q->flows) {
      if (flow.explicit_name) {
        flow.name += "r";
      }
      for (Endpoint* e : {&flow.src, &flow.dst}) {
        if (e->kind == Endpoint::Kind::kVariable) {
          e->name += "r";
        }
      }
      for (AttrValue& av : flow.attrs) {
        exprs.push_back(av.value.get());
      }
    }
    while (!exprs.empty()) {
      Expr* e = exprs.back();
      exprs.pop_back();
      if (e->kind == Expr::Kind::kRef) {
        e->ref_flow += "r";
      } else if (e->kind == Expr::Kind::kBinary) {
        exprs.push_back(e->lhs.get());
        exprs.push_back(e->rhs.get());
      }
    }
  }

  void Mutate(Query* q) {
    switch (Int(0, 4)) {
      case 0:
        RenameInPlace(q);
        break;
      case 1:  // Shuffle flow statement order.
        std::shuffle(q->flows.begin(), q->flows.end(), rng_);
        break;
      case 2: {  // Unfold a literal: L becomes (L * 1), bit-identical refold.
        std::vector<ExprPtr*> literals;
        for (FlowDef& flow : q->flows) {
          for (AttrValue& av : flow.attrs) {
            CollectLiterals(&av.value, &literals);
          }
        }
        if (!literals.empty()) {
          ExprPtr* slot = literals[Int(0, static_cast<int>(literals.size()) - 1)];
          *slot = Expr::Binary('*', std::move(*slot), Expr::Literal(1));
        }
        break;
      }
      case 3:  // Duplicate a pool entry.
        if (!q->variables.empty()) {
          VarDecl& decl = q->variables[Int(0, static_cast<int>(q->variables.size()) - 1)];
          decl.values.push_back(decl.values[Int(0, static_cast<int>(decl.values.size()) - 1)]);
        }
        break;
      case 4: {  // Insert a dead clause.
        FlowDef& flow = q->flows[Int(0, static_cast<int>(q->flows.size()) - 1)];
        const Attr choices[] = {Attr::kStart, Attr::kRate, Attr::kEnd};
        const Attr attr = choices[Int(0, 2)];
        if (flow.FindAttr(attr) == nullptr) {
          const double value = attr == Attr::kStart ? 0.0 : (attr == Attr::kRate ? 0.0 : -3.0);
          flow.attrs.push_back(AttrValue{attr, Expr::Literal(value), Span{}});
        }
        break;
      }
    }
  }

 private:
  Endpoint Endpoint_(int num_vars, bool allow_disk) {
    const char* var_names[] = {"A", "B", "C"};
    if (num_vars > 0 && Chance(2)) {
      return Endpoint::Variable(var_names[Int(0, num_vars - 1)]);
    }
    if (allow_disk && Chance(6)) {
      return Endpoint::Disk();
    }
    if (Chance(8)) {
      return Endpoint::Address("10.0.0." + std::to_string(Int(1, 9)));
    }
    return Endpoint::Address("h" + std::to_string(Int(0, 5)));
  }

  ExprPtr SizeLiteral() {
    const double units[] = {1024.0, 1024.0 * 1024.0, 1024.0 * 1024.0 * 1024.0};
    return Expr::Literal(Int(1, 512) * units[Int(0, 2)]);
  }

  static void CollectLiterals(ExprPtr* expr, std::vector<ExprPtr*>* out) {
    if ((*expr)->kind == Expr::Kind::kLiteral) {
      out->push_back(expr);
    } else if ((*expr)->kind == Expr::Kind::kBinary) {
      CollectLiterals(&(*expr)->lhs, out);
      CollectLiterals(&(*expr)->rhs, out);
    }
  }

  std::mt19937 rng_;
};

// Query holds unique_ptr expressions and is not copyable; print-and-reparse
// is a faithful deep copy (the ParserRoundTrip property below proves it).
Query CloneForMutation(const Query& query) {
  DiagnosticSink sink;
  Query clone = ParseWithDiagnostics(query.ToString(), &sink);
  EXPECT_FALSE(sink.has_errors());
  return clone;
}

// ---- Properties ----

TEST(CanonProperty, ParserRoundTrip) {
  for (uint32_t seed = 1; seed <= 200; ++seed) {
    Gen gen(seed);
    const Query original = gen.Query_();
    const std::string printed = original.ToString();
    DiagnosticSink sink;
    const Query reparsed = ParseWithDiagnostics(printed, &sink);
    ASSERT_FALSE(sink.has_errors()) << "seed " << seed << "\n" << printed;
    EXPECT_TRUE(QueryEq(original, reparsed)) << "seed " << seed << "\n" << printed;
    EXPECT_EQ(printed, reparsed.ToString()) << "seed " << seed;
  }
}

TEST(CanonProperty, Idempotence) {
  for (uint32_t seed = 1; seed <= 200; ++seed) {
    Gen gen(seed);
    const Query query = gen.Query_();
    Result<CanonicalQuery> first = Canonicalize(query);
    ASSERT_TRUE(first.ok()) << "seed " << seed;
    Result<CanonicalQuery> second = Canonicalize(first.value().query);
    ASSERT_TRUE(second.ok()) << "seed " << seed;
    EXPECT_EQ(first.value().text, second.value().text)
        << "seed " << seed << "\n" << query.ToString();
    EXPECT_EQ(first.value().hash, second.value().hash) << "seed " << seed;
    // The canonical form of a canonical query maps every name to itself.
    for (const auto& [original, canonical] : second.value().variable_map) {
      EXPECT_EQ(original, canonical) << "seed " << seed;
    }
  }
}

// Clears every source position, as a query built by hand has none.
void StripSpans(Query* q) {
  for (VarDecl& decl : q->variables) {
    decl.span = {};
    decl.name_spans.clear();
    decl.value_spans.clear();
  }
  for (Requirement& req : q->requirements) {
    req.span = {};
  }
  std::vector<Expr*> exprs;
  for (FlowDef& flow : q->flows) {
    flow.span = flow.src_span = flow.dst_span = {};
    for (AttrValue& av : flow.attrs) {
      av.span = {};
      exprs.push_back(av.value.get());
    }
  }
  while (!exprs.empty()) {
    Expr* e = exprs.back();
    exprs.pop_back();
    e->span = {};
    if (e->kind == Expr::Kind::kBinary) {
      exprs.push_back(e->lhs.get());
      exprs.push_back(e->rhs.get());
    }
  }
}

// What the name-id readers make of a query: each compiled variable's pool
// and peers, the footprint and excluded hosts, and the lint findings.
std::string FactsDigest(const Query& query) {
  const QueryFacts facts(query);
  std::string out;
  const auto list = [&out](std::span<const Endpoint> endpoints) {
    for (const Endpoint& e : endpoints) {
      out += " " + e.ToString();
    }
    out += ";";
  };
  if (facts.compiled().ok()) {
    for (const VarComm& var : facts.compiled().value().variables()) {
      out += var.name + ":";
      list(var.pool);
      list(var.rx_from);
      list(var.tx_to);
      out += "\n";
    }
    for (const ScopeHost& host : facts.scope().footprint) {
      out += host.address + "=" + std::to_string(host.fields) + (host.candidate ? "c" : "") +
             (host.endpoint ? "e" : "") + "\n";
    }
    for (const std::string& host : facts.scope().excluded) {
      out += "excluded " + host + "\n";
    }
  }
  DiagnosticSink sink;
  RunLint(facts, &sink);
  for (const Diagnostic& d : sink.diagnostics()) {
    out += d.code + " " + d.message + "\n";
  }
  return out;
}

// The name table is derived from the Query, not stored in it by the
// parser: a query built by hand, and one renamed in place after parsing,
// compile, scope and lint as their printed-and-reparsed twins do.
TEST(CanonProperty, HandBuiltAndRenamedQueriesReadAsTheirParse) {
  for (uint32_t seed = 1; seed <= 200; ++seed) {
    Gen gen(seed);
    const Query built = gen.Query_();
    Query renamed = CloneForMutation(built);
    Gen::RenameInPlace(&renamed);
    StripSpans(&renamed);
    for (const Query* query : {&built, static_cast<const Query*>(&renamed)}) {
      Query parsed = MustParse(query->ToString());
      StripSpans(&parsed);
      EXPECT_EQ(FactsDigest(*query), FactsDigest(parsed)) << "seed " << seed << "\n"
                                                          << query->ToString();
    }
  }
}

TEST(CanonProperty, MutationEquivalence) {
  for (uint32_t seed = 1; seed <= 200; ++seed) {
    Gen gen(seed);
    const Query original = gen.Query_();
    Query mutated = CloneForMutation(original);
    const int mutations = gen.Int(1, 3);
    for (int m = 0; m < mutations; ++m) {
      gen.Mutate(&mutated);
    }
    EXPECT_TRUE(Equivalent(original, mutated))
        << "seed " << seed << "\noriginal:\n" << original.ToString() << "mutated:\n"
        << mutated.ToString();
  }
}

}  // namespace
}  // namespace lang
}  // namespace cloudtalk
