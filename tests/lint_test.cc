// Tests for the diagnostics engine and lint rules (ctlint's core).
//
// The table-driven section pairs one triggering and one clean query per rule
// code; the rest covers parser recovery (multiple diagnostics per pass),
// position accuracy, clang-style rendering, JSON output, and the legacy
// Result<T> wrappers.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/lang/analysis.h"
#include "src/lang/diagnostics.h"
#include "src/lang/lexer.h"
#include "src/lang/lint.h"
#include "src/lang/parser.h"

namespace cloudtalk {
namespace lang {
namespace {

// Full pipeline as ctlint runs it: parse (with recovery), lint, and — when
// the query has no errors yet — semantic compilation.
DiagnosticSink Analyze(const std::string& source) {
  DiagnosticSink sink;
  const Query query = ParseWithDiagnostics(source, &sink);
  RunLint(QueryFacts(query), &sink);
  if (!sink.has_errors()) {
    (void)CompiledQuery::Compile(query, &sink);
  }
  sink.SortByPosition();
  return sink;
}

bool HasCode(const DiagnosticSink& sink, const std::string& code) {
  const auto& diags = sink.diagnostics();
  return std::any_of(diags.begin(), diags.end(),
                     [&](const Diagnostic& d) { return d.code == code; });
}

const Diagnostic* FindCode(const DiagnosticSink& sink, const std::string& code) {
  for (const Diagnostic& d : sink.diagnostics()) {
    if (d.code == code) {
      return &d;
    }
  }
  return nullptr;
}

std::string BigPool(int n) {
  std::string pool = "(";
  for (int i = 0; i < n; ++i) {
    pool += "vm" + std::to_string(i);
    pool.push_back(i + 1 < n ? ' ' : ')');
  }
  return pool;
}

// ---- Table-driven: one triggering / one clean query per rule code ----

struct RuleCase {
  const char* code;
  std::string bad;   // Must produce a diagnostic with `code`.
  std::string good;  // Must not.
};

std::vector<RuleCase> RuleCases() {
  return {
      {"W001",
       "A = (vm1 vm2)\nf1 vm3 -> vm4 size 1M\n",
       "A = (vm1 vm2)\nf1 A -> vm4 size 1M\n"},
      {"E010",
       "A = ()\nf1 A -> vm1 size 1M\n",
       "A = (vm1)\nf1 A -> vm2 size 1M\n"},
      {"W011",
       "A = (vm1 vm2 vm1)\nf1 A -> vm3 size 1M\n",
       "A = (vm1 vm2)\nf1 A -> vm3 size 1M\n"},
      {"W020",
       "f1 vm1 -> vm1 size 1M\n",
       "f1 vm1 -> vm2 size 1M\n"},
      {"E030",
       "f1 vm1 -> vm2 size sz(f2)\nf2 vm2 -> vm3 size sz(f1)\n",
       "f1 vm1 -> vm2 size 1M\nf2 vm2 -> vm3 size sz(f1)\n"},
      {"W040",
       "f1 vm1 -> vm2 size 1M transfer t(f2)\n"
       "f2 vm2 -> vm3 size 1M transfer t(f1)\n",
       "f1 vm1 -> vm2 size 1M\nf2 vm2 -> vm3 size 1M transfer t(f1)\n"},
      {"W050",
       "f1 vm1 -> vm2 size 1M rate 10M\nf2 vm2 -> vm3 size 1M rate r(f1)\n"
       "f3 vm3 -> vm4 size 1M rate 5M transfer t(f2)\n",
       "f1 vm1 -> vm2 size 1M rate 10M\nf2 vm2 -> vm3 size 1M rate r(f1)\n"},
      {"W060",
       "option packet\nA = B = C = " + BigPool(60) +
           "\nf1 A -> B size 1M\nf2 B -> C size 1M\n",
       // Same shape without `option packet`: the heuristic is linear, no
       // explosion to warn about.
       "A = B = C = " + BigPool(60) + "\nf1 A -> B size 1M\nf2 B -> C size 1M\n"},
      {"W070",
       // A and B share a pool and receive identical shards in one chain
       // group: swapping them never changes the traffic pattern.
       "option packet\nA = B = (vm1 vm2 vm3)\n"
       "f1 vm9 -> A size 1M rate 5M\nf2 vm9 -> B size 1M rate r(f1)\n",
       // Different shard sizes break the symmetry.
       "option packet\nA = B = (vm1 vm2 vm3)\n"
       "f1 vm9 -> A size 1M rate 5M\nf2 vm9 -> B size 2M rate r(f1)\n"},
      {"W071",
       "f1 vm1 -> vm2 size 0\n",
       "f1 vm1 -> vm2 size 1M\n"},
      {"E080",
       // The rate cap bounds the chain from below even on idle hosts; no
       // binding can beat size/rate, so the deadline is provably dead.
       "f1 vm1 -> vm2 size 10G rate 1M end 1\n",
       "f1 vm1 -> vm2 size 10G rate 1M\n"},
      {"W080",
       "f1 vm1 -> vm2 size 1M end 100\n",
       "f1 vm1 -> vm2 size 1M\n"},
      {"W081",
       // `big` never depends on the binding and dwarfs the variable group.
       "A = (vm1 vm2)\nbig vm8 -> vm9 size 10G\nsmall A -> vm3 size 1M\n",
       // Equal sizes: the variable group's upper bound exceeds big's lower
       // bound, so the objective is not provably pinned.
       "A = (vm1 vm2)\nbig vm8 -> vm9 size 1M\nsmall A -> vm3 size 1M\n"},
      {"W090",
       // Compilation takes the per-group minimum rate, so restating the
       // identical cap on a second chain member adds nothing.
       "w vm1 -> vm2 size 8M rate 10M\nvm2 -> vm3 transfer t(w) rate 10M\n",
       // A different value is a real (if redundant-looking) tightening and
       // belongs to W050's subsumption analysis, not W090.
       "w vm1 -> vm2 size 8M rate 10M\nvm2 -> vm3 transfer t(w) rate 5M\n"},
      {"W091",
       // Chained flows share one deadline and the earliest wins: 20s is
       // subsumed by the 10s on the first member.
       "w vm1 -> vm2 size 8M end 10\nvm2 -> vm3 transfer t(w) end 20\n",
       "w vm1 -> vm2 size 8M end 10\nvm2 -> vm3 transfer t(w)\n"},
      // W092 is batch-only (a per-query check cannot see earlier inputs);
      // the empty pair is skipped below and BatchEquivalenceTest covers it.
      {"W092", "", ""},
      {"W100",
       // A is inert: no flow, disk, or requirement ever reads its
       // candidates' status, so vm1/vm2 are outside every footprint.
       "A = (vm1 vm2)\nf1 vm3 -> vm4 size 1M\n",
       "A = (vm1 vm2)\nf1 A -> vm4 size 1M\n"},
      {"W101",
       // vm1 is pinned by f2 yet also a binding candidate of A on an
       // unrelated flow: the fixed footprint reaches into A's pool.
       "A = (vm1 vm2)\nB = (vm3 vm4)\nf1 A -> vm5 size 1M\nf2 B -> vm1 size 1M\n",
       // Priority binding (the literal is the pool variable's own peer on
       // the same flow) is the intentional shape and stays exempt.
       "A = (vm1 vm2)\nf1 A -> vm1 size 1M\n"},
  };
}

TEST(LintRuleTest, EachRuleFiresOnBadAndStaysQuietOnGood) {
  for (const RuleCase& c : RuleCases()) {
    SCOPED_TRACE(c.code);
    if (c.bad.empty()) {
      continue;  // Batch-only rule; see BatchEquivalenceTest.
    }
    const DiagnosticSink bad = Analyze(c.bad);
    const Diagnostic* d = FindCode(bad, c.code);
    ASSERT_NE(d, nullptr) << "rule " << c.code << " did not fire on:\n" << c.bad;
    EXPECT_TRUE(d->span.valid()) << c.code << " diagnostic has no position";
    EXPECT_FALSE(d->message.empty());

    const DiagnosticSink good = Analyze(c.good);
    EXPECT_FALSE(HasCode(good, c.code))
        << "rule " << c.code << " fired on clean query:\n" << c.good;
  }
}

TEST(LintRuleTest, RegistryCoversEveryDocumentedCode) {
  const std::vector<RuleCase> cases = RuleCases();
  const std::vector<LintRule>& rules = LintRules();
  ASSERT_EQ(rules.size(), cases.size());
  for (size_t i = 0; i < rules.size(); ++i) {
    EXPECT_STREQ(rules[i].code, cases[i].code);
    EXPECT_EQ(rules[i].severity,
              rules[i].code[0] == 'E' ? Severity::kError : Severity::kWarning);
    EXPECT_NE(rules[i].check, nullptr);
  }
}

// The facts build lint's idle-world bound only when a rule can fire on it:
// E080 and W080 need a finite `end` on some chain group, W081 a group that
// touches no variable. Each shape sits at its rule's guard, so a guard that
// skipped the bound one case too early fails here.
TEST(LintRuleTest, BoundRulesFireAtTheirGuards) {
  struct GuardCase {
    const char* code;
    std::string fires;
    std::string quiet;  // The same shape without `end`, or with the literal group shrunk.
  };
  const GuardCase cases[] = {
      {"E080",
       // Only the second of two chain groups carries `end`; the first binds A.
       "A = (vm4 vm5)\nf1 A -> vm3 size 1M\nf2 vm1 -> vm2 size 10G rate 1M end 1\n",
       "A = (vm4 vm5)\nf1 A -> vm3 size 1M\nf2 vm1 -> vm2 size 10G rate 1M\n"},
      {"W080",
       "A = (vm4 vm5)\nf1 A -> vm3 size 1M\nf2 vm1 -> vm2 size 1M end 100\n",
       "A = (vm4 vm5)\nf1 A -> vm3 size 1M\nf2 vm1 -> vm2 size 1M\n"},
      {"W081",
       // The pinned literal group beside two variable groups; no `end`.
       "A = (vm1 vm2)\nB = (vm4 vm5)\nbig vm8 -> vm9 size 10G\n"
       "f1 A -> vm3 size 1M\nf2 B -> vm6 size 1M\n",
       "A = (vm1 vm2)\nB = (vm4 vm5)\nbig vm8 -> vm9 size 1M\n"
       "f1 A -> vm3 size 1M\nf2 B -> vm6 size 1M\n"},
  };
  for (const GuardCase& c : cases) {
    SCOPED_TRACE(c.code);
    EXPECT_TRUE(HasCode(Analyze(c.fires), c.code)) << c.fires;
    EXPECT_FALSE(HasCode(Analyze(c.quiet), c.code)) << c.quiet;
  }
}

// W011 makes one pass per pool. A 20 000-host pool shared by A, B and C,
// with three repeats inserted (vm5 then appears three times, vm7 twice),
// reports exactly the three repeats at their own spans, in source order.
TEST(LintRuleTest, DuplicatePoolEntryReportsEachRepeatOnce) {
  constexpr int kHosts = 20000;
  // Each repeat is inserted right after the pool entry of the given index.
  const std::vector<std::pair<int, std::string>> repeats = {
      {100, "vm5"}, {10000, "vm5"}, {kHosts - 1, "vm7"}};
  std::string source = "A = B = C = (";
  std::vector<int> repeat_columns;
  size_t next = 0;
  for (int i = 0; i < kHosts; ++i) {
    source += (i == 0 ? "vm" : " vm") + std::to_string(i);
    for (; next < repeats.size() && repeats[next].first == i; ++next) {
      source += ' ';
      repeat_columns.push_back(static_cast<int>(source.size()) + 1);
      source += repeats[next].second;
    }
  }
  source += ")\nf1 A -> B size 1M\nf2 B -> C size 1M\n";

  DiagnosticSink sink;
  const Query query = ParseWithDiagnostics(source, &sink);
  ASSERT_FALSE(sink.has_errors());
  RunLint(QueryFacts(query), &sink);
  std::vector<const Diagnostic*> w011;
  for (const Diagnostic& d : sink.diagnostics()) {
    if (d.code == "W011") {
      w011.push_back(&d);
    }
  }
  ASSERT_EQ(w011.size(), repeats.size());
  for (size_t k = 0; k < repeats.size(); ++k) {
    EXPECT_EQ(w011[k]->span.line, 1);
    EXPECT_EQ(w011[k]->span.column, repeat_columns[k]);
    EXPECT_NE(w011[k]->message.find("'" + repeats[k].second + "'"), std::string::npos)
        << w011[k]->message;
  }
}

// The parser keeps a disk-to-disk flow (E005) in its partial AST, so lint's
// bound rules read it too: a deadline (E080/W080), or a literal group beside
// a variable group (W081), makes them build the idle-world bound over it,
// which must not crash.
TEST(LintTest, DiskToDiskFlowIsRejectedWithoutCrashing) {
  for (const char* source : {"f0 disk -> disk size 10G end 5\n",
                             "A = (vm1 vm2)\nf0 disk -> disk size 10G\nf1 A -> vm3 size 1M\n"}) {
    SCOPED_TRACE(source);
    EXPECT_TRUE(HasCode(Analyze(source), "E005"));
  }
}

// A chain of sz() or transfer t() references, listed back to front (each
// flow reads the next one down), resolves with no recursion per link: two
// 100 000-flow chains parse, lint through the facts and compile cleanly,
// every flow sized by the chain's last.
TEST(LintTest, HundredThousandFlowChainsCompileWithoutRecursion) {
  constexpr int kFlows = 100000;
  for (const char* link : {" size sz(f", " transfer t(f"}) {
    SCOPED_TRACE(link);
    std::string source;
    for (int k = 0; k < kFlows; ++k) {
      source += "f" + std::to_string(k) + " 10.0.0.1 -> 10.0.0.2";
      source += k + 1 < kFlows ? link + std::to_string(k + 1) + ")\n" : " size 1M\n";
    }
    DiagnosticSink sink;
    const Query query = ParseWithDiagnostics(source, &sink);
    const QueryFacts facts(query);
    RunLint(facts, &sink);
    EXPECT_TRUE(sink.empty());
    const Result<CompiledQuery>& compiled = facts.compiled();
    ASSERT_TRUE(compiled.ok()) << compiled.error().ToString();
    const std::vector<CompiledFlow>& flows = compiled.value().flows();
    ASSERT_EQ(flows.size(), static_cast<size_t>(kFlows));
    EXPECT_TRUE(std::all_of(flows.begin(), flows.end(),
                            [](const CompiledFlow& f) { return f.size == 1024.0 * 1024.0; }));
    // sz() does not couple rates; a transfer chain is one chain group.
    EXPECT_EQ(compiled.value().groups().size(),
              std::string(link) == " size sz(f" ? static_cast<size_t>(kFlows) : 1u);
  }
}

// Every flow of a 20 000-flow query closes a size cycle through f0. The
// sink keeps one E030 per culprit, so the rule spells only f0's first cycle
// and stays linear.
TEST(LintTest, SizeCyclesThroughOneFlowReportOneE030) {
  constexpr int kFlows = 20000;
  std::string source = "f0 10.0.0.1 -> 10.0.0.2 size sz(f1)\n";
  for (int k = 1; k < kFlows; ++k) {
    source += "f" + std::to_string(k) + " 10.0.0.1 -> 10.0.0.2 size sz(f0)";
    source += k + 1 < kFlows ? " + sz(f" + std::to_string(k + 1) + ")\n" : "\n";
  }
  const DiagnosticSink sink = Analyze(source);
  ASSERT_EQ(sink.diagnostics().size(), 1u);
  const Diagnostic& d = sink.diagnostics()[0];
  EXPECT_EQ(d.code, "E030");
  EXPECT_EQ(d.span.line, 1);
  EXPECT_EQ(d.span.column, 25);
  EXPECT_EQ(d.message, "cyclic size reference involving flow 'f0' (f0 -> f1 -> f0)");
}

// ---- W092: batch equivalence across independently-clean queries ----

TEST(BatchEquivalenceTest, FlagsRenamedReorderedDuplicate) {
  DiagnosticSink s1, s2, s3;
  const Query a = ParseWithDiagnostics(
      "A = (vm1 vm2)\ncopy A -> vm3 size 64M rate 100M\nvm4 -> vm5 size 2*16M\n", &s1);
  const Query b = ParseWithDiagnostics(
      "A = (vm1 vm2)\ncopy A -> vm3 size 64M rate 100M\n", &s2);
  // Same query as `a` under renaming, flow reordering, and constant folding.
  const Query c = ParseWithDiagnostics(
      "Src = (vm1 vm2)\nvm4 -> vm5 size 32M\nxfer Src -> vm3 size 64M rate 100M\n", &s3);
  ASSERT_FALSE(s1.has_errors() || s2.has_errors() || s3.has_errors());

  const std::vector<BatchEquivalence> eq = FindEquivalentQueries({&a, &b, &c});
  ASSERT_EQ(eq.size(), 3u);
  EXPECT_EQ(eq[0].equivalent_to, -1);
  EXPECT_EQ(eq[1].equivalent_to, -1);
  EXPECT_EQ(eq[2].equivalent_to, 0);
  EXPECT_EQ(eq[2].hash, eq[0].hash);
  EXPECT_NE(eq[1].hash, eq[0].hash);
}

TEST(BatchEquivalenceTest, UncanonicalizableQueryNeverMatches) {
  // Duplicate flow names make a query ambiguous and Canonicalize refuses it;
  // even two identical ambiguous copies must not pair up. Parser recovery
  // repairs duplicate names, so build the ambiguous ASTs directly.
  DiagnosticSink s1, s2;
  Query a = ParseWithDiagnostics("f vm1 -> vm2 size 1M\ng vm1 -> vm2 size 1M\n", &s1);
  Query b = ParseWithDiagnostics("f vm1 -> vm2 size 1M\ng vm1 -> vm2 size 1M\n", &s2);
  ASSERT_FALSE(s1.has_errors() || s2.has_errors());
  a.flows[1].name = "f";
  b.flows[1].name = "f";
  const std::vector<BatchEquivalence> eq = FindEquivalentQueries({&a, &b});
  ASSERT_EQ(eq.size(), 2u);
  EXPECT_EQ(eq[0].equivalent_to, -1);
  EXPECT_EQ(eq[1].equivalent_to, -1);
}

// ---- Acceptance: two distinct rules, one query, both with positions ----

TEST(LintTest, TwoIndependentDiagnosticsOnOneQuery) {
  const std::string source =
      "A = (vm1 vm2)\n"
      "unused = (vm3)\n"
      "f1 A -> A size 10M\n";
  const DiagnosticSink sink = Analyze(source);
  EXPECT_EQ(sink.error_count(), 0);
  // W001 (unused variable), W020 (self flow), and W100 (vm3 provably
  // outside every footprint — the scope-analysis view of the same defect).
  EXPECT_EQ(sink.warning_count(), 3);

  const Diagnostic* w001 = FindCode(sink, "W001");
  ASSERT_NE(w001, nullptr);
  EXPECT_EQ(w001->span.line, 2);
  EXPECT_EQ(w001->span.column, 1);

  const Diagnostic* w100 = FindCode(sink, "W100");
  ASSERT_NE(w100, nullptr);
  EXPECT_EQ(w100->span.line, 2);
  EXPECT_EQ(w100->span.column, 11);  // The pool entry `vm3`.

  const Diagnostic* w020 = FindCode(sink, "W020");
  ASSERT_NE(w020, nullptr);
  EXPECT_EQ(w020->span.line, 3);
  EXPECT_EQ(w020->span.column, 9);  // The destination `A`.
}

// ---- Parser recovery: one pass reports many independent errors ----

TEST(ParserRecoveryTest, MultipleErrorsInOnePass) {
  const std::string source =
      "A = ()\n"
      "f1 vm1 -> \n"
      "f2 vm1 -> vm2 size 1M rate 10M\n"
      "f2 vm3 -> vm4 size 1M\n";
  const DiagnosticSink sink = Analyze(source);
  EXPECT_GE(sink.error_count(), 3);
  EXPECT_TRUE(HasCode(sink, "E010"));  // Empty pool.
  EXPECT_TRUE(HasCode(sink, "E001"));  // Missing endpoint.
  EXPECT_TRUE(HasCode(sink, "E002"));  // Duplicate flow name.
}

// As for variables, each repeat of a flow name gets one E002, at its own
// definition.
TEST(ParserRecoveryTest, DuplicateFlowReportsEachRepeatOnce) {
  DiagnosticSink sink;
  (void)ParseWithDiagnostics(
      "f vm1 -> vm2 size 1M\nf vm2 -> vm3 size 1M\nf vm3 -> vm4 size 1M\n", &sink);
  ASSERT_EQ(sink.diagnostics().size(), 2u);
  for (int k = 0; k < 2; ++k) {
    EXPECT_EQ(sink.diagnostics()[k].code, "E002");
    EXPECT_EQ(sink.diagnostics()[k].span.line, k + 2);
  }
}

// Auto names (`_f<N>`, N the flow's position) are not in the query bytes,
// yet they collide with an explicit name like any other, in either order,
// and a reference may name them.
TEST(ParserRecoveryTest, AutoNamedFlowCollidesWithExplicitName) {
  DiagnosticSink sink;
  (void)ParseWithDiagnostics("_f2 vm1 -> vm2 size 1M\nvm2 -> vm3 size 1M\n", &sink);
  ASSERT_EQ(sink.diagnostics().size(), 1u);
  EXPECT_EQ(sink.diagnostics()[0].code, "E002");
  EXPECT_EQ(sink.diagnostics()[0].message, "flow '_f2' defined twice");
  EXPECT_EQ(sink.diagnostics()[0].span.line, 2);
  DiagnosticSink reverse;
  (void)ParseWithDiagnostics("vm1 -> vm2 size 1M\n_f1 vm2 -> vm3 size 1M\n", &reverse);
  ASSERT_EQ(reverse.diagnostics().size(), 1u);
  EXPECT_EQ(reverse.diagnostics()[0].message, "flow '_f1' defined twice");
  DiagnosticSink reference;
  (void)ParseWithDiagnostics("vm1 -> vm2 size 1M\ng vm2 -> vm3 size sz(_f1)\n", &reference);
  EXPECT_TRUE(reference.empty());
}

TEST(ParserRecoveryTest, AllUndefinedRefsReported) {
  const std::string source =
      "f1 vm1 -> vm2 size sz(nope) transfer t(also_nope)\n";
  DiagnosticSink sink;
  (void)ParseWithDiagnostics(source, &sink);
  int e003 = 0;
  for (const Diagnostic& d : sink.diagnostics()) {
    if (d.code == "E003") {
      ++e003;
    }
  }
  EXPECT_EQ(e003, 2);
}

// ---- Satellite 1: parse errors carry exact line:column ----

TEST(PositionTest, MalformedQueriesReportExactPositions) {
  struct Case {
    std::string source;
    std::string code;
    int line;
    int column;
  };
  const std::vector<Case> cases = {
      // Truncated flow on the second line.
      {"a -> b size 1M\nc -> ", "E001", 2, 6},
      // Unknown attribute, mid-line.
      {"f1 vm1 -> vm2 size 1M extra_attr 5\n", "E004", 1, 23},
      // Unknown option.
      {"option bogus\n", "E004", 1, 8},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.source);
    DiagnosticSink sink;
    (void)ParseWithDiagnostics(c.source, &sink);
    const Diagnostic* d = FindCode(sink, c.code);
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->span.line, c.line);
    EXPECT_EQ(d->span.column, c.column);
  }
}

TEST(PositionTest, LegacyParseWrapperCarriesPositionAndCode) {
  const Result<Query> result = Parse("a -> b size 1M\nc -> ");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().line, 2);
  EXPECT_EQ(result.error().column, 6);
  EXPECT_NE(result.error().message.find("[E001]"), std::string::npos);
}

TEST(PositionTest, CompileErrorsCarryPositions) {
  // E032: flow with no size attribute and nothing to inherit one from.
  const DiagnosticSink sink = Analyze("f1 vm1 -> vm2\n");
  const Diagnostic* d = FindCode(sink, "E032");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->span.line, 1);
  EXPECT_EQ(d->span.column, 1);

  // E031: a rate reference cannot size f0. f2's sz(f0) then reads a flow
  // that failed, not one still being resolved, so no E030 follows.
  const DiagnosticSink failed = Analyze(
      "f0 10.0.0.1 -> 10.0.0.2 size r(f1)\n"
      "f1 10.0.0.2 -> 10.0.0.3 size 1M rate 10M\n"
      "f2 10.0.0.3 -> 10.0.0.4 size sz(f0)\n");
  ASSERT_EQ(failed.diagnostics().size(), 1u);
  EXPECT_EQ(failed.diagnostics()[0].code, "E031");
  EXPECT_EQ(failed.diagnostics()[0].span.line, 1);
  EXPECT_EQ(failed.diagnostics()[0].span.column, 30);
}

// ---- Rendering ----

TEST(RenderTest, ClangStyleCaretAndHint) {
  const std::string source = "f1 vm1 -> vm1 size 1M\n";
  const DiagnosticSink sink = Analyze(source);
  ASSERT_EQ(sink.warning_count(), 1);
  const std::string text = FormatDiagnostics(sink.diagnostics(), source, "test.ct");
  EXPECT_NE(text.find("test.ct:1:11: warning:"), std::string::npos);
  EXPECT_NE(text.find("f1 vm1 -> vm1 size 1M"), std::string::npos);  // Echoed line.
  EXPECT_NE(text.find("^"), std::string::npos);                      // Caret.
  EXPECT_NE(text.find("hint:"), std::string::npos);
  EXPECT_NE(text.find("[W020]"), std::string::npos);
  EXPECT_NE(text.find("0 errors, 1 warning"), std::string::npos);
}

TEST(RenderTest, JsonIsMachineReadable) {
  const DiagnosticSink sink = Analyze("f1 vm1 -> vm1 size 1M\n");
  const std::string json = DiagnosticsToJson(sink.diagnostics(), "q.ct");
  EXPECT_NE(json.find("\"file\": \"q.ct\""), std::string::npos);
  EXPECT_NE(json.find("\"errors\": 0"), std::string::npos);
  EXPECT_NE(json.find("\"warnings\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"code\": \"W020\""), std::string::npos);
  EXPECT_NE(json.find("\"line\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"column\": 11"), std::string::npos);
}

TEST(RenderTest, JsonEscapesSpecialCharacters) {
  DiagnosticSink sink;
  sink.AddError("E001", Span{1, 1, 1}, "bad \"quote\" and \\slash\\");
  const std::string json = DiagnosticsToJson(sink.diagnostics(), "a\"b.ct");
  EXPECT_NE(json.find("a\\\"b.ct"), std::string::npos);
  EXPECT_NE(json.find("bad \\\"quote\\\" and \\\\slash\\\\"), std::string::npos);
}

// ---- DiagnosticSink mechanics ----

TEST(SinkTest, DeduplicatesSameCodeAndSpan) {
  DiagnosticSink sink;
  sink.AddError("E010", Span{1, 1, 1}, "first");
  sink.AddError("E010", Span{1, 1, 1}, "second (dropped)");
  sink.AddError("E010", Span{2, 1, 1}, "different line (kept)");
  EXPECT_EQ(sink.error_count(), 2);
}

// 20 000 unused variables give a W001 and a W100 each, in source order, in
// linear time; a repeated (code, span) is still dropped.
TEST(SinkTest, TwentyThousandUnusedVariablesKeepSourceOrder) {
  constexpr int kVars = 20000;
  std::string source;
  for (int k = 0; k < kVars; ++k) {
    source += "v" + std::to_string(k) + " = (10." + std::to_string(k >> 8) + "." +
              std::to_string(k & 255) + ".1)\n";
  }
  source += "192.168.0.1 -> 192.168.0.2 size 1M\n";
  DiagnosticSink sink = Analyze(source);
  ASSERT_EQ(sink.diagnostics().size(), 2u * kVars);
  EXPECT_EQ(sink.warning_count(), 2 * kVars);
  int out_of_order = 0;
  for (int k = 0; k < kVars; ++k) {
    const Diagnostic& unused = sink.diagnostics()[2 * k];
    const Diagnostic& host = sink.diagnostics()[2 * k + 1];
    out_of_order += unused.code != "W001" || unused.span.line != k + 1 ||
                    host.code != "W100" || host.span.line != k + 1;
  }
  EXPECT_EQ(out_of_order, 0);
  sink.AddWarning("W100", sink.diagnostics().back().span, "repeat (dropped)");
  EXPECT_EQ(sink.diagnostics().size(), 2u * kVars);
}

TEST(SinkTest, PromoteWarningsMakesThemErrors) {
  DiagnosticSink sink;
  sink.AddWarning("W020", Span{1, 1, 1}, "self flow");
  EXPECT_EQ(sink.max_severity(), Severity::kWarning);
  EXPECT_FALSE(sink.has_errors());
  sink.PromoteWarnings();
  EXPECT_EQ(sink.max_severity(), Severity::kError);
  EXPECT_TRUE(sink.has_errors());
  EXPECT_EQ(sink.error_count(), 1);
  EXPECT_EQ(sink.warning_count(), 0);
}

TEST(SinkTest, SortByPositionIsStable) {
  DiagnosticSink sink;
  sink.AddWarning("W001", Span{3, 1, 1}, "third");
  sink.AddError("E001", Span{1, 5, 1}, "first");
  sink.AddError("E002", Span{1, 5, 1}, "also first position, emitted later");
  sink.SortByPosition();
  ASSERT_EQ(sink.diagnostics().size(), 3u);
  EXPECT_EQ(sink.diagnostics()[0].code, "E001");
  EXPECT_EQ(sink.diagnostics()[1].code, "E002");
  EXPECT_EQ(sink.diagnostics()[2].code, "W001");
}

// ---- W060 estimate helper ----

TEST(EstimateTest, FallingFactorialForSharedPool) {
  DiagnosticSink sink;
  const Query query = ParseWithDiagnostics(
      "A = B = C = " + BigPool(60) + "\nf1 A -> B size 1M\nf2 B -> C size 1M\n", &sink);
  ASSERT_FALSE(sink.has_errors());
  // Distinct bindings from one 60-entry pool: 60 * 59 * 58.
  EXPECT_DOUBLE_EQ(EstimateBindingCount(query), 60.0 * 59.0 * 58.0);
}

TEST(EstimateTest, SmallQueriesAreBelowThreshold) {
  DiagnosticSink sink;
  const Query query = ParseWithDiagnostics(
      "A = (vm1 vm2 vm3)\nf1 A -> vm4 size 1M\n", &sink);
  ASSERT_FALSE(sink.has_errors());
  EXPECT_LT(EstimateBindingCount(query), kSearchSpaceWarnThreshold);
}

// ---- Lexer diagnostics ----

TEST(LexerDiagnosticsTest, BadCharacterRecovered) {
  DiagnosticSink sink;
  const std::vector<Token> tokens = TokenizeWithDiagnostics("a $ b", &sink);
  EXPECT_TRUE(HasCode(sink, "E001"));
  // The surrounding tokens survive the bad character.
  int idents = 0;
  for (const Token& t : tokens) {
    if (t.kind == TokenKind::kIdent) {
      ++idents;
    }
  }
  EXPECT_EQ(idents, 2);
}

// Tokens are views of the input: one that ends the input keeps its length.
TEST(LexerDiagnosticsTest, TokenAtEndOfInputKeepsItsLength) {
  for (const auto& [text, length] : {std::pair<std::string, int>{"a -> vm42", 4},
                                     {"a -> 10.0.0.17", 9},
                                     {"a -> b size 10KB", 4}}) {
    DiagnosticSink sink;
    const std::vector<Token> tokens = TokenizeWithDiagnostics(text, &sink);
    ASSERT_TRUE(sink.empty()) << text;
    ASSERT_GE(tokens.size(), 2u) << text;
    const Token& last = tokens[tokens.size() - 2];
    EXPECT_EQ(last.span().length, length) << text;
    EXPECT_EQ(last.text, std::string_view(text).substr(text.size() - length)) << text;
  }
  // A query whose last name ends the input parses it whole.
  DiagnosticSink sink;
  const Query query = ParseWithDiagnostics("A = (vm1 vm2)\nf1 A -> vm42", &sink);
  ASSERT_TRUE(sink.empty());
  EXPECT_EQ(query.flows[0].dst.name, "vm42");
  EXPECT_EQ(query.flows[0].dst_span.length, 4);
}

// Digits past a double's range read +inf, as strtod gives (std::from_chars
// would report out-of-range instead).
TEST(LexerDiagnosticsTest, HugeLiteralReadsInfinity) {
  const std::string digits(400, '9');
  const std::string text = digits + " " + digits + ".5";
  DiagnosticSink sink;
  const std::vector<Token> tokens = TokenizeWithDiagnostics(text, &sink);
  ASSERT_TRUE(sink.empty());
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[0].number, std::numeric_limits<double>::infinity());
  EXPECT_EQ(tokens[1].number, std::numeric_limits<double>::infinity());
  EXPECT_EQ(tokens[0].span().length, 400);
  const Query query = ParseWithDiagnostics("f1 vm1 -> vm2 size " + digits + "K\n", &sink);
  ASSERT_TRUE(sink.empty());
  EXPECT_EQ(EvalConstant(*query.flows[0].FindAttr(Attr::kSize)),
            std::numeric_limits<double>::infinity());
}

TEST(LexerDiagnosticsTest, TokenSpansHaveLengths) {
  DiagnosticSink sink;
  const std::vector<Token> tokens = TokenizeWithDiagnostics("hello -> 1.2.3.4", &sink);
  ASSERT_TRUE(sink.empty());
  ASSERT_GE(tokens.size(), 3u);
  EXPECT_EQ(tokens[0].span().length, 5);  // "hello"
  EXPECT_EQ(tokens[1].span().length, 2);  // "->"
  EXPECT_EQ(tokens[2].span().length, 7);  // "1.2.3.4"
}

}  // namespace
}  // namespace lang
}  // namespace cloudtalk
