// Lint rules for the CloudTalk query language.
//
// A lint rule inspects a parsed query's facts (src/lang/facts.h) and reports
// legal-but-suspect (or outright unanswerable) constructs through the
// DiagnosticSink. Rules are registered in a static table (LintRules()) so
// tools can enumerate them; RunLint executes every rule. Rule codes are
// stable API, documented in docs/LANGUAGE.md:
//
//   W001 unused-variable          declared variable never used by any flow
//   E010 empty-pool               variable pool has no candidates
//   W011 duplicate-pool-entry     same endpoint listed twice in one pool
//   W020 self-flow                flow source and destination are identical
//   E030 size-reference-cycle     sz()/t() size resolution can never settle
//   W040 unreachable-flow         transfer chain waits on itself, never starts
//   W050 contradictory-rate-chain two literal rates in one chain group
//   W060 search-space-explosion   exhaustive binding count is intractable
//   W070 interchangeable-variables symmetric variables enumerated redundantly
//   W071 statically-dead-flow     flow resolves to zero size, transfers nothing
//   E080 deadline-infeasible-group no binding can meet the deadline (bound LB)
//   W080 trivially-satisfied-deadline every binding meets the deadline on idle hosts
//   W081 dominated-objective      a binding-independent group pins the makespan
//   W090 duplicate-constraint     identical rate/deadline restated in a chain group
//   W091 subsumed-constraint      looser deadline subsumed by a tighter one
//   W092 equivalent-to-earlier-query batch input duplicates an earlier query
//   W100 unused-pool-host          pool host outside every footprint, never probed
//   W101 footprint-exceeds-pool    literal endpoint doubles as a binding candidate
//
// Rules only *read* the query and its facts; a query with parse errors can
// still be linted (the parser produces a best-effort partial AST). The rules
// that need the compiled query, its scope or its idle-world bounds take them
// from the facts, so one lint pass compiles and scopes the query at most
// once, builds the idle-world bounds only when a rule can fire on them, and
// leaves all three for the caller to reuse.
#ifndef CLOUDTALK_SRC_LANG_LINT_H_
#define CLOUDTALK_SRC_LANG_LINT_H_

#include <cstdint>
#include <vector>

#include "src/lang/ast.h"
#include "src/lang/diagnostics.h"
#include "src/lang/facts.h"

namespace cloudtalk {
namespace lang {

struct LintRule {
  const char* code;        // "W001", "E010", ...
  Severity severity;       // Severity diagnostics of this rule carry.
  const char* name;        // Kebab-case slug, e.g. "unused-variable".
  const char* summary;     // One-line description for --help / docs.
  void (*check)(const QueryFacts& facts, DiagnosticSink* sink);
};

// The registry, in rule-code order.
const std::vector<LintRule>& LintRules();

// Runs every registered rule over `facts`.
void RunLint(const QueryFacts& facts, DiagnosticSink* sink);

// W060 helper, exposed for tests and the server: estimated number of
// variable bindings an exhaustive evaluation would enumerate (capped at
// 1e18). Distinct-bindings semantics unless allow_same is set.
double EstimateBindingCount(const Query& query);

// Binding counts above this trigger W060 on exhaustive (option packet)
// queries.
inline constexpr double kSearchSpaceWarnThreshold = 100000.0;

// W092 helper (batch mode): for each query, the index of the earliest
// semantically equivalent predecessor in the batch (-1 when none) and its
// canonical content hash (0 when the query cannot be canonicalized).
// Per-query lint rules cannot see across inputs, so the ctlint CLI drives
// this directly.
struct BatchEquivalence {
  int equivalent_to = -1;
  uint64_t hash = 0;
};
std::vector<BatchEquivalence> FindEquivalentQueries(const std::vector<const Query*>& queries);

}  // namespace lang
}  // namespace cloudtalk

#endif  // CLOUDTALK_SRC_LANG_LINT_H_
