// Static query-optimisation passes for the CloudTalk exhaustive engine.
//
// ctlint (lint.h) tells an author what is *suspect* about a query; this
// library tells the engine what is *redundant* about its binding space. An
// OptPass analyses a CompiledQuery plus the status snapshot the evaluation
// will use and contributes to a PrunedSpace — a plan the exhaustive engine
// (src/core/exhaustive.h) consumes to skip bindings it can prove are
// illegal, symmetric, or irrelevant. Passes are registered in a static
// table (OptPasses()) with stable O-codes, and explain themselves through
// the shared DiagnosticSink as notes (rendered clang-style or JSON by
// `ctlint --show opt`):
//
//   O100 domain-pruning        pool endpoints that can never satisfy the
//                              variable's cpu/mem requirements are dropped;
//                              distinctness pigeonhole infeasibility is
//                              detected up front (bipartite matching)
//   O200 interchangeable-vars  variables with identical pools, requirements
//                              and (symbolic) communication structure are
//                              enumerated orbit-canonically: only the
//                              ascending-index representative of each
//                              symmetric binding class is visited
//   O300 component-split       connected components of the variable
//                              communication graph are counted and inert
//                              variables (no live flows) are pinned to their
//                              lexicographically-first legal candidate
//   O400 dead-flow-folding     zero-size flows and binding-independent
//                              (literal-only) chain groups are dropped from
//                              the engine's memo signature
//   O500 bound-pruning         sound makespan lower bounds (src/lang/bound.h)
//                              arm branch-and-bound pruning in the engine:
//                              an odometer prefix whose lower bound strictly
//                              exceeds the incumbent makespan is skipped
//                              (SearchCounters::bound_prunes)
//
// The contract every pass obeys — and tests/opt_test.cc enforces
// differentially — is byte-identity: for any query and status, exhaustive
// search with the plan applied returns exactly the winning binding and
// Estimate the unoptimised walk would return under the PR 1 tie-break
// (lowest makespan, then lexicographically-first binding). Transforms that
// cannot meet that bar (e.g. evaluating components on isolated sub-queries:
// the fluid simulation advances *all* groups at every event, so splitting
// changes floating-point accumulation order) are deliberately limited to
// reporting; see DESIGN.md, "Static optimisation passes".
#ifndef CLOUDTALK_SRC_LANG_OPT_H_
#define CLOUDTALK_SRC_LANG_OPT_H_

#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "src/lang/analysis.h"
#include "src/lang/diagnostics.h"
#include "src/status/status.h"

namespace cloudtalk {

namespace lang {

// Pass selection bits, in registry order.
inline constexpr uint32_t kOptDomainPruning = 1u << 0;       // O100
inline constexpr uint32_t kOptInterchangeable = 1u << 1;     // O200
inline constexpr uint32_t kOptComponentSplit = 1u << 2;      // O300
inline constexpr uint32_t kOptDeadFlowFolding = 1u << 3;     // O400
inline constexpr uint32_t kOptBoundPruning = 1u << 4;        // O500
inline constexpr uint32_t kOptAllPasses =
    kOptDomainPruning | kOptInterchangeable | kOptComponentSplit | kOptDeadFlowFolding |
    kOptBoundPruning;

struct OptimizeParams {
  uint32_t passes = kOptAllPasses;
  // Availability fraction the O500 *report* computes its bounds with (the
  // engine rebuilds the analysis with the exact fraction its estimator
  // confesses via CompletionEstimator::BoundAvailabilityFraction, so this
  // only affects the note text and PrunedSpace::bound_lb/bound_ub).
  double bound_fraction = 0.1;
};

// Per executed pass: wall time and the static binding-space reduction it is
// responsible for (the capped kept/pinned product delta — orbit and
// branch-and-bound reductions are runtime counters, so O200/O500 report 0
// here and account through SearchCounters instead).
struct PassStat {
  const char* code = "";
  double wall_seconds = 0;
  int64_t pruned_bindings = 0;
};

// The plan. Candidate indices refer to the variable's *address candidates*:
// the subsequence of its pool with kind == kAddress, in declaration order —
// exactly the sequence the exhaustive engine enumerates.
struct PrunedSpace {
  // O100: no legal binding exists (empty pruned domain, or no perfect
  // matching of variables to distinct feasible candidates). The engine
  // reports the same error the unoptimised walk would reach exhaustively.
  bool infeasible = false;
  std::string infeasible_reason;

  // O100: per variable, the ascending candidate indices that survive
  // requirement pruning. Always safe to apply: the engine enforces
  // requirements as a legality constraint in both modes.
  std::vector<std::vector<int32_t>> kept;

  // O300: candidate index the variable is pinned to, or -1. Sound only for
  // estimators invariant under the engine's signature equivalence, so the
  // engine applies it under the same gate as the memo cache.
  std::vector<int32_t> pinned;

  // O200: index of the previous member of the variable's
  // interchangeability class, or -1. Enumeration constraint:
  //   choice[v] >= choice[orbit_prev[v]] + (distinct ? 1 : 0).
  // Same estimator gate as `pinned`.
  std::vector<int32_t> orbit_prev;

  // O400: flow indices (into query.flows()) excluded from the memo
  // signature: zero-size flows plus every flow of a binding-independent
  // chain group.
  std::vector<int32_t> dead_flows;

  // O300 reporting.
  int components = 0;
  std::vector<int32_t> component_of;  // Per variable; -1 for inert variables.

  // O500: arm the engine's branch-and-bound pruning (sound lower bounds on
  // odometer prefixes vs. the incumbent makespan; see src/lang/bound.h).
  // The engine honours this only when its estimator reports a non-negative
  // BoundAvailabilityFraction. bound_lb/bound_ub are the query-level bounds
  // at the fraction OptimizeParams::bound_fraction, for reporting.
  bool bound_pruning = false;
  double bound_lb = 0;
  double bound_ub = std::numeric_limits<double>::infinity();

  // Static accounting: bindings an unpruned odometer would enumerate vs.
  // the pruned/pinned one (capped products, ignoring distinctness and orbit
  // constraints), and their difference as the engine-visible counter.
  double space_before = 0;
  double space_after = 0;
  int64_t bindings_pruned = 0;

  // Per-pass wall time and static pruning attribution, in execution order.
  std::vector<PassStat> pass_stats;
};

struct OptPass {
  const char* code;     // "O100", ...
  const char* name;     // Kebab-case slug, e.g. "domain-pruning".
  const char* summary;  // One-line description for --passes / docs.
  uint32_t bit;         // Selection bit in OptimizeParams::passes.
};

// The registry, in pass-code order.
const std::vector<OptPass>& OptPasses();

// Runs the selected passes and returns the combined plan. Remarks (severity
// kNote, code = pass code) are added to `sink` when non-null. Never fails:
// a query the passes cannot reason about yields a no-op plan. Hosts are
// numbered as `status` numbers them: distinctness, which holds unless the
// query says `option allow_same`, and O200's pool and endpoint comparisons
// are by host.
PrunedSpace Optimize(const CompiledQuery& query, const HostStatus& status,
                     const OptimizeParams& params = {}, DiagnosticSink* sink = nullptr);

// ---- Shared analyses (used by the passes, the engine, and ctlint) ----

// The Section 7 requirement predicate, exactly as the heuristic scores it
// (heuristic.cc): a zero total means "no information" and passes.
bool SatisfiesRequirements(const VarComm& var, const StatusReport& report);

// Flow indices whose resolved size is <= 0: such flows transfer nothing and
// are marked done on arrival by the fluid model (W071 / O400).
std::vector<int32_t> DeadFlowIndices(const CompiledQuery& query);

// Interchangeability classes of size >= 2: variables with identical pools,
// identical requirements, and a live-flow multiset invariant under swapping
// the pair (W070 / O200), hosts numbered as in Optimize. Each class lists
// variable indices ascending.
std::vector<std::vector<int32_t>> InterchangeableClasses(const CompiledQuery& query,
                                                         std::span<const int> identity = {});

}  // namespace lang
}  // namespace cloudtalk

#endif  // CLOUDTALK_SRC_LANG_OPT_H_
