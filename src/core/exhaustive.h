// Brute-force query evaluation: enumerate every legal binding, score each
// with a CompletionEstimator, keep the best. Exact but exponential — the
// paper measures 130 ms for a query the heuristic answers in 0.13 ms, and
// uses exhaustive search as the optimality baseline in Figure 3 and for the
// packet-level web-search placement (Section 5.4, 100 placements).
//
// The engine partitions the binding space over a fixed worker pool (ISSUE 1):
// the first variable's candidates are striped across workers, each worker
// walks its stripe with a thread-local estimator clone, and worker results
// are merged with a deterministic tie-break — lowest makespan, then the
// lexicographically-first binding in odometer order — so parallel and serial
// runs return byte-identical answers. A per-worker memo keyed by the
// canonical binding signature (the multiset of (src, dst, size, start)
// transfers per chain group) evaluates each distinct traffic pattern once.
//
// Scalar requirements (`X requires cpu 4 mem 8G`, Section 7) are a hard
// legality constraint here: a candidate whose status report shows too
// little free CPU or memory is never bound, in both the optimized and the
// unoptimized walk (the heuristic, by contrast, only ranks such candidates
// last — it must always answer). With `optimize`, the src/lang/opt passes
// additionally prune symmetric and irrelevant bindings, and — when the
// estimator vouches for a sound interval model of itself
// (CompletionEstimator::BoundAvailabilityFraction) — the O500 pass arms
// branch-and-bound pruning: odometer prefixes whose sound makespan lower
// bound (src/lang/bound.h) strictly exceeds the incumbent best are skipped.
// The winning binding and estimate are byte-identical either way.
#ifndef CLOUDTALK_SRC_CORE_EXHAUSTIVE_H_
#define CLOUDTALK_SRC_CORE_EXHAUSTIVE_H_

#include <cstdint>

#include "src/common/result.h"
#include "src/core/estimator.h"
#include "src/lang/analysis.h"
#include "src/lang/opt.h"

namespace cloudtalk {

// Explicit accounting of where the search's work went. One legal binding is
// either *evaluated* (an estimator call) or a *memo hit* (served from the
// signature cache); bindings the static plan removed before the walk are
// *pruned*, and odometer positions skipped by orbit canonicalisation are
// *orbit skips* (counted before distinctness filtering, so they are
// positions, not necessarily legal bindings).
struct SearchCounters {
  int64_t evaluations = 0;      // Estimator calls (including failed ones).
  int64_t memo_hits = 0;        // Served from the signature cache.
  int64_t enumerated = 0;       // Legal bindings reached = evaluations + memo_hits.
  int64_t bindings_pruned = 0;  // Statically removed by the PrunedSpace plan.
  int64_t orbit_skips = 0;      // Odometer positions skipped by O200.
  // Odometer positions under prefixes cut by O500 branch-and-bound (counted
  // like orbit_skips: positions, not necessarily legal bindings).
  int64_t bound_prunes = 0;
  int components = 0;           // Communication components (O300 analysis).
  int threads_used = 1;         // Workers the walk was actually split into.
  // Solver-cost breakdown (ISSUE 6), drained from each worker's estimator
  // after its stripe: evaluations served by a checkpoint-restore delta rebind
  // vs. a full group re-install, plus the fluid solver's own recompute and
  // per-component delta-cache counters.
  int64_t delta_rebinds = 0;
  int64_t cold_rebinds = 0;
  int64_t solver_recomputes = 0;
  int64_t delta_component_hits = 0;
  int64_t cold_component_solves = 0;

  int64_t scored() const { return evaluations + memo_hits; }
};

struct ExhaustiveResult {
  Binding binding;
  Estimate estimate;  // Of the winning binding.
  SearchCounters counters;
};

struct ExhaustiveParams {
  int64_t max_bindings = 10'000'000;  // Enumeration safety valve.
  // Workers: 1 = serial (the original behaviour), 0 = hardware
  // concurrency, N = at most N (capped by the first pool's size, and forced
  // to 1 when the estimator cannot be cloned per thread).
  int threads = 1;
  // Memoize estimates by canonical binding signature. Symmetric bindings
  // (same multiset of endpoint pairs per flow role) are evaluated once.
  bool memoize = true;
  // Apply the src/lang/opt static passes before the walk. The result is
  // byte-identical to optimize = false (the passes only remove bindings
  // that are illegal, symmetric to a lower-ranked one, or irrelevant); the
  // max_bindings guard then applies to the pruned space. When `plan` is
  // null the engine computes one itself.
  bool optimize = false;
  const lang::PrunedSpace* plan = nullptr;
};

// Minimizes estimated makespan over all bindings. Fails when the space
// exceeds max_bindings or if the estimator fails on every binding. Hosts are
// numbered as `status` numbers them: unless the query says `option
// allow_same`, no two variables bind one host, and the memo, the plan, the
// bound and the estimator number hosts alike. The estimator reads each
// binding as the slots the walk holds; only the winner is spelled out, once,
// as the result's Binding.
Result<ExhaustiveResult> EvaluateExhaustive(const lang::CompiledQuery& query,
                                            const lang::HostStatus& status,
                                            CompletionEstimator& estimator,
                                            const ExhaustiveParams& params = {});

}  // namespace cloudtalk

#endif  // CLOUDTALK_SRC_CORE_EXHAUSTIVE_H_
