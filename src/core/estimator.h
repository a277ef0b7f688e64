// Completion-time estimators (paper Section 4): given a fully bound query
// and a status snapshot, predict how long the described task takes.
//
//  * FlowLevelEstimator "arithmetically allocates a rate to each flow using
//    the assumption that bottleneck links are shared equally" — implemented
//    by running the query's chain groups through a small FluidSimulation
//    whose only contended resources are the endpoints' NICs and disks (the
//    paper's full-bisection assumption: the core never bottlenecks).
//  * A packet-level estimator (PacketLevelEstimator, src/core/
//    packet_estimator.h) plugs in behind the same interface for
//    incast-sensitive queries such as web search.
//
// Hot-path contract (ISSUE 1): an exhaustive evaluation calls EstimateQuery
// once per binding — thousands to millions of times per query. Estimators
// therefore support a prepared-scratch protocol:
//
//   estimator.BeginQuery(query, status);  // number hosts, build buffers
//   for (each binding) estimator.EstimateQuery(query, binding, status);
//   estimator.EndQuery();
//
// Between BeginQuery and EndQuery the estimator may reuse per-query state
// (star topology, FluidSimulation buffers) instead of reconstructing it per
// binding. EstimateQuery called without (or outside) a matching BeginQuery
// must still work. CloneForThread() hands each worker of the parallel
// engine, and each Quote() CloudTalkServer prices, an independent
// estimator; the server shares its packet estimator, which keeps no
// per-query state, between concurrent answers.
#ifndef CLOUDTALK_SRC_CORE_ESTIMATOR_H_
#define CLOUDTALK_SRC_CORE_ESTIMATOR_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/result.h"
#include "src/common/units.h"
#include "src/lang/analysis.h"
#include "src/status/status.h"

namespace cloudtalk {

// var name -> concrete endpoint (address or disk).
using Binding = std::unordered_map<std::string, lang::Endpoint>;

struct Estimate {
  Seconds makespan = 0;           // When the last flow finishes.
  Bps aggregate_throughput = 0;   // Total bytes * 8 / makespan.
};

// Per-query solver-cost accounting surfaced to the exhaustive engine
// (ISSUE 6). A "rebind" is one EstimateQuery served from prepared scratch:
// delta = checkpoint restore + in-place patch of the flows a changed
// variable touches; cold = full group re-install. Component counters come
// from the fluid solver's per-component delta cache.
struct SolverStats {
  int64_t delta_rebinds = 0;
  int64_t cold_rebinds = 0;
  int64_t solver_recomputes = 0;
  int64_t delta_component_hits = 0;
  int64_t cold_component_solves = 0;
};

class CompletionEstimator {
 public:
  virtual ~CompletionEstimator() = default;
  // A bound name the query never spells reads as unreported.
  virtual Result<Estimate> EstimateQuery(const lang::CompiledQuery& query, const Binding& binding,
                                    const lang::HostStatus& status) = 0;

  // Prepared-scratch protocol (see file comment), hosts numbered as `status`
  // numbers them, as the exhaustive search does. Default: no-op — a
  // stateless estimator ignores it. `query` and `status` must outlive the
  // matching EndQuery().
  virtual void BeginQuery(const lang::CompiledQuery& query, const lang::HostStatus& status) {
    (void)query;
    (void)status;
  }
  virtual void EndQuery() {}

  // An independent estimator for a parallel worker, or nullptr when the
  // estimator cannot be replicated (the evaluation then stays serial).
  virtual std::unique_ptr<CompletionEstimator> CloneForThread() const { return nullptr; }

  // True when the estimate depends only on the multiset of (src, dst, size)
  // transfers per chain group — i.e., it is invariant under permuting flows
  // within a group. Gates the exhaustive engine's signature memo-cache.
  // False by default: e.g. the packet simulator's transfer references tie
  // behaviour to specific flow indices.
  virtual bool EstimatesArePermutationInvariant() const { return false; }

  // ---- Odometer delta hints (ISSUE 6) ----
  // The exhaustive engine announces its variable walk order once per query
  // (after BeginQuery), then before each EstimateQuery reports the lowest
  // walk depth whose binding may differ from the previous EstimateQuery on
  // this estimator; every shallower variable is guaranteed unchanged. The
  // hint is consumed by the next EstimateQuery. Both default to no-ops —
  // estimators that ignore them simply re-resolve every variable.
  virtual void BeginHintedWalk(const std::vector<std::string>& vars_in_walk_order) {
    (void)vars_in_walk_order;
  }
  virtual void HintChangedSuffix(size_t first_changed_depth) { (void)first_changed_depth; }

  // Drains the accumulated solver-cost counters (zeroing them). The engine
  // collects these after EndQuery, once per shard.
  virtual SolverStats TakeSolverStats() { return {}; }

  // ---- Sound bound model (ISSUE 7) ----
  // Availability fraction the estimator's rate allocation floors at (the f
  // in avail = max(cap * f, cap - background)), or a negative value when no
  // sound interval model of this estimator exists. A non-negative return
  // promises: for every binding, the makespan EstimateQuery reports lies in
  // the [LB, UB] interval lang::BoundAnalysis computes with this fraction
  // (ctcheck --diff-bound, invariant D502). Gates the engine's O500
  // branch-and-bound pruning and the server's admission fast path — both
  // stay off for estimators (e.g. the packet simulator) that return -1.
  virtual double BoundAvailabilityFraction() const { return -1; }
};

class FlowLevelEstimator : public CompletionEstimator {
 public:
  // `min_available_fraction` as in FluidSimulation: elastic flows always get
  // at least this fraction of a busy resource. `reuse_scratch` enables the
  // per-query prepared scratch (BeginQuery); disabling it reproduces the
  // original build-everything-per-binding behaviour (benchmark baseline).
  // `delta_rebind` additionally installs the query's groups once, checkpoints
  // the simulation, and serves every further binding by restore + in-place
  // resource patches instead of a full re-install; results are bitwise
  // identical (ctcheck --diff-sim fuzzes this claim).
  explicit FlowLevelEstimator(double min_available_fraction = 0.1, bool reuse_scratch = true,
                              bool delta_rebind = true);
  ~FlowLevelEstimator() override;

  Result<cloudtalk::Estimate> EstimateQuery(const lang::CompiledQuery& query, const Binding& binding,
                                       const lang::HostStatus& status) override;

  void BeginQuery(const lang::CompiledQuery& query, const lang::HostStatus& status) override;
  void EndQuery() override;
  std::unique_ptr<CompletionEstimator> CloneForThread() const override;
  // The fluid model folds a chain group into one shared rate; flow order
  // within a group cannot matter.
  bool EstimatesArePermutationInvariant() const override { return true; }

  void BeginHintedWalk(const std::vector<std::string>& vars_in_walk_order) override;
  void HintChangedSuffix(size_t first_changed_depth) override;
  SolverStats TakeSolverStats() override;
  // The fluid allocation floors every resource at min_available_fraction,
  // so BoundAnalysis built with the same fraction brackets every estimate.
  double BoundAvailabilityFraction() const override { return min_available_fraction_; }

  bool scratch_prepared() const { return scratch_ != nullptr; }

 private:
  struct Scratch;

  // The original one-shot path: builds a throwaway star topology per call.
  // Also the fallback whenever a binding names an address that is not a
  // slot of the query (e.g. a direct EstimateQuery call with an out-of-pool
  // binding).
  Result<cloudtalk::Estimate> EstimateCold(const lang::CompiledQuery& query,
                                           const Binding& binding,
                                           const lang::HostStatus& status) const;
  Result<cloudtalk::Estimate> EstimateWithScratch(const lang::CompiledQuery& query,
                                                  const Binding& binding);

  double min_available_fraction_;
  bool reuse_scratch_;
  bool delta_rebind_;
  std::unique_ptr<Scratch> scratch_;
  SolverStats stats_;
  // Hint state (see CompletionEstimator::HintChangedSuffix). slots_valid_
  // guards the skip: a variable's cached slot is only trusted if the
  // previous EstimateQuery resolved the full binding without a miss.
  bool hint_active_ = false;
  size_t hint_first_depth_ = 0;
  bool slots_valid_ = false;
};

// Substitutes variables in `endpoint` according to `binding`. Returns the
// endpoint unchanged for addresses/disk/unknown; fails (returns nullopt) for
// an unbound variable.
std::optional<lang::Endpoint> ResolveEndpoint(const lang::Endpoint& endpoint,
                                              const Binding& binding);

}  // namespace cloudtalk

#endif  // CLOUDTALK_SRC_CORE_ESTIMATOR_H_
