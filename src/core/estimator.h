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
// once per binding — thousands to millions of times per query. A binding
// therefore reaches an estimator as slots, not spellings: per variable, the
// slot of query.hosts() its host is, the numbering the search already walks
// in. Estimators support a prepared-scratch protocol:
//
//   estimator.BeginQuery(query, status);  // number hosts, build buffers
//   for (each binding) estimator.EstimateQuery(query, slots, status);
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
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/result.h"
#include "src/common/units.h"
#include "src/lang/analysis.h"
#include "src/status/status.h"

namespace cloudtalk {

// var name -> concrete endpoint (address or disk): a reply's placement.
using Binding = std::unordered_map<std::string, lang::Endpoint>;

// `binding` as estimators read it: per variable, the slot of query.hosts()
// its bound name spells, or -1 when `binding` binds it to nothing. Fails,
// naming the variable, when a bound name is no address the query spells.
Result<std::vector<int>> SlotsOf(const lang::CompiledQuery& query, const Binding& binding);

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
  // `slots` binds variable v to the host at slot slots[v] of query.hosts();
  // -1, any other value that is no slot, or a position past the span's end
  // leaves v unbound (so {} binds nothing), and a flow that reads an unbound
  // variable fails the estimate.
  virtual Result<Estimate> EstimateQuery(const lang::CompiledQuery& query,
                                         std::span<const int> slots,
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

  // Drains the accumulated solver-cost counters (zeroing them). The engine
  // collects these after EndQuery, once per worker's stripe.
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

  Result<cloudtalk::Estimate> EstimateQuery(const lang::CompiledQuery& query,
                                            std::span<const int> slots,
                                            const lang::HostStatus& status) override;

  void BeginQuery(const lang::CompiledQuery& query, const lang::HostStatus& status) override;
  void EndQuery() override;
  std::unique_ptr<CompletionEstimator> CloneForThread() const override;
  // The fluid model folds a chain group into one shared rate; flow order
  // within a group cannot matter.
  bool EstimatesArePermutationInvariant() const override { return true; }

  SolverStats TakeSolverStats() override;
  // The fluid allocation floors every resource at min_available_fraction,
  // so BoundAnalysis built with the same fraction brackets every estimate.
  double BoundAvailabilityFraction() const override { return min_available_fraction_; }

  bool scratch_prepared() const { return scratch_ != nullptr; }

 private:
  struct Scratch;

  // The original one-shot path: builds a throwaway star topology per call,
  // numbering hosts as `status` does. It serves every call outside a
  // matching BeginQuery.
  Result<cloudtalk::Estimate> EstimateCold(const lang::CompiledQuery& query,
                                           std::span<const int> slots,
                                           const lang::HostStatus& status) const;
  Result<cloudtalk::Estimate> EstimateWithScratch(const lang::CompiledQuery& query);

  double min_available_fraction_;
  bool reuse_scratch_;
  bool delta_rebind_;
  std::unique_ptr<Scratch> scratch_;
  SolverStats stats_;
};

}  // namespace cloudtalk

#endif  // CLOUDTALK_SRC_CORE_ESTIMATOR_H_
