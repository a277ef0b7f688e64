// Sound makespan-bound analysis over a compiled query + status snapshot.
//
// ctlint (lint.h) reasons about a query's text, the optimisation passes
// (opt.h) about its binding space; this library reasons about its
// *completion time* without running the fluid solver. BoundAnalysis
// computes, per chain group and for the whole query, an interval [LB, UB]
// that is guaranteed to contain the makespan the flow-level estimator would
// report for **every** binding consistent with the current (possibly
// partial) variable assignment:
//
//   LB  per-group chain rule: with members sorted by size ascending, the
//       shared group rate while the j-th smallest member is live can never
//       exceed min(rate limit, best-case bottleneck of any live member),
//       where a member's best-case bottleneck is maximised over the
//       candidate resolutions of its open endpoints. Segment times
//       (size_j - size_{j-1}) * 8 / M_j sum to a completion-time floor.
//       A second rule serialises bytes through a definitely-shared
//       resource: all members that use resource r under every candidate
//       resolution push their full payload through r, so r's availability
//       caps their aggregate progress (and, across groups, the makespan).
//   UB  max-min fairness guarantees every group at least
//       min(rate limit, min over live members, min over the member's
//       *possible* resources r of avail(r) / N_max(r)) where N_max(r)
//       counts every (member, r) pair that could consume r under any
//       resolution. Summing segments at those floor rates gives a ceiling.
//
// Hosts are numbered as the search numbers them: by the identity slot of
// the query's QueryHosts (an alias and its address are one host, with one
// report in the HostStatus), then one abstract host per 0.0.0.0 occurrence.
// Availability mirrors the solver exactly: avail(r) = max(cap * f,
// cap - background) with f = FlowLevelEstimator's min_available_fraction,
// clamped at the 1e15 unconstrained-resource sentinel; unreported and
// 0.0.0.0 endpoints are idle 1e15-capacity hosts. A relative 1e-6 +
// absolute 1e-9 guard band absorbs the waterfill freeze epsilons so the
// interval is sound bitwise (ctcheck --diff-bound, invariant D502).
//
// Both bounds are *monotone in binding refinement*: pinning a variable can
// only raise LB and lower UB (candidate sets shrink, so optimistic maxima
// fall and pessimistic minima rise). That makes LB usable as a
// branch-and-bound pruning oracle on odometer prefixes (opt pass O500,
// SearchCounters::bound_prunes) under the O100-O400 byte-identity
// contract: a prefix is pruned only when its LB strictly exceeds the
// incumbent makespan, which no completion of the prefix can then beat or
// tie. See DESIGN.md, "Bound analysis".
#ifndef CLOUDTALK_SRC_LANG_BOUND_H_
#define CLOUDTALK_SRC_LANG_BOUND_H_

#include <cstdint>
#include <limits>
#include <unordered_set>
#include <vector>

#include "src/common/units.h"
#include "src/lang/analysis.h"
#include "src/status/status.h"

namespace cloudtalk {

namespace lang {

struct BoundOptions {
  // Mirror of FlowLevelEstimator's min_available_fraction: the solver's
  // availability floor avail(r) = max(cap * f, cap - background). Bounds
  // are sound for the estimator only when the fractions match (the engine
  // asks the estimator via CompletionEstimator::BoundAvailabilityFraction).
  double min_available_fraction = 0.1;
};

struct BoundInterval {
  Seconds lb = 0;
  Seconds ub = std::numeric_limits<Seconds>::infinity();

  bool Contains(Seconds t) const { return t >= lb && t <= ub; }
};

// Per chain group: the bound interval plus its deadline verdicts.
struct GroupBound {
  int group = 0;
  BoundInterval interval;
  Seconds deadline = std::numeric_limits<Seconds>::infinity();
  // LB > deadline: no binding can meet the deadline (ctlint E080, the
  // server admission fast path).
  bool provably_infeasible = false;
  // UB <= deadline (finite): every binding meets the deadline (W080).
  bool trivially_satisfied = false;
};

// The analysis. Build once per (query, status) pair; immutable afterwards,
// so shards of a multi-threaded walk share one instance and carry their own
// Cursor.
class BoundAnalysis {
 public:
  BoundAnalysis() = default;
  // Hosts are numbered as `status` numbers them. Unless the query says
  // `option allow_same`, distinct variables never share a host, which rules
  // out loopback between two of them and tightens the caps.
  static BoundAnalysis Build(const CompiledQuery& query, const HostStatus& status,
                             const BoundOptions& options = {});

  // Bounds with no variables pinned: sound for every legal binding.
  const BoundInterval& query_bounds() const { return query_bounds_; }
  const std::vector<GroupBound>& group_bounds() const { return group_bounds_; }

  // Bounds under a partial binding: var_host[v] is the host v is bound to,
  // HostOf(status.identity(), slot) of its candidate's slot, or -1 (unbound).
  // Monotone: pinning more variables never lowers lb and never raises ub.
  BoundInterval BindingBounds(const std::vector<int32_t>& var_host) const;
  std::vector<GroupBound> GroupBindingBounds(const std::vector<int32_t>& var_host) const;

  // Incremental lower-bound cursor for the exhaustive odometer. One per
  // shard; Assign/Unassign mirror the walk's slot writes and LowerBound()
  // re-evaluates only the chain groups a touched variable feeds.
  class Cursor {
   public:
    void Assign(int var, int32_t host);
    void Unassign(int var);
    // Sound lower bound on the makespan of every completion of the current
    // partial assignment (guard band applied). Conservative subset of
    // BindingBounds' lb (the cross-group serialisation rule is skipped to
    // keep the per-node cost O(groups)).
    Seconds LowerBound();

   private:
    friend class BoundAnalysis;
    explicit Cursor(const BoundAnalysis* analysis);
    const BoundAnalysis* a_ = nullptr;
    std::vector<int32_t> var_host_;
    std::vector<Seconds> group_lb_;
    std::vector<char> group_dirty_;
  };
  Cursor MakeCursor() const { return Cursor(this); }

 private:
  friend class Cursor;
  // Per-host resource kinds, in avail_ stride order.
  enum Kind { kTx = 0, kRx = 1, kDiskRead = 2, kDiskWrite = 3, kKinds = 4 };

  struct Ep {
    enum What { kHost, kVar, kDisk };
    What what = kHost;
    int32_t index = 0;  // Host id for kHost, variable index for kVar.
  };
  struct Member {
    Ep src, dst;
    double bytes = 0;
    int group = 0;
  };
  struct GroupInfo {
    std::vector<int> members_by_size;  // Member indices, bytes ascending.
    double rate_limit = std::numeric_limits<double>::infinity();
    Seconds start = 0;  // Solver start: max(0, group start).
    Seconds deadline = std::numeric_limits<Seconds>::infinity();
  };
  // Resolution of one endpoint under a partial assignment.
  struct EpView {
    int32_t host = -1;    // >= 0 when resolved to a single host.
    int var = -1;         // >= 0 when still an open variable.
    bool from_var = false;  // Resolved host came from a (pinned) variable.
  };

  // Appends a host with `report`'s availability (null: unreported).
  int32_t AddHost(const StatusReport* report, double fraction);
  EpView View(const Ep& ep, const int32_t* var_host) const;
  bool PossiblyEqual(const EpView& s, const EpView& d) const;
  bool DefinitelyEqual(const EpView& s, const EpView& d) const;
  double Avail(int32_t host, Kind kind) const { return avail_[host * kKinds + kind]; }
  double CapSide(const EpView& v, Kind kind) const;    // Optimistic (max).
  double FloorSide(const EpView& v, Kind kind) const;  // Pessimistic (min / N).
  // Optimistic best-case bottleneck of one member (+inf when a loopback
  // resolution exists).
  double MemberCap(const Member& m, const int32_t* var_host) const;
  // Pessimistic rate floor of one member (kHugeCapacity when the member
  // definitely consumes nothing).
  double MemberFloor(const Member& m, const int32_t* var_host) const;
  // Appends the member's definite (resource, bytes) uses: resources it
  // consumes under every candidate resolution. Resources are encoded as
  // host * kKinds + kind.
  void MemberDefinite(const Member& m, const int32_t* var_host,
                      std::vector<std::pair<int32_t, double>>* out) const;
  // Chain rule: the segments' time at the members' optimistic caps (LB) or
  // pessimistic floors (UB), from the group's start.
  Seconds ChainTime(const GroupInfo& g, const int32_t* var_host, bool optimistic) const;
  // Definitely-shared-resource rule: every member that uses resource r under
  // every resolution pushes its full payload through r, from `start`.
  Seconds SharedResourceBound(std::vector<std::pair<int32_t, double>> defs,
                              Seconds start) const;
  Seconds GroupLowerBound(const GroupInfo& g, const int32_t* var_host) const;
  Seconds GroupUpperBound(const GroupInfo& g, const int32_t* var_host) const;
  Seconds CrossGroupLowerBound(const int32_t* var_host) const;

  bool distinct_ = true;
  std::vector<double> avail_;  // host * kKinds + kind, clamped at 1e15.

  std::vector<std::vector<int32_t>> var_candidates_;
  std::vector<std::unordered_set<int32_t>> var_pool_set_;
  std::vector<double> var_max_avail_;   // var * kKinds + kind.
  std::vector<double> var_min_floor_;   // var * kKinds + kind (avail / N_max).
  std::vector<char> pools_intersect_;   // var * nvars + var.

  std::vector<Member> members_;
  std::vector<GroupInfo> groups_;
  std::vector<std::vector<int>> groups_of_var_;  // Deduped group indices.
  std::vector<double> n_max_;  // Per resource: possible consumer count.
  Seconds min_group_start_ = 0;

  BoundInterval query_bounds_;
  std::vector<GroupBound> group_bounds_;
};

// The guard band covering the solver's waterfill freeze epsilons; applied
// to every bound this library reports.
Seconds GuardLowerBound(Seconds raw);
Seconds GuardUpperBound(Seconds raw);

}  // namespace lang
}  // namespace cloudtalk

#endif  // CLOUDTALK_SRC_LANG_BOUND_H_
