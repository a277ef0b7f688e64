// Fluid (flow-level) network/disk simulation.
//
// This engine plays two roles in the reproduction:
//
//  1. It is the *cluster substrate*: the mini-HDFS, mini-MapReduce and
//     harness experiments execute their transfers here, with completion
//     times emerging from max-min fair sharing of NIC, fabric-link and disk
//     bandwidth (the paper measured real clusters; per its own Section 3
//     argument, contention in full-bisection fabrics forms exactly at these
//     resources).
//
//  2. It implements CloudTalk's *flow-level estimator* (Section 4): "the
//     flow-level estimator arithmetically allocates a rate to each flow
//     using the assumption that bottleneck links are shared equally ... the
//     algorithm iteratively computes flow rates until they stabilize."
//
// Flows are grouped: all member flows of a FlowGroup share one rate. This is
// exactly the coupling the CloudTalk language expresses with mutual
// rate/transfer references (e.g. the HDFS write daisy chain, where the
// client->r1 network flow and the r1->disk write proceed in lockstep).
//
// Background (inelastic) traffic can be registered per resource; elastic
// flows only get the remaining capacity, floored at a configurable fraction
// of the resource (a TCP flow competing with line-rate UDP still makes some
// progress).
#ifndef CLOUDTALK_SRC_FLUIDSIM_FLUID_SIMULATION_H_
#define CLOUDTALK_SRC_FLUIDSIM_FLUID_SIMULATION_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <queue>
#include <vector>

#include "src/check/check.h"
#include "src/common/lock_registry.h"
#include "src/common/units.h"
#include "src/fluidsim/resources.h"
#include "src/topology/topology.h"

namespace cloudtalk {

using GroupId = int64_t;
inline constexpr GroupId kInvalidGroup = -1;
inline constexpr Bps kUnlimitedRate = std::numeric_limits<Bps>::infinity();

// One data transfer inside a group: it consumes every resource in
// `resources` at the group's common rate until `size` bytes have moved.
struct FluidFlow {
  std::vector<ResourceId> resources;
  Bytes size = 0;
};

struct GroupSpec {
  std::vector<FluidFlow> flows;
  Bps rate_limit = kUnlimitedRate;  // Explicit `rate` restriction, if any.
  Seconds start_time = 0;           // Absolute sim time; clamped to now().
};

class FluidSimulation {
 public:
  using CompletionCallback = std::function<void(GroupId, Seconds)>;

  FluidSimulation(const Topology* topo, double min_available_fraction = 0.1);

  const Topology& topology() const { return *topo_; }
  const ResourceRegistry& resources() const { return registry_; }

  Seconds now() const { return now_; }

  // ---- Background (inelastic) load ----
  void SetBackground(ResourceId r, Bps usage);
  void AddBackground(ResourceId r, Bps delta);
  Bps background(ResourceId r) const { return background_[r]; }
  // Adds `rate` of inelastic traffic along src's uplink path to dst
  // (NIC up, fabric links, NIC down). Returns the resources touched so the
  // caller can undo with AddBackground(r, -rate).
  std::vector<ResourceId> AddBackgroundPath(NodeId src, NodeId dst, Bps rate,
                                            uint64_t ecmp_salt = 0);

  // ---- Elastic flow groups ----
  GroupId AddGroup(GroupSpec spec, CompletionCallback on_complete = nullptr);
  void CancelGroup(GroupId id);
  bool GroupActive(GroupId id) const;
  // Current allocated rate; 0 if not started/finished.
  Bps GroupRate(GroupId id) const;
  // Bytes already moved by member `flow_index` of the group.
  Bytes GroupTransferred(GroupId id, int flow_index = 0) const;

  // ---- Observation ----
  // Instantaneous usage: background plus elastic consumption. This is what
  // status servers report (subject to their own sampling delay).
  Bps Usage(ResourceId r) const;
  // Usage of every resource in one pass (one rate recomputation + one sweep
  // over active flows) — used by the harness to refresh all status servers
  // at each measurement tick without quadratic cost.
  std::vector<Bps> UsageSnapshot() const;
  Bps Capacity(ResourceId r) const { return registry_.capacity(r); }

  // ---- Event loop ----
  void Schedule(Seconds time, std::function<void()> fn);
  // Advances simulated time, settling transfers and firing callbacks, until
  // `t`. Safe to call repeatedly.
  void RunUntil(Seconds t);
  // Runs until no active group and no pending event remain (or progress
  // stalls because every remaining group has zero rate and no event is
  // pending; returns false in that case).
  bool RunUntilIdle(Seconds hard_deadline = 1e12);

  // Number of max-min recomputations performed (for perf tests).
  int64_t recompute_count() const { return recompute_count_; }

  // Forces a rate recomputation and re-runs every structural invariant
  // (allocation optimality/conservation, residual bytes, event-queue
  // sanity). A no-op sweep without CLOUDTALK_INVARIANTS; tools/ctcheck and
  // the scenario fixtures call it at the end of a run.
  void CheckInvariantsNow();

  // Rewinds the simulation to t = 0 with no groups and no pending events,
  // keeping the topology, the resource registry (including capacity edits)
  // and the registered background load. This is the reuse path of the
  // flow-level estimator: one star topology + simulation is built per query
  // and Reset() between bindings instead of reconstructing everything
  // (ISSUE 1 — per-binding allocations dominated evaluation cost).
  void Reset();

  // ---- Incremental re-solve across bindings (ISSUE 6) ----
  // SaveCheckpoint snapshots the complete trajectory state (groups, member
  // progress, pending events, clock). The first rate recomputation after the
  // save additionally captures the solver's per-component solution, so every
  // RestoreCheckpoint rewinds to the snapshot *with* that solution cached:
  // components whose flows are not re-bound afterwards are reused bitwise
  // instead of re-water-filled. Groups added after the save are discarded by
  // RestoreCheckpoint.
  void SaveCheckpoint();
  void RestoreCheckpoint();

  // Re-binding patch interface: rewrite one member's resource set in place
  // (sizes/progress are untouched) and mark the group dirty so the connected
  // component containing it is re-water-filled cold at the next recompute.
  // Callers must pair every mutation with MarkGroupDirty.
  std::vector<ResourceId>& MutableMemberResources(GroupId id, int flow_index);
  void MarkGroupDirty(GroupId id);

  // Completion time recorded when the group finished; -1 while active.
  Seconds GroupFinishTime(GroupId id) const { return groups_[id].finish_time; }

  // Per-solver cost counters. recompute_count() survives Reset() by design;
  // callers wanting per-query cost snapshot this struct and subtract.
  struct SolverCounters {
    int64_t recomputes = 0;
    int64_t delta_component_hits = 0;
    int64_t cold_component_solves = 0;
  };
  SolverCounters solver_counters() const {
    return {recompute_count_, delta_component_hits_, cold_component_solves_};
  }

 private:
  struct Member {
    std::vector<ResourceId> resources;
    Bytes remaining = 0;
    Bytes transferred = 0;
    bool done = false;
  };
  struct Group {
    GroupId id = kInvalidGroup;
    std::vector<Member> members;
    Bps rate_limit = kUnlimitedRate;
    Seconds start_time = 0;
    bool started = false;
    bool finished = false;
    bool cancelled = false;
    Bps rate = 0;
    Seconds finish_time = -1;
    CompletionCallback on_complete;
    // Lazy-progress epoch: members hold their byte counts as of this time;
    // they advance only when the group's own component re-solves, one of its
    // members completes, or a run horizon forces a global settle. Progress is
    // therefore a pure function of the group's component inputs — foreign
    // components' event times never split its float accumulation.
    Seconds epoch_time = 0;
    // Per-group earliest-completion cache: smallest `remaining` over live
    // members, maintained by Settle() so NextCompletionTime() is O(active
    // groups) instead of O(total members) between completions.
    Bytes min_remaining = 0;
    bool min_remaining_valid = false;
    // Delta-solve cache: the connected component this group belonged to at
    // its last cold water-fill (comp_id is a process-monotone epoch id, so a
    // match across recomputes implies the exact same group set), the size of
    // that component, and the solved rate. delta_dirty forces the component
    // cold at the next recompute.
    bool delta_dirty = true;
    bool cached_fallback = false;
    int32_t comp_id = -1;
    int32_t comp_size = 0;
    Bps cached_rate = 0;
  };
  struct TimedEvent {
    Seconds time;
    int64_t seq;
    std::function<void()> fn;
    bool operator>(const TimedEvent& other) const {
      return time != other.time ? time > other.time : seq > other.seq;
    }
  };

  // Recomputes the max-min allocation over all started, unfinished groups.
  // Per connected component of the group/resource incidence graph: clean
  // components with a bitwise-matching cached solution are reused, dirty ones
  // are re-water-filled over the SoA scratch arrays.
  void RecomputeRates();
  // Progressive filling over the component-contiguous slot/group ranges
  // [group_begin, group_end) x [slot_begin, slot_end). Returns rounds used.
  int WaterfillComponent(int group_begin, int group_end, int slot_begin, int slot_end);
  // Post-allocation checks (I101/I102) against the scratch left by the last
  // RecomputeRates. Compiled to nothing without CLOUDTALK_INVARIANTS.
  void VerifyAllocation();
  // Advances `group`'s members from their epoch to `target` at the current
  // rate (one fused step per member — this is the only place bytes move),
  // refreshes the min_remaining cache and finishes the group if every member
  // completed. The exact arithmetic of the old eager settle, applied lazily.
  void MaterializeGroup(Group& group, Seconds target);
  // Completion sweep at `target`: materializes exactly the groups whose own
  // completion time has arrived. Non-completing groups are left on their
  // epoch, so foreign events never split their accumulation.
  void SettleUntil(Seconds target);
  // Earliest member completion time across active groups (inf if none).
  // Computed from each group's epoch state, so the prediction is a pure
  // per-component value that does not drift with foreign events.
  Seconds NextCompletionTime() const;
  Seconds GroupCompletionTime(const Group& group) const;
  void FinishGroupIfDone(Group& group);
  // Fast-forward prologue of the first recompute after RestoreCheckpoint:
  // trajectory closures untouched by re-binding patches are replayed to their
  // recorded final states instead of being re-simulated event by event.
  void AttemptFastForward();
  void CaptureCheckpointTrajectory();
  int TrajFind(int g);

  const Topology* topo_;
  ResourceRegistry registry_;
  double min_available_fraction_;
  std::vector<Bps> background_;

  std::vector<Group> groups_;
  std::vector<GroupId> active_groups_;  // started && !finished && !cancelled
  bool rates_dirty_ = true;
  Seconds now_ = 0;
  // Timestamp groups finishing inside SettleUntil receive (the clock value
  // the event loop is about to advance to).
  Seconds settle_stamp_ = 0;
  bool settling_ = false;
  int64_t next_seq_ = 0;
  int64_t recompute_count_ = 0;
  std::priority_queue<TimedEvent, std::vector<TimedEvent>, std::greater<TimedEvent>> events_;

  int64_t delta_component_hits_ = 0;
  int64_t cold_component_solves_ = 0;
  // Epoch counter handing out component ids; never rewound (a RestoreCheckpoint
  // must not let a post-checkpoint id alias a captured one).
  int32_t next_comp_id_ = 0;

  // Scratch for RecomputeRates(), kept as members so repeated recomputes
  // (and repeated Reset()/re-run cycles) do not reallocate. The incidence is
  // CSR over *component-ordered* groups and *component-renumbered* slots, so
  // each component's water-fill scans contiguous flat arrays (SoA) that the
  // compiler can vectorize. slot_of_resource_ is dense over all resources
  // but reset sparsely: only slots touched by the previous recompute are
  // cleared at its end.
  std::vector<int> slot_of_resource_;
  std::vector<ResourceId> scratch_used_resources_;  // provisional slot -> resource
  // Pass-1 CSR in active-group order with provisional (discovery-order) slots.
  std::vector<int> raw_row_start_;
  std::vector<int> raw_slot_;
  std::vector<double> raw_weight_;
  // Union-find over active-group indices, plus per-slot/group component ids.
  std::vector<int> uf_parent_;
  std::vector<int> slot_owner_group_;
  std::vector<int> comp_of_group_;  // active index -> dense component index
  std::vector<int> comp_of_slot_;
  // Final component-contiguous layout.
  std::vector<int> comp_group_start_;  // comp -> first position in ord_group_
  std::vector<int> comp_slot_start_;   // comp -> first renumbered slot
  std::vector<int> ord_group_;         // position -> active index
  std::vector<int> slot_perm_;         // provisional slot -> renumbered slot
  std::vector<int> row_start_;         // position-indexed CSR over renumbered slots
  std::vector<int> row_slot_;
  std::vector<double> row_weight_;
  // SoA per renumbered slot.
  std::vector<double> slot_avail_;
  std::vector<double> slot_weight_unfrozen_;
  std::vector<double> slot_initial_avail_;  // VerifyAllocation's reference.
  std::vector<ResourceId> slot_resource_;
  // SoA per ordered group position.
  std::vector<char> scratch_frozen_;
  std::vector<Bps> scratch_rate_;
  std::vector<double> scratch_limit_;
  // avail each resource had when its component last solved cold; a clean
  // component is only reused if every slot's freshly computed avail is
  // bitwise equal (this covers SetBackground and capacity edits without
  // needing mutation hooks).
  std::vector<double> prev_avail_of_resource_;
  // Invariant-checking bookkeeping (maintained only with CLOUDTALK_INVARIANTS):
  // group count of the last recompute, and which groups were frozen by the
  // no-progress fallback (exempt from the bottleneck invariant).
  int scratch_n_ = 0;
  std::vector<char> scratch_fallback_;

  // ---- Checkpoint (ISSUE 6) ----
  struct MemberState {
    std::vector<ResourceId> resources;
    Bytes remaining = 0;
    Bytes transferred = 0;
    bool done = false;
  };
  struct GroupState {
    bool started = false;
    bool finished = false;
    bool cancelled = false;
    Bps rate = 0;
    Seconds finish_time = -1;
    Seconds epoch_time = 0;
    std::vector<MemberState> members;
  };
  struct GroupSolution {
    bool fallback = false;
    int32_t comp_id = -1;
    int32_t comp_size = 0;
    Bps rate = 0;
  };
  struct Checkpoint {
    bool valid = false;
    Seconds now = 0;
    int64_t next_seq = 0;
    bool rates_dirty = true;
    std::vector<GroupState> groups;
    std::vector<GroupId> active_groups;
    std::priority_queue<TimedEvent, std::vector<TimedEvent>, std::greater<TimedEvent>> events;
    // One-shot solver capture: filled by the first RecomputeRates after the
    // save, whose input state is exactly the checkpointed state.
    bool solution_captured = false;
    std::vector<GroupSolution> solutions;  // parallel to groups
    std::vector<std::pair<ResourceId, double>> solved_avail;
    // Final-trajectory capture: the end state of the pristine run executed
    // right after the save (clock, per-group outcome, and the union over
    // time of component merges — the "trajectory closure"). Because group
    // progress is a pure per-component function, a later binding whose
    // patches leave a closure untouched can fast-forward every group in it
    // straight to this recorded final state instead of re-simulating.
    bool final_captured = false;
    bool final_valid = false;
    Seconds final_now = 0;
    std::vector<GroupState> final_groups;  // parallel to groups
    std::vector<int> traj_parent;          // closure union-find, parallel to groups
    std::vector<std::pair<ResourceId, double>> final_avail;
  };
  Checkpoint checkpoint_;
  void CaptureCheckpointSolution();
  // Trajectory-closure union-find over *all* group ids, recorded during the
  // pristine post-save run; groups that ever share a component get one root.
  std::vector<int> traj_parent_;
  bool traj_tracking_ = false;
  // True while the sim has run only the pristine post-save trajectory (no
  // Reset/AddGroup/Cancel/SetBackground since SaveCheckpoint); gates the
  // final-state capture.
  bool run_clean_since_save_ = false;
  // Set by RestoreCheckpoint when a valid final snapshot exists; the next
  // RecomputeRates tries the fast-forward before solving.
  bool ff_pending_ = false;
  std::vector<char> traj_root_dirty_;   // scratch for AttemptFastForward
  std::vector<char> ff_resource_mark_;  // per-resource "touched by a re-simulated group"
  // Single-writer check: the event loop and mutators must stay on one thread
  // at a time (the parallel evaluator gives each worker its own simulation).
  mutable AccessCell access_cell_{"fluidsim"};

  friend struct FluidSimTestPeer;  // tests/check_test.cc corrupts state through this.
};

}  // namespace cloudtalk

#endif  // CLOUDTALK_SRC_FLUIDSIM_FLUID_SIMULATION_H_
