#include "src/fluidsim/fluid_simulation.h"

#include <algorithm>
#include <cmath>

#include "src/common/logging.h"
#include "src/obs/metrics.h"

namespace cloudtalk {

namespace {
// Transfers below this many bytes count as complete (guards float drift).
constexpr Bytes kByteEpsilon = 1e-6;
constexpr Seconds kTimeEpsilon = 1e-12;

// Time comparisons need a tolerance that scales with the magnitude of the
// timestamp: at t = 10^6 s a double's ULP is ~2.2e-10 s, far above the old
// absolute 1e-12 epsilon, so completion times computed as now + dt could
// land an ULP before `now` and trip the scheduled-in-the-past check on
// long-horizon runs (the regression_epsilon_drift scenario guards this).
Seconds TimeEps(Seconds t) { return std::max(kTimeEpsilon, 2e-15 * std::abs(t)); }

// Smallest fair share avail[k]/wuf[k] over slots with unfrozen weight. The
// SoA layout makes this the solver's innermost hot loop; it autovectorizes
// under -O2.
double BottleneckLevel(const double* avail, const double* wuf, int count) {
  double out = std::numeric_limits<double>::infinity();
  for (int k = 0; k < count; ++k) {
    if (wuf[k] > 0) {
      out = std::min(out, avail[k] / wuf[k]);
    }
  }
  return out;
}
}  // namespace

FluidSimulation::FluidSimulation(const Topology* topo, double min_available_fraction)
    : topo_(topo), registry_(*topo), min_available_fraction_(min_available_fraction) {
  background_.assign(registry_.num_resources(), 0.0);
  // NaN compares unequal to everything, so untouched resources can never
  // satisfy the delta cache's avail-equality test.
  prev_avail_of_resource_.assign(registry_.num_resources(),
                                 std::numeric_limits<double>::quiet_NaN());
}

void FluidSimulation::SetBackground(ResourceId r, Bps usage) {
  background_[r] = std::max(0.0, usage);
  rates_dirty_ = true;
  // The inelastic load is an input of every trajectory: a pristine post-save
  // run is over, and any pending fast-forward no longer matches reality.
  // (Per-resource avail is re-checked bitwise anyway; this is the cheap,
  // coarse gate.)
  run_clean_since_save_ = false;
  traj_tracking_ = false;
  ff_pending_ = false;
}

void FluidSimulation::AddBackground(ResourceId r, Bps delta) {
  SetBackground(r, background_[r] + delta);
}

std::vector<ResourceId> FluidSimulation::AddBackgroundPath(NodeId src, NodeId dst, Bps rate,
                                                           uint64_t ecmp_salt) {
  std::vector<ResourceId> touched = registry_.NetworkPath(*topo_, src, dst, ecmp_salt);
  for (ResourceId r : touched) {
    AddBackground(r, rate);
  }
  return touched;
}

GroupId FluidSimulation::AddGroup(GroupSpec spec, CompletionCallback on_complete) {
  CT_OBS_INC("M303");
  // A structural mutation ends the pristine post-save window (the trajectory
  // union-find is sized to the checkpointed group set) and invalidates any
  // pending fast-forward.
  run_clean_since_save_ = false;
  traj_tracking_ = false;
  ff_pending_ = false;
  const GroupId id = static_cast<GroupId>(groups_.size());
  Group group;
  group.id = id;
  group.rate_limit = spec.rate_limit;
  group.start_time = std::max(spec.start_time, now_);
  group.on_complete = std::move(on_complete);
  group.members.reserve(spec.flows.size());
  for (FluidFlow& flow : spec.flows) {
    Member member;
    member.resources = std::move(flow.resources);
    member.remaining = flow.size;
    member.done = flow.size <= kByteEpsilon;
    group.members.push_back(std::move(member));
  }
  groups_.push_back(std::move(group));

  Group& stored = groups_.back();
  const bool empty_group =
      std::all_of(stored.members.begin(), stored.members.end(),
                  [](const Member& m) { return m.done; });
  auto start_group = [this, id] {
    Group& g = groups_[id];
    if (g.cancelled || g.started) {
      return;
    }
    g.started = true;
    g.epoch_time = now_;
    g.delta_dirty = true;  // Joining the active set changes its component.
    active_groups_.push_back(id);
    rates_dirty_ = true;
    FinishGroupIfDone(g);
  };
  if (empty_group) {
    // Zero-size groups complete instantly at their start time.
    Schedule(stored.start_time, start_group);
  } else if (stored.start_time <= now_ + TimeEps(now_)) {
    start_group();
  } else {
    Schedule(stored.start_time, start_group);
  }
  return id;
}

void FluidSimulation::CancelGroup(GroupId id) {
  Group& group = groups_[id];
  if (group.finished || group.cancelled) {
    return;
  }
  group.cancelled = true;
  group.delta_dirty = true;
  rates_dirty_ = true;
  run_clean_since_save_ = false;
  traj_tracking_ = false;
  ff_pending_ = false;
}

bool FluidSimulation::GroupActive(GroupId id) const {
  const Group& group = groups_[id];
  return group.started && !group.finished && !group.cancelled;
}

Bps FluidSimulation::GroupRate(GroupId id) const {
  return GroupActive(id) ? groups_[id].rate : 0.0;
}

Bytes FluidSimulation::GroupTransferred(GroupId id, int flow_index) const {
  const Group& group = groups_[id];
  if (flow_index < 0 || flow_index >= static_cast<int>(group.members.size())) {
    CT_INVARIANT(false, "I105", "GroupTransferred queried with an invalid member index")
        .With("group", id)
        .With("flow_index", flow_index)
        .With("members", group.members.size());
    return 0;  // Keep log-and-continue runs in-bounds.
  }
  // Members hold their byte counts as of the group's epoch; progress since
  // then is a virtual read (rate x elapsed), so observers never force a
  // materialization that would split the group's float accumulation.
  const Member& member = group.members[flow_index];
  if (!GroupActive(id) || group.rate <= 0 || member.done) {
    return member.transferred;
  }
  const Bytes virt = std::min(group.rate * (now_ - group.epoch_time) / 8.0, member.remaining);
  return member.transferred + std::max(0.0, virt);
}

Bps FluidSimulation::Usage(ResourceId r) const {
  // Elastic consumption must reflect *current* rates.
  const_cast<FluidSimulation*>(this)->RecomputeRates();
  Bps usage = background_[r];
  for (GroupId id : active_groups_) {
    const Group& group = groups_[id];
    if (!GroupActive(id)) {
      continue;
    }
    for (const Member& member : group.members) {
      if (member.done) {
        continue;
      }
      for (ResourceId res : member.resources) {
        if (res == r) {
          usage += group.rate;
        }
      }
    }
  }
  return usage;
}

std::vector<Bps> FluidSimulation::UsageSnapshot() const {
  const_cast<FluidSimulation*>(this)->RecomputeRates();
  std::vector<Bps> usage = background_;
  for (GroupId id : active_groups_) {
    const Group& group = groups_[id];
    if (!GroupActive(id)) {
      continue;
    }
    for (const Member& member : group.members) {
      if (member.done) {
        continue;
      }
      for (ResourceId r : member.resources) {
        usage[r] += group.rate;
      }
    }
  }
  return usage;
}

void FluidSimulation::Schedule(Seconds time, std::function<void()> fn) {
  CT_INVARIANT(time >= now_ - TimeEps(now_), "I103", "event scheduled before the current time")
      .With("time", time)
      .With("now", now_)
      .With("behind_by", now_ - time);
  events_.push(TimedEvent{std::max(time, now_), next_seq_++, std::move(fn)});
}

void FluidSimulation::RecomputeRates() {
  if (!rates_dirty_) {
    return;
  }
  if (ff_pending_) {
    ff_pending_ = false;
    AttemptFastForward();
  }
  // Materializing a group inside the solve tail can epsilon-complete a
  // member (a residue below the byte/time epsilons), which changes the
  // incidence this very recompute partitioned. Rare; redo the layout until
  // it is stable (completion is monotone, so this terminates).
  for (int pass = 1;; ++pass) {
    rates_dirty_ = false;
    ++recompute_count_;
    CT_OBS_INC("M302");

  // Compact the active list (groups may have finished or been cancelled).
  active_groups_.erase(std::remove_if(active_groups_.begin(), active_groups_.end(),
                                      [this](GroupId id) { return !GroupActive(id); }),
                       active_groups_.end());

  const int n = static_cast<int>(active_groups_.size());
  scratch_n_ = n;  // VerifyAllocation's view of how much scratch is valid.
  if (n == 0) {
    if (pass == 1) {
      CaptureCheckpointSolution();
    }
    return;
  }

  // Sparse resource interning: touch only resources some active member uses.
  // All scratch lives in members (cleared, not reallocated) so that a
  // simulation reused across thousands of estimator bindings stays
  // allocation-free in steady state.
  if (slot_of_resource_.size() != static_cast<size_t>(registry_.num_resources())) {
    slot_of_resource_.assign(registry_.num_resources(), -1);
  }
  if (prev_avail_of_resource_.size() != static_cast<size_t>(registry_.num_resources())) {
    prev_avail_of_resource_.resize(registry_.num_resources(),
                                   std::numeric_limits<double>::quiet_NaN());
  }
  scratch_used_resources_.clear();
  raw_row_start_.resize(n + 1);
  raw_slot_.clear();
  raw_weight_.clear();

  // Pass 1: CSR incidence in active-group order with discovery-order slots.
  // Duplicate traversals of one resource by one group merge into a weight.
  for (int i = 0; i < n; ++i) {
    raw_row_start_[i] = static_cast<int>(raw_slot_.size());
    const Group& group = groups_[active_groups_[i]];
    for (const Member& member : group.members) {
      if (member.done) {
        continue;
      }
      for (ResourceId r : member.resources) {
        int slot = slot_of_resource_[r];
        if (slot < 0) {
          slot = static_cast<int>(scratch_used_resources_.size());
          slot_of_resource_[r] = slot;
          scratch_used_resources_.push_back(r);
        }
        bool merged = false;
        for (size_t k = raw_row_start_[i]; k < raw_slot_.size(); ++k) {
          if (raw_slot_[k] == slot) {
            raw_weight_[k] += 1.0;
            merged = true;
            break;
          }
        }
        if (!merged) {
          raw_slot_.push_back(slot);
          raw_weight_.push_back(1.0);
        }
      }
    }
  }
  raw_row_start_[n] = static_cast<int>(raw_slot_.size());
  const int num_slots = static_cast<int>(scratch_used_resources_.size());

  // Connected components of the group/resource bipartite graph: union every
  // pair of groups sharing a slot. Water-fill levels are computed *per
  // component* (a clean component's allocation is then a pure function of
  // unchanged inputs, which is what makes delta reuse bitwise-safe).
  uf_parent_.resize(n);
  for (int i = 0; i < n; ++i) {
    uf_parent_[i] = i;
  }
  auto find = [this](int x) {
    int root = x;
    while (uf_parent_[root] != root) {
      root = uf_parent_[root];
    }
    while (uf_parent_[x] != root) {
      const int next = uf_parent_[x];
      uf_parent_[x] = root;
      x = next;
    }
    return root;
  };
  slot_owner_group_.assign(num_slots, -1);
  for (int i = 0; i < n; ++i) {
    for (int k = raw_row_start_[i]; k < raw_row_start_[i + 1]; ++k) {
      const int s = raw_slot_[k];
      if (slot_owner_group_[s] < 0) {
        slot_owner_group_[s] = i;
      } else {
        uf_parent_[find(i)] = find(slot_owner_group_[s]);
      }
    }
  }
  // Dense component ids ordered by first appearance (ord_group_ doubles as
  // the root->component map until the counting sort below overwrites it).
  comp_of_group_.resize(n);
  ord_group_.assign(n, -1);
  int num_comps = 0;
  for (int i = 0; i < n; ++i) {
    const int root = find(i);
    if (ord_group_[root] < 0) {
      ord_group_[root] = num_comps++;
    }
    comp_of_group_[i] = ord_group_[root];
  }

  // Counting-sort groups into component-contiguous order (stable: ascending
  // active index within a component, so a single-component recompute scans
  // groups in exactly the legacy order).
  comp_group_start_.assign(num_comps + 1, 0);
  for (int i = 0; i < n; ++i) {
    ++comp_group_start_[comp_of_group_[i] + 1];
  }
  for (int c = 1; c <= num_comps; ++c) {
    comp_group_start_[c] += comp_group_start_[c - 1];
  }
  for (int i = 0; i < n; ++i) {
    ord_group_[comp_group_start_[comp_of_group_[i]]++] = i;
  }
  for (int c = num_comps; c >= 1; --c) {
    comp_group_start_[c] = comp_group_start_[c - 1];
  }
  comp_group_start_[0] = 0;

  // Trajectory closures (pristine post-save run only): groups that ever
  // share a component are unioned, so RestoreCheckpoint knows which sets of
  // groups evolve independently of every re-binding patch. Recorded on the
  // instantaneous partition each recompute; the union over time also links
  // delayed-start groups that merge components mid-run.
  if (traj_tracking_) {
    for (int c = 0; c < num_comps; ++c) {
      const int root =
          TrajFind(static_cast<int>(active_groups_[ord_group_[comp_group_start_[c]]]));
      for (int p = comp_group_start_[c] + 1; p < comp_group_start_[c + 1]; ++p) {
        traj_parent_[TrajFind(static_cast<int>(active_groups_[ord_group_[p]]))] = root;
      }
    }
  }

  // Same for slots, giving each component a contiguous renumbered slot range
  // so the bottleneck min-reduction runs over flat subarrays.
  comp_of_slot_.resize(num_slots);
  for (int s = 0; s < num_slots; ++s) {
    comp_of_slot_[s] = comp_of_group_[slot_owner_group_[s]];
  }
  comp_slot_start_.assign(num_comps + 1, 0);
  for (int s = 0; s < num_slots; ++s) {
    ++comp_slot_start_[comp_of_slot_[s] + 1];
  }
  for (int c = 1; c <= num_comps; ++c) {
    comp_slot_start_[c] += comp_slot_start_[c - 1];
  }
  slot_perm_.resize(num_slots);
  for (int s = 0; s < num_slots; ++s) {
    slot_perm_[s] = comp_slot_start_[comp_of_slot_[s]]++;
  }
  for (int c = num_comps; c >= 1; --c) {
    comp_slot_start_[c] = comp_slot_start_[c - 1];
  }
  comp_slot_start_[0] = 0;

  // SoA slot state. The floor models a transport that still progresses
  // against inelastic line-rate blasts.
  slot_avail_.resize(num_slots);
  slot_weight_unfrozen_.assign(num_slots, 0.0);
  slot_initial_avail_.resize(num_slots);
  slot_resource_.resize(num_slots);
  for (int s = 0; s < num_slots; ++s) {
    const int ns = slot_perm_[s];
    const ResourceId r = scratch_used_resources_[s];
    const Bps cap = registry_.capacity(r);
    const double avail = std::max(cap * min_available_fraction_, cap - background_[r]);
    slot_resource_[ns] = r;
    slot_avail_[ns] = avail;
    slot_initial_avail_[ns] = avail;
  }

  // Final CSR over ordered groups and renumbered slots; weight_unfrozen
  // accumulates here in ordered-group order (within a component that is the
  // legacy active order, so the sums are bitwise identical).
  row_start_.resize(n + 1);
  row_slot_.resize(raw_slot_.size());
  row_weight_.resize(raw_weight_.size());
  scratch_frozen_.assign(n, 0);
  scratch_rate_.assign(n, 0.0);
  scratch_limit_.resize(n);
  if constexpr (check::kInvariantsEnabled) {
    scratch_fallback_.assign(n, 0);
  }
  int nnz = 0;
  for (int p = 0; p < n; ++p) {
    row_start_[p] = nnz;
    const int i = ord_group_[p];
    scratch_limit_[p] = groups_[active_groups_[i]].rate_limit;
    for (int k = raw_row_start_[i]; k < raw_row_start_[i + 1]; ++k) {
      const int ns = slot_perm_[raw_slot_[k]];
      row_slot_[nnz] = ns;
      row_weight_[nnz] = raw_weight_[k];
      slot_weight_unfrozen_[ns] += raw_weight_[k];
      ++nnz;
    }
  }
  row_start_[n] = nnz;

  // Solve (or reuse) each component independently.
  int waterfill_rounds = 0;
  for (int c = 0; c < num_comps; ++c) {
    const int gb = comp_group_start_[c];
    const int ge = comp_group_start_[c + 1];
    const int sb = comp_slot_start_[c];
    const int se = comp_slot_start_[c + 1];

    // A component is reused bitwise iff every group is clean and carries the
    // same component epoch id, the component has the exact group set of that
    // epoch (epoch ids are never reissued, so id + size pins the set), and
    // every slot's freshly computed avail equals the avail the cached solve
    // consumed (covers background/capacity edits without mutation hooks).
    const Group& first = groups_[active_groups_[ord_group_[gb]]];
    bool reuse = first.comp_id >= 0 && first.comp_size == ge - gb;
    for (int p = gb; reuse && p < ge; ++p) {
      const Group& g = groups_[active_groups_[ord_group_[p]]];
      reuse = !g.delta_dirty && g.comp_id == first.comp_id;
    }
    for (int s = sb; reuse && s < se; ++s) {
      reuse = prev_avail_of_resource_[slot_resource_[s]] == slot_avail_[s];
    }
    if (reuse) {
      ++delta_component_hits_;
      CT_OBS_INC("M304");
      for (int p = gb; p < ge; ++p) {
        const Group& g = groups_[active_groups_[ord_group_[p]]];
        scratch_rate_[p] = g.cached_rate;
        scratch_frozen_[p] = 1;
        if constexpr (check::kInvariantsEnabled) {
          scratch_fallback_[p] = g.cached_fallback ? 1 : 0;
        }
      }
    } else {
      waterfill_rounds += WaterfillComponent(gb, ge, sb, se);
      ++cold_component_solves_;
      CT_OBS_INC("M305");
      CT_OBS_OBSERVE("M306", ge - gb);
      const int32_t epoch = next_comp_id_++;
      for (int p = gb; p < ge; ++p) {
        Group& g = groups_[active_groups_[ord_group_[p]]];
        g.comp_id = epoch;
        g.comp_size = ge - gb;
        g.cached_rate = scratch_rate_[p];
        if constexpr (check::kInvariantsEnabled) {
          g.cached_fallback = scratch_fallback_[p] != 0;
        }
      }
      for (int s = sb; s < se; ++s) {
        prev_avail_of_resource_[slot_resource_[s]] = slot_initial_avail_[s];
      }
    }
  }
  CT_OBS_ADD("M301", waterfill_rounds);
  for (int p = 0; p < n; ++p) {
    Group& g = groups_[active_groups_[ord_group_[p]]];
    const Bps new_rate = scratch_rate_[p];
    if (new_rate != g.rate) {
      // Rate transition: close the span the old rate governed before the new
      // one takes over. A component's rate only changes at its own events
      // (member completion, group start/patch, avail change), so this
      // materialization point — and hence the group's float accumulation —
      // is a pure function of the component's inputs. Unchanged-rate groups
      // (including every reused component) keep accumulating one fused span.
      MaterializeGroup(g, now_);
      if (!GroupActive(g.id)) {
        continue;  // The residue epsilon-completed; re-partition below.
      }
      g.rate = new_rate;
    }
    g.delta_dirty = false;
  }
  // Sparse reset: clear only the slots this recompute touched.
  for (ResourceId r : scratch_used_resources_) {
    slot_of_resource_[r] = -1;
  }
  if (pass == 1) {
    // Captured on the first pass: a restored run replays the passes
    // deterministically, so pass-1 solutions are what its reuse check sees.
    CaptureCheckpointSolution();
  }
  if (!rates_dirty_) {
    break;
  }
  }  // for (pass)
  VerifyAllocation();
}

int FluidSimulation::WaterfillComponent(int group_begin, int group_end, int slot_begin,
                                        int slot_end) {
  int remaining = group_end - group_begin;
  int rounds = 0;
  while (remaining > 0) {
    ++rounds;
    // The next constraint is either a bottleneck resource's fair share or a
    // group's explicit rate limit, whichever is smaller.
    const double bottleneck = BottleneckLevel(
        slot_avail_.data() + slot_begin, slot_weight_unfrozen_.data() + slot_begin,
        slot_end - slot_begin);
    double min_limit = std::numeric_limits<double>::infinity();
    for (int p = group_begin; p < group_end; ++p) {
      if (!scratch_frozen_[p]) {
        min_limit = std::min(min_limit, scratch_limit_[p]);
      }
    }
    // A group with no constrained resources and no rate cap (e.g. a pure
    // loopback transfer) is effectively instantaneous: pin it at a huge
    // finite rate instead of infinity.
    const double level =
        std::isfinite(std::min(bottleneck, min_limit)) ? std::min(bottleneck, min_limit) : 1e15;

    // Freeze every group pinned at this level: either its limit equals the
    // level, or it traverses a resource whose fair share equals the level.
    bool froze_any = false;
    for (int p = group_begin; p < group_end; ++p) {
      if (scratch_frozen_[p]) {
        continue;
      }
      bool pin = scratch_limit_[p] <= level + 1e-9;
      if (!pin) {
        for (int k = row_start_[p]; k < row_start_[p + 1]; ++k) {
          const int s = row_slot_[k];
          if (slot_weight_unfrozen_[s] > 0 &&
              slot_avail_[s] / slot_weight_unfrozen_[s] <= level + 1e-9) {
            pin = true;
            break;
          }
        }
      }
      if (pin) {
        scratch_frozen_[p] = 1;
        scratch_rate_[p] = std::max(0.0, level);
        --remaining;
        froze_any = true;
        for (int k = row_start_[p]; k < row_start_[p + 1]; ++k) {
          slot_avail_[row_slot_[k]] -= scratch_rate_[p] * row_weight_[k];
          slot_weight_unfrozen_[row_slot_[k]] -= row_weight_[k];
        }
      }
    }
    if (!froze_any) {
      // Numerical corner: freeze everything at the level to guarantee
      // termination. These groups skip the consumption bookkeeping, so the
      // allocation checker must not hold them (or their resources) to the
      // bottleneck/conservation invariants.
      for (int p = group_begin; p < group_end; ++p) {
        if (!scratch_frozen_[p]) {
          scratch_frozen_[p] = 1;
          scratch_rate_[p] = std::max(0.0, level);
          --remaining;
          if constexpr (check::kInvariantsEnabled) {
            scratch_fallback_[p] = 1;
          }
        }
      }
    }
  }
  return rounds;
}

void FluidSimulation::VerifyAllocation() {
  if constexpr (check::kInvariantsEnabled) {
    // Checks run against the scratch of the most recent RecomputeRates; a
    // stale view (groups added/finished since) proves nothing, so bail.
    // Reused components participate too: their cached rates and fallback
    // flags satisfy the same invariants they did when solved cold.
    const int n = scratch_n_;
    if (n == 0 || n != static_cast<int>(active_groups_.size())) {
      return;
    }
    const int num_slots = static_cast<int>(slot_resource_.size());
    std::vector<double> consumed(num_slots, 0.0);
    std::vector<char> slot_tainted(num_slots, 0);
    for (int p = 0; p < n; ++p) {
      const Group& group = groups_[active_groups_[ord_group_[p]]];
      for (int k = row_start_[p]; k < row_start_[p + 1]; ++k) {
        consumed[row_slot_[k]] += group.rate * row_weight_[k];
        if (scratch_fallback_[p]) {
          slot_tainted[row_slot_[k]] = 1;
        }
      }
    }
    // I102: allocated rates never oversubscribe a resource's elastic share.
    for (int slot = 0; slot < num_slots; ++slot) {
      if (slot_tainted[slot]) {
        continue;
      }
      const double avail = slot_initial_avail_[slot];
      CT_INVARIANT(consumed[slot] <= avail * (1.0 + 1e-6) + 1.0, "I102",
                   "resource oversubscribed by the max-min allocation")
          .With("resource", slot_resource_[slot])
          .With("consumed_bps", consumed[slot])
          .With("available_bps", avail)
          .With("time", now_);
    }
    // I101: every group is pinned by *something* — its rate cap, a saturated
    // resource it traverses, or the unconstrained-group sentinel rate.
    for (int p = 0; p < n; ++p) {
      if (scratch_fallback_[p]) {
        continue;
      }
      const Group& group = groups_[active_groups_[ord_group_[p]]];
      bool pinned = group.rate >= 1e15 * 0.999;  // Loopback/no-resource sentinel.
      if (!pinned && std::isfinite(group.rate_limit)) {
        pinned = group.rate >= group.rate_limit * (1.0 - 1e-9) - 1e-9;
      }
      if (!pinned) {
        for (int k = row_start_[p]; k < row_start_[p + 1]; ++k) {
          if (consumed[row_slot_[k]] >= slot_initial_avail_[row_slot_[k]] * (1.0 - 1e-6) - 1.0) {
            pinned = true;
            break;
          }
        }
      }
      CT_INVARIANT(pinned, "I101", "flow group neither bottlenecked nor at its rate cap")
          .With("group", group.id)
          .With("rate_bps", group.rate)
          .With("rate_limit_bps", group.rate_limit)
          .With("resources_traversed", row_start_[p + 1] - row_start_[p])
          .With("time", now_);
    }
  }
}

void FluidSimulation::CheckInvariantsNow() {
  if constexpr (check::kInvariantsEnabled) {
    rates_dirty_ = true;
    // Dirty every group so the sweep water-fills everything cold instead of
    // certifying cached component solutions against themselves.
    for (GroupId id : active_groups_) {
      groups_[id].delta_dirty = true;
    }
    RecomputeRates();  // Runs VerifyAllocation on a fresh allocation.
    for (GroupId id : active_groups_) {
      const Group& group = groups_[id];
      if (!GroupActive(id)) {
        continue;
      }
      for (size_t m = 0; m < group.members.size(); ++m) {
        CT_INVARIANT(group.members[m].remaining >= 0, "I104",
                     "member has negative residual bytes")
            .With("group", id)
            .With("member", m)
            .With("remaining", group.members[m].remaining);
      }
    }
    if (!events_.empty()) {
      CT_INVARIANT(events_.top().time >= now_ - TimeEps(now_), "I103",
                   "pending event is earlier than the current time")
          .With("event_time", events_.top().time)
          .With("now", now_);
    }
  }
}

void FluidSimulation::Reset() {
  groups_.clear();
  active_groups_.clear();
  while (!events_.empty()) {
    events_.pop();
  }
  now_ = 0;
  next_seq_ = 0;
  rates_dirty_ = true;
  // The checkpoint indexes into groups_, so it cannot survive a reset. The
  // delta cache needs no clearing: fresh groups start with comp_id = -1 and
  // epoch ids are never reissued, so stale prev_avail entries cannot match.
  checkpoint_.valid = false;
  run_clean_since_save_ = false;
  traj_tracking_ = false;
  ff_pending_ = false;
  // background_, registry_ (capacities) and recompute_count_ survive; the
  // estimator sets background once per query and Reset()s per binding.
}

void FluidSimulation::SaveCheckpoint() {
  Checkpoint& c = checkpoint_;
  c.valid = true;
  c.now = now_;
  c.next_seq = next_seq_;
  c.rates_dirty = rates_dirty_;
  c.groups.resize(groups_.size());
  for (size_t i = 0; i < groups_.size(); ++i) {
    const Group& g = groups_[i];
    GroupState& gs = c.groups[i];
    gs.started = g.started;
    gs.finished = g.finished;
    gs.cancelled = g.cancelled;
    gs.rate = g.rate;
    gs.finish_time = g.finish_time;
    gs.epoch_time = g.epoch_time;
    gs.members.resize(g.members.size());
    for (size_t m = 0; m < g.members.size(); ++m) {
      gs.members[m].resources = g.members[m].resources;
      gs.members[m].remaining = g.members[m].remaining;
      gs.members[m].transferred = g.members[m].transferred;
      gs.members[m].done = g.members[m].done;
    }
  }
  c.active_groups = active_groups_;
  c.events = events_;
  c.solution_captured = false;
  c.solutions.clear();
  c.solved_avail.clear();
  // Arm the trajectory capture: the run between this save and the first
  // restore is the pristine trajectory every later binding diffs against.
  c.final_captured = false;
  c.final_valid = false;
  c.final_groups.clear();
  c.traj_parent.clear();
  c.final_avail.clear();
  run_clean_since_save_ = true;
  traj_tracking_ = true;
  traj_parent_.resize(groups_.size());
  for (size_t i = 0; i < traj_parent_.size(); ++i) {
    traj_parent_[i] = static_cast<int>(i);
  }
}

int FluidSimulation::TrajFind(int g) {
  int root = g;
  while (traj_parent_[root] != root) {
    root = traj_parent_[root];
  }
  while (traj_parent_[g] != root) {
    const int next = traj_parent_[g];
    traj_parent_[g] = root;
    g = next;
  }
  return root;
}

void FluidSimulation::CaptureCheckpointTrajectory() {
  // One-shot, at the first RestoreCheckpoint after a save: if the run since
  // the save was pristine (no AddGroup/Cancel/SetBackground/patch) and ran
  // to quiescence, record its final state. Group progress is a pure
  // per-closure function, so any later binding whose patches leave a closure
  // untouched must reproduce exactly this state — fast-forward hands it out
  // without re-simulating.
  Checkpoint& c = checkpoint_;
  if (!c.valid || c.final_captured || !run_clean_since_save_) {
    return;
  }
  c.final_captured = true;
  traj_tracking_ = false;
  CT_DCHECK(groups_.size() == c.groups.size());
  for (const Group& g : groups_) {
    if (!g.finished && !g.cancelled) {
      return;  // The run did not complete; final_valid stays false.
    }
  }
  c.final_valid = true;
  c.final_now = now_;
  c.final_groups.resize(groups_.size());
  for (size_t i = 0; i < groups_.size(); ++i) {
    const Group& g = groups_[i];
    GroupState& fs = c.final_groups[i];
    fs.started = g.started;
    fs.finished = g.finished;
    fs.cancelled = g.cancelled;
    fs.rate = g.rate;
    fs.finish_time = g.finish_time;
    fs.epoch_time = g.epoch_time;
    fs.members.resize(g.members.size());
    for (size_t m = 0; m < g.members.size(); ++m) {
      // Resources are left empty: fast-forward never rewrites them (clean
      // closures keep their checkpoint-restored sets).
      fs.members[m].remaining = g.members[m].remaining;
      fs.members[m].transferred = g.members[m].transferred;
      fs.members[m].done = g.members[m].done;
    }
  }
  // Fully compress the closure union-find so lookups are one hop.
  for (size_t i = 0; i < traj_parent_.size(); ++i) {
    traj_parent_[i] = TrajFind(static_cast<int>(i));
  }
  c.traj_parent = traj_parent_;
  // The elastic capacity every trajectory consumed, for the bitwise
  // inputs-unchanged check (covers later SetBackground/capacity edits).
  c.final_avail.clear();
  for (size_t i = 0; i < c.groups.size(); ++i) {
    for (const MemberState& ms : c.groups[i].members) {
      for (const ResourceId r : ms.resources) {
        const Bps cap = registry_.capacity(r);
        const double avail =
            std::max(cap * min_available_fraction_, cap - background_[r]);
        c.final_avail.emplace_back(r, avail);
      }
    }
  }
  std::sort(c.final_avail.begin(), c.final_avail.end());
  c.final_avail.erase(std::unique(c.final_avail.begin(), c.final_avail.end()),
                      c.final_avail.end());
}

void FluidSimulation::CaptureCheckpointSolution() {
  // One-shot: the first recompute after SaveCheckpoint sees exactly the
  // checkpointed inputs, so its solution (and the avail values it recorded)
  // is the solution every restored run starts from. MarkGroupDirty before
  // that recompute cancels the capture (the inputs no longer match).
  Checkpoint& c = checkpoint_;
  if (!c.valid || c.solution_captured) {
    return;
  }
  c.solution_captured = true;
  c.solutions.resize(c.groups.size());
  for (size_t i = 0; i < c.groups.size(); ++i) {
    const Group& g = groups_[i];
    c.solutions[i] = GroupSolution{g.cached_fallback, g.comp_id, g.comp_size, g.cached_rate};
  }
  c.solved_avail.clear();
  for (ResourceId r : scratch_used_resources_) {
    c.solved_avail.emplace_back(r, prev_avail_of_resource_[r]);
  }
}

void FluidSimulation::RestoreCheckpoint() {
  const Checkpoint& c = checkpoint_;
  CT_DCHECK(c.valid);
  if (!c.valid) {
    return;
  }
  CaptureCheckpointTrajectory();  // Reads the pre-rewind (final) state.
  groups_.resize(c.groups.size());  // Groups added after the save are discarded.
  for (size_t i = 0; i < groups_.size(); ++i) {
    Group& g = groups_[i];
    const GroupState& gs = c.groups[i];
    g.started = gs.started;
    g.finished = gs.finished;
    g.cancelled = gs.cancelled;
    g.rate = gs.rate;
    g.finish_time = gs.finish_time;
    g.epoch_time = gs.epoch_time;
    for (size_t m = 0; m < g.members.size(); ++m) {
      g.members[m].resources = gs.members[m].resources;
      g.members[m].remaining = gs.members[m].remaining;
      g.members[m].transferred = gs.members[m].transferred;
      g.members[m].done = gs.members[m].done;
    }
    g.min_remaining_valid = false;
    if (c.solution_captured) {
      const GroupSolution& sol = c.solutions[i];
      g.cached_fallback = sol.fallback;
      g.comp_id = sol.comp_id;
      g.comp_size = sol.comp_size;
      g.cached_rate = sol.rate;
      g.delta_dirty = false;
    } else {
      g.comp_id = -1;
      g.delta_dirty = true;
    }
  }
  active_groups_ = c.active_groups;
  events_ = c.events;
  now_ = c.now;
  next_seq_ = c.next_seq;
  rates_dirty_ = c.rates_dirty;
  if (c.solution_captured) {
    for (const auto& [r, avail] : c.solved_avail) {
      prev_avail_of_resource_[r] = avail;
    }
  }
  run_clean_since_save_ = false;
  traj_tracking_ = false;
  // With a recorded final trajectory, the first recompute of the re-run
  // tries to fast-forward the closures this binding's patches leave clean.
  ff_pending_ = c.final_valid;
}

void FluidSimulation::AttemptFastForward() {
  const Checkpoint& c = checkpoint_;
  if (!c.valid || !c.final_valid || groups_.size() != c.final_groups.size()) {
    return;
  }
  // Inputs-unchanged gate: every resource the pristine run consumed must
  // offer bitwise the same elastic capacity now (covers SetBackground and
  // capacity edits between bindings).
  for (const auto& [r, avail] : c.final_avail) {
    const Bps cap = registry_.capacity(r);
    if (std::max(cap * min_available_fraction_, cap - background_[r]) != avail) {
      return;
    }
  }
  const int n = static_cast<int>(groups_.size());
  // A closure re-simulates (is "dirty") if any of its groups was patched
  // since the restore or carries a completion callback (callbacks cannot be
  // replayed, only re-fired by a live run).
  traj_root_dirty_.assign(n, 0);
  for (int i = 0; i < n; ++i) {
    if (groups_[i].delta_dirty || groups_[i].on_complete) {
      traj_root_dirty_[c.traj_parent[i]] = 1;
    }
  }
  // Re-simulated groups' *current* (post-patch) resources must not overlap a
  // replayed closure: new sharing would merge their components and change
  // the closure's trajectory. Overlap demotes the closure to re-simulation,
  // making its resources live in turn — iterate to a fixpoint.
  ff_resource_mark_.assign(registry_.num_resources(), 0);
  bool changed = true;
  while (changed) {
    changed = false;
    for (int i = 0; i < n; ++i) {
      if (traj_root_dirty_[c.traj_parent[i]] != 1) {
        continue;
      }
      for (const Member& m : groups_[i].members) {
        for (const ResourceId r : m.resources) {
          ff_resource_mark_[r] = 1;
        }
      }
    }
    for (int i = 0; i < n; ++i) {
      const int root = c.traj_parent[i];
      if (traj_root_dirty_[root] == 1) {
        continue;
      }
      bool overlap = false;
      for (const Member& m : groups_[i].members) {
        for (const ResourceId r : m.resources) {
          if (ff_resource_mark_[r]) {
            overlap = true;
            break;
          }
        }
        if (overlap) {
          break;
        }
      }
      if (overlap) {
        traj_root_dirty_[root] = 1;
        changed = true;
      }
    }
  }
  // Count replayed closures that actually skip work (had an unfinished group
  // at the restore point), then hand every group in a clean closure its
  // recorded final state. Purity makes this bitwise equal to re-simulating.
  int64_t replayed = 0;
  for (int i = 0; i < n; ++i) {
    const int root = c.traj_parent[i];
    if (traj_root_dirty_[root] == 0 && !groups_[i].finished && !groups_[i].cancelled) {
      traj_root_dirty_[root] = 2;
      ++replayed;
    }
  }
  for (int i = 0; i < n; ++i) {
    if (traj_root_dirty_[c.traj_parent[i]] == 1) {
      continue;
    }
    Group& g = groups_[i];
    const GroupState& fs = c.final_groups[i];
    g.started = fs.started;
    g.finished = fs.finished;
    g.cancelled = fs.cancelled;
    g.rate = fs.rate;
    g.finish_time = fs.finish_time;
    g.epoch_time = fs.epoch_time;
    for (size_t m = 0; m < g.members.size(); ++m) {
      g.members[m].remaining = fs.members[m].remaining;
      g.members[m].transferred = fs.members[m].transferred;
      g.members[m].done = fs.members[m].done;
    }
    g.min_remaining_valid = false;
    g.delta_dirty = true;  // Force a cold solve if it ever re-enters the incidence.
  }
  delta_component_hits_ += replayed;
  CT_OBS_ADD("M304", replayed);
}

std::vector<ResourceId>& FluidSimulation::MutableMemberResources(GroupId id, int flow_index) {
  return groups_[id].members[flow_index].resources;
}

void FluidSimulation::MarkGroupDirty(GroupId id) {
  groups_[id].delta_dirty = true;
  rates_dirty_ = true;
  if (checkpoint_.valid && !checkpoint_.solution_captured) {
    // The pending capture would record a solution for inputs that no longer
    // match the checkpoint; skip it (restores then just solve cold).
    checkpoint_.solution_captured = true;
    checkpoint_.solutions.assign(checkpoint_.groups.size(), GroupSolution{});
    checkpoint_.solved_avail.clear();
  }
  if (checkpoint_.valid && !checkpoint_.final_captured) {
    // A patch before the pristine run finished means the trajectory about to
    // be captured is not the checkpoint's; block the capture.
    run_clean_since_save_ = false;
    traj_tracking_ = false;
  }
}

Seconds FluidSimulation::GroupCompletionTime(const Group& group) const {
  // Pure prediction: the epoch state plus the current rate fully determine
  // when the earliest member runs dry. Anchoring at epoch_time (not now_)
  // keeps the value independent of how many foreign events the clock has
  // stepped through since.
  if (group.rate <= 0) {
    return std::numeric_limits<Seconds>::infinity();
  }
  if (group.min_remaining_valid) {
    // TransferTime is monotone in its byte argument (times-8 is exact and
    // IEEE division by a positive rate preserves order), so the earliest
    // member completion is exactly the cached minimum's completion.
    return group.epoch_time + TransferTime(group.min_remaining, group.rate);
  }
  Seconds best = std::numeric_limits<Seconds>::infinity();
  for (const Member& member : group.members) {
    if (member.done) {
      continue;
    }
    best = std::min(best, group.epoch_time + TransferTime(member.remaining, group.rate));
  }
  return best;
}

Seconds FluidSimulation::NextCompletionTime() const {
  Seconds best = std::numeric_limits<Seconds>::infinity();
  for (GroupId id : active_groups_) {
    if (!GroupActive(id)) {
      continue;
    }
    best = std::min(best, GroupCompletionTime(groups_[id]));
  }
  return best;
}

void FluidSimulation::FinishGroupIfDone(Group& group) {
  if (group.finished || group.cancelled || !group.started) {
    return;
  }
  for (const Member& member : group.members) {
    if (!member.done) {
      return;
    }
  }
  group.finished = true;
  group.rate = 0;
  // Inside SettleUntil the clock has not advanced yet, but the completion
  // callback fires after it has; stamp the post-settle time so both report
  // the same instant bitwise.
  group.finish_time = settling_ ? settle_stamp_ : now_;
  group.delta_dirty = true;
  rates_dirty_ = true;
  if (group.on_complete) {
    // Defer the callback through the event queue so user code never runs in
    // the middle of Settle()'s bookkeeping.
    auto cb = group.on_complete;
    const GroupId id = group.id;
    Schedule(now_, [cb, id, this] { cb(id, now_); });
  }
}

void FluidSimulation::MaterializeGroup(Group& group, Seconds target) {
  if (group.finished || group.cancelled || !group.started) {
    return;
  }
  const Seconds dt = target - group.epoch_time;
  if (dt < 0) {
    return;
  }
  const Bytes moved = group.rate > 0 ? group.rate * dt / 8.0 : 0.0;
  Bytes min_remaining = std::numeric_limits<Bytes>::infinity();
  for (Member& member : group.members) {
    if (member.done) {
      continue;
    }
    const Bytes step = std::min(moved, member.remaining);
    member.remaining -= step;
    member.transferred += step;
    // A member is done when its bytes ran out, or when float drift left a
    // residue that would complete in (far) under a picosecond anyway.
    CT_INVARIANT(member.remaining >= 0, "I104", "member has negative residual bytes")
        .With("group", group.id)
        .With("remaining", member.remaining)
        .With("rate_bps", group.rate)
        .With("dt", dt);
    if (group.rate > 0 && (member.remaining <= kByteEpsilon ||
                           TransferTime(member.remaining, group.rate) <= kTimeEpsilon)) {
      member.transferred += member.remaining;
      member.remaining = 0;
      member.done = true;
      rates_dirty_ = true;
      // The member's resources leave the incidence, so this group's
      // component must re-water-fill (and components it bridged may split,
      // which the solver detects via the component-size mismatch).
      group.delta_dirty = true;
    } else {
      min_remaining = std::min(min_remaining, member.remaining);
    }
  }
  group.min_remaining = min_remaining;
  group.min_remaining_valid = std::isfinite(min_remaining);
  group.epoch_time = target;
  FinishGroupIfDone(group);
}

void FluidSimulation::SettleUntil(Seconds target) {
  if (target < now_) {
    return;
  }
  // max(now_, target) is exactly the value the event loop assigns to now_
  // after this settle — finishes recorded here must carry that timestamp.
  settle_stamp_ = std::max(now_, target);
  settling_ = true;
  // Lazy sweep: only groups whose own completion has arrived materialize
  // (GroupCompletionTime here and in NextCompletionTime compute the same
  // expression over the same state, so the event loop's argmin matches
  // bitwise). Everyone else stays on their epoch, untouched by this event.
  for (GroupId id : active_groups_) {
    Group& group = groups_[id];
    if (!GroupActive(id) || group.rate <= 0) {
      continue;
    }
    if (GroupCompletionTime(group) <= target) {
      MaterializeGroup(group, target);
    }
  }
  settling_ = false;
}

void FluidSimulation::RunUntil(Seconds t) {
  CT_ACCESS_GUARD(access_cell_);
  while (now_ < t - TimeEps(t)) {
    RecomputeRates();
    const Seconds completion = NextCompletionTime();
    const Seconds next_event =
        events_.empty() ? std::numeric_limits<Seconds>::infinity() : events_.top().time;
    const Seconds target = std::min({t, completion, next_event});
    if (!std::isfinite(target)) {
      now_ = t;
      return;
    }
    CT_INVARIANT(target >= now_ - TimeEps(now_), "I106", "simulation time would move backwards")
        .With("now", now_)
        .With("target", target);
    SettleUntil(target);
    now_ = std::max(now_, target);
    // Fire every event scheduled at (or before) the new time.
    while (!events_.empty() && events_.top().time <= now_ + TimeEps(now_)) {
      auto fn = events_.top().fn;
      events_.pop();
      CT_OBS_INC("M300");
      fn();
    }
  }
}

bool FluidSimulation::RunUntilIdle(Seconds hard_deadline) {
  CT_ACCESS_GUARD(access_cell_);
  while (now_ < hard_deadline) {
    RecomputeRates();
    const bool has_active =
        std::any_of(active_groups_.begin(), active_groups_.end(),
                    [this](GroupId id) { return GroupActive(id); });
    if (!has_active && events_.empty()) {
      return true;
    }
    const Seconds completion = NextCompletionTime();
    const Seconds next_event =
        events_.empty() ? std::numeric_limits<Seconds>::infinity() : events_.top().time;
    const Seconds target = std::min(completion, next_event);
    if (!std::isfinite(target)) {
      CLOUDTALK_LOG(kWarning) << "fluid simulation stalled at t=" << now_
                              << " with zero-rate active groups";
      return false;
    }
    CT_INVARIANT(target >= now_ - TimeEps(now_), "I106", "simulation time would move backwards")
        .With("now", now_)
        .With("target", target);
    SettleUntil(target);
    now_ = std::max(now_, target);
    while (!events_.empty() && events_.top().time <= now_ + TimeEps(now_)) {
      auto fn = events_.top().fn;
      events_.pop();
      CT_OBS_INC("M300");
      fn();
    }
  }
  return false;
}

}  // namespace cloudtalk
