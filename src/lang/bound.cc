#include "src/lang/bound.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

namespace cloudtalk {
namespace lang {

namespace {
// Mirror of the estimator's unconstrained-resource sentinel: unknown and
// unreported endpoints get 1e15 capacities, hub links are 1e15, and the
// waterfill pins resource-free groups at a 1e15 rate. Clamping every
// availability here folds the (always-1e15) hub-link resources into the
// NIC resources without modelling them separately.
constexpr double kHugeCapacity = 1e15;
// TransferTime's zero-rate convention (src/common/units.h).
constexpr double kZeroRateTime = 1e18;
constexpr double kInf = std::numeric_limits<double>::infinity();

constexpr double kRelGuard = 1e-6;
constexpr double kAbsGuard = 1e-9;

double AvailOf(Bps cap, Bps use, double fraction) {
  const double avail = std::max(cap * fraction, cap - use);
  return std::min(std::max(avail, 0.0), kHugeCapacity);
}
}  // namespace

Seconds GuardLowerBound(Seconds raw) {
  return std::max<Seconds>(0, raw * (1.0 - kRelGuard) - kAbsGuard);
}

Seconds GuardUpperBound(Seconds raw) {
  if (!std::isfinite(raw)) {
    return raw;
  }
  return raw * (1.0 + kRelGuard) + kAbsGuard;
}

int32_t BoundAnalysis::AddHost(const StatusReport* report, double fraction) {
  const int32_t id = static_cast<int32_t>(avail_.size() / kKinds);
  if (report == nullptr) {
    // Unreported: idle with very large capacity, as the estimator models it.
    avail_.insert(avail_.end(), kKinds, kHugeCapacity);
  } else {
    avail_.push_back(AvailOf(report->nic_tx_cap, report->nic_tx_use, fraction));
    avail_.push_back(AvailOf(report->nic_rx_cap, report->nic_rx_use, fraction));
    avail_.push_back(AvailOf(report->disk_read_cap, report->disk_read_use, fraction));
    avail_.push_back(AvailOf(report->disk_write_cap, report->disk_write_use, fraction));
  }
  return id;
}

BoundAnalysis BoundAnalysis::Build(const CompiledQuery& query, const HostStatus& status,
                                   const BoundOptions& options) {
  const QueryHosts& hosts = query.hosts();
  const std::span<const int> identity = status.identity();
  BoundAnalysis a;
  a.distinct_ = !query.query().options.allow_same_binding;
  const double f = options.min_available_fraction;

  // One host per slot, read at its identity slot; then one abstract host
  // per 0.0.0.0 occurrence.
  a.avail_.reserve(hosts.names.size() * kKinds);
  for (int slot = 0; slot < static_cast<int>(hosts.names.size()); ++slot) {
    a.AddHost(status.Find(slot), f);
  }
  const auto& variables = query.variables();
  a.var_candidates_.resize(variables.size());
  a.var_pool_set_.resize(variables.size());
  for (size_t v = 0; v < variables.size(); ++v) {
    for (const int slot : hosts.pools[hosts.pool_of[v]]) {
      const int32_t host = HostOf(identity, slot);
      if (host >= 0 && a.var_pool_set_[v].insert(host).second) {
        a.var_candidates_[v].push_back(host);
      }
    }
  }
  const FlowGraph& graph = query.graph();
  a.members_.reserve(query.flows().size());
  for (const CompiledFlow& flow : query.flows()) {
    Member m;
    m.bytes = static_cast<double>(flow.size);
    m.group = flow.group;
    auto classify = [&](const Endpoint& e, int id) -> Ep {
      switch (e.kind) {
        case Endpoint::Kind::kAddress:
          return {Ep::kHost, HostOf(identity, hosts.slot_of[id])};
        case Endpoint::Kind::kVariable:
          return {Ep::kVar, graph.variable(id)};
        case Endpoint::Kind::kDisk:
          // Index -1: the other side of a disk-to-disk flow (E005, kept in
          // the parser's partial AST) views as unresolvable.
          return {Ep::kDisk, -1};
        case Endpoint::Kind::kUnknown:
        default:
          return {Ep::kHost, a.AddHost(nullptr, f)};
      }
    };
    m.src = classify(flow.src, graph.src_id(flow.index));
    m.dst = classify(flow.dst, graph.dst_id(flow.index));
    a.members_.push_back(m);
  }

  a.groups_.resize(query.groups().size());
  a.min_group_start_ = query.groups().empty() ? 0 : kInf;
  for (size_t g = 0; g < query.groups().size(); ++g) {
    const CompiledGroup& cg = query.groups()[g];
    GroupInfo& info = a.groups_[g];
    info.rate_limit = cg.rate_limit;
    info.start = std::max<Seconds>(0, cg.start);
    info.deadline = cg.deadline;
    a.min_group_start_ = std::min(a.min_group_start_, info.start);
  }
  for (size_t i = 0; i < a.members_.size(); ++i) {
    a.groups_[a.members_[i].group].members_by_size.push_back(static_cast<int>(i));
  }
  for (GroupInfo& info : a.groups_) {
    std::sort(info.members_by_size.begin(), info.members_by_size.end(),
              [&](int x, int y) {
                if (a.members_[x].bytes != a.members_[y].bytes) {
                  return a.members_[x].bytes < a.members_[y].bytes;
                }
                return x < y;
              });
  }

  a.groups_of_var_.resize(variables.size());
  for (const Member& m : a.members_) {
    for (const Ep* e : {&m.src, &m.dst}) {
      if (e->what == Ep::kVar && e->index >= 0) {
        std::vector<int>& gs = a.groups_of_var_[e->index];
        if (std::find(gs.begin(), gs.end(), m.group) == gs.end()) {
          gs.push_back(m.group);
        }
      }
    }
  }

  const size_t nvars = variables.size();
  a.pools_intersect_.assign(nvars * nvars, 0);
  for (size_t v = 0; v < nvars; ++v) {
    for (size_t w = 0; w < nvars; ++w) {
      bool hit = false;
      for (const int32_t c : a.var_candidates_[v]) {
        if (a.var_pool_set_[w].count(c) != 0) {
          hit = true;
          break;
        }
      }
      a.pools_intersect_[v * nvars + w] = hit ? 1 : 0;
    }
  }

  // N_max: every (member, resource) pair that could consume the resource
  // under any candidate resolution, counted over the *unpinned* pools so it
  // upper-bounds the concurrent consumer weight under every refinement.
  a.n_max_.assign(a.avail_.size(), 0.0);
  std::vector<int32_t> no_pins(nvars, -1);
  const int32_t* base = no_pins.empty() ? nullptr : no_pins.data();
  auto count_side = [&](const EpView& view, Kind kind) {
    if (view.host >= 0) {
      a.n_max_[view.host * kKinds + kind] += 1.0;
    } else if (view.var >= 0) {
      for (const int32_t c : a.var_candidates_[view.var]) {
        a.n_max_[c * kKinds + kind] += 1.0;
      }
    }
  };
  for (const Member& m : a.members_) {
    if (m.src.what == Ep::kDisk) {
      count_side(a.View(m.dst, base), kDiskRead);
    } else if (m.dst.what == Ep::kDisk) {
      count_side(a.View(m.src, base), kDiskWrite);
    } else {
      const EpView s = a.View(m.src, base);
      const EpView d = a.View(m.dst, base);
      if (a.DefinitelyEqual(s, d)) {
        continue;  // Loopback under every resolution: consumes nothing.
      }
      count_side(s, kTx);
      count_side(d, kRx);
    }
  }

  a.var_max_avail_.assign(nvars * kKinds, 0.0);
  a.var_min_floor_.assign(nvars * kKinds, kInf);
  for (size_t v = 0; v < nvars; ++v) {
    for (int k = 0; k < kKinds; ++k) {
      double best = 0, floor = kInf;
      for (const int32_t c : a.var_candidates_[v]) {
        const double avail = a.Avail(c, static_cast<Kind>(k));
        best = std::max(best, avail);
        const double n = a.n_max_[c * kKinds + k];
        floor = std::min(floor, n > 0 ? avail / n : avail);
      }
      a.var_max_avail_[v * kKinds + k] = best;
      a.var_min_floor_[v * kKinds + k] = floor;
    }
  }

  a.group_bounds_ = a.GroupBindingBounds(no_pins);
  a.query_bounds_ = a.BindingBounds(no_pins);
  return a;
}

BoundAnalysis::EpView BoundAnalysis::View(const Ep& ep, const int32_t* var_host) const {
  EpView view;
  if (ep.what == Ep::kHost) {
    view.host = ep.index;
    return view;
  }
  // Callers special-case a disk side, so kDisk reaches View only as the
  // other side of a disk-to-disk flow, whose index -1 resolves to nothing.
  const int v = ep.index;
  if (v < 0) {
    return view;  // Unresolvable endpoint: neither host nor open var.
  }
  const int32_t pinned = var_host != nullptr ? var_host[v] : -1;
  if (pinned >= 0) {
    view.host = pinned;
    view.from_var = true;
  } else if (var_candidates_[v].size() == 1) {
    // A singleton pool is pinned by construction.
    view.host = var_candidates_[v][0];
    view.from_var = true;
  } else {
    view.var = v;
  }
  return view;
}

bool BoundAnalysis::PossiblyEqual(const EpView& s, const EpView& d) const {
  if (s.host >= 0 && d.host >= 0) {
    return s.host == d.host;
  }
  if (s.host >= 0 && d.var >= 0) {
    // A pinned *variable* can never equal another open variable under
    // distinct bindings; a literal can.
    if (distinct_ && s.from_var) {
      return false;
    }
    return var_pool_set_[d.var].count(s.host) != 0;
  }
  if (d.host >= 0 && s.var >= 0) {
    if (distinct_ && d.from_var) {
      return false;
    }
    return var_pool_set_[s.var].count(d.host) != 0;
  }
  if (s.var >= 0 && d.var >= 0) {
    if (s.var == d.var) {
      return true;
    }
    if (distinct_) {
      return false;
    }
    return pools_intersect_[s.var * var_candidates_.size() + d.var] != 0;
  }
  return false;
}

bool BoundAnalysis::DefinitelyEqual(const EpView& s, const EpView& d) const {
  if (s.host >= 0 && d.host >= 0) {
    return s.host == d.host;
  }
  return s.var >= 0 && s.var == d.var;
}

double BoundAnalysis::CapSide(const EpView& v, Kind kind) const {
  if (v.host >= 0) {
    return Avail(v.host, kind);
  }
  if (v.var >= 0) {
    return var_max_avail_[v.var * kKinds + kind];
  }
  return 0;
}

double BoundAnalysis::FloorSide(const EpView& v, Kind kind) const {
  if (v.host >= 0) {
    const double n = n_max_[v.host * kKinds + kind];
    const double avail = Avail(v.host, kind);
    return n > 0 ? avail / n : avail;
  }
  if (v.var >= 0) {
    return var_min_floor_[v.var * kKinds + kind];
  }
  return 0;
}

double BoundAnalysis::MemberCap(const Member& m, const int32_t* var_host) const {
  if (m.src.what == Ep::kDisk) {
    return CapSide(View(m.dst, var_host), kDiskRead);
  }
  if (m.dst.what == Ep::kDisk) {
    return CapSide(View(m.src, var_host), kDiskWrite);
  }
  const EpView s = View(m.src, var_host);
  const EpView d = View(m.dst, var_host);
  if (PossiblyEqual(s, d)) {
    return kInf;  // A loopback resolution exists: no constraint on the rate.
  }
  return std::min(CapSide(s, kTx), CapSide(d, kRx));
}

double BoundAnalysis::MemberFloor(const Member& m, const int32_t* var_host) const {
  if (m.src.what == Ep::kDisk) {
    return std::min(FloorSide(View(m.dst, var_host), kDiskRead), kHugeCapacity);
  }
  if (m.dst.what == Ep::kDisk) {
    return std::min(FloorSide(View(m.src, var_host), kDiskWrite), kHugeCapacity);
  }
  const EpView s = View(m.src, var_host);
  const EpView d = View(m.dst, var_host);
  if (DefinitelyEqual(s, d)) {
    // Definite loopback: the member consumes nothing and the waterfill pins
    // a resource-free group at the 1e15 sentinel rate, not at infinity.
    return kHugeCapacity;
  }
  return std::min({FloorSide(s, kTx), FloorSide(d, kRx), kHugeCapacity});
}

void BoundAnalysis::MemberDefinite(const Member& m, const int32_t* var_host,
                                   std::vector<std::pair<int32_t, double>>* out) const {
  if (m.bytes <= 0) {
    return;
  }
  if (m.src.what == Ep::kDisk) {
    const EpView d = View(m.dst, var_host);
    if (d.host >= 0) {
      out->emplace_back(d.host * kKinds + kDiskRead, m.bytes);
    }
    return;
  }
  if (m.dst.what == Ep::kDisk) {
    const EpView s = View(m.src, var_host);
    if (s.host >= 0) {
      out->emplace_back(s.host * kKinds + kDiskWrite, m.bytes);
    }
    return;
  }
  const EpView s = View(m.src, var_host);
  const EpView d = View(m.dst, var_host);
  if (PossiblyEqual(s, d)) {
    return;  // Some resolution is loopback: nothing is a definite use.
  }
  if (s.host >= 0) {
    out->emplace_back(s.host * kKinds + kTx, m.bytes);
  }
  if (d.host >= 0) {
    out->emplace_back(d.host * kKinds + kRx, m.bytes);
  }
}

Seconds BoundAnalysis::ChainTime(const GroupInfo& g, const int32_t* var_host,
                                 bool optimistic) const {
  // Walking the ascending size order backwards keeps a running suffix-min
  // of the live members' rates.
  double time = 0;
  double run_min = kInf;
  for (int j = static_cast<int>(g.members_by_size.size()) - 1; j >= 0; --j) {
    const Member& m = members_[g.members_by_size[j]];
    run_min = std::min(run_min, optimistic ? MemberCap(m, var_host) : MemberFloor(m, var_host));
    const double prev = j > 0 ? members_[g.members_by_size[j - 1]].bytes : 0.0;
    const double delta = m.bytes - prev;
    if (delta <= 0) {
      continue;
    }
    const double rate = std::min(g.rate_limit, run_min);
    if (!(rate > 0)) {
      return optimistic ? kZeroRateTime : kInf;
    }
    time += delta * 8.0 / rate;  // rate == inf contributes 0.
  }
  return time;
}

Seconds BoundAnalysis::SharedResourceBound(std::vector<std::pair<int32_t, double>> defs,
                                           Seconds start) const {
  std::sort(defs.begin(), defs.end());
  Seconds lb = 0;
  for (size_t i = 0; i < defs.size();) {
    double sum = 0;
    size_t j = i;
    while (j < defs.size() && defs[j].first == defs[i].first) {
      sum += defs[j].second;
      ++j;
    }
    const double avail = avail_[defs[i].first];
    lb = std::max(lb, start + (avail > 0 ? sum * 8.0 / avail : kZeroRateTime));
    i = j;
  }
  return lb;
}

Seconds BoundAnalysis::GroupLowerBound(const GroupInfo& g, const int32_t* var_host) const {
  std::vector<std::pair<int32_t, double>> defs;
  defs.reserve(2 * g.members_by_size.size());
  for (const int mi : g.members_by_size) {
    MemberDefinite(members_[mi], var_host, &defs);
  }
  return std::max(g.start + ChainTime(g, var_host, /*optimistic=*/true),
                  SharedResourceBound(std::move(defs), g.start));
}

Seconds BoundAnalysis::GroupUpperBound(const GroupInfo& g, const int32_t* var_host) const {
  return g.start + ChainTime(g, var_host, /*optimistic=*/false);
}

Seconds BoundAnalysis::CrossGroupLowerBound(const int32_t* var_host) const {
  std::vector<std::pair<int32_t, double>> defs;
  defs.reserve(2 * members_.size());
  for (const Member& m : members_) {
    MemberDefinite(m, var_host, &defs);
  }
  return SharedResourceBound(std::move(defs), min_group_start_);
}

BoundInterval BoundAnalysis::BindingBounds(const std::vector<int32_t>& var_host) const {
  const int32_t* pins = var_host.empty() ? nullptr : var_host.data();
  Seconds lb = 0, ub = 0;
  for (const GroupInfo& g : groups_) {
    if (g.members_by_size.empty()) {
      continue;
    }
    lb = std::max(lb, GroupLowerBound(g, pins));
    ub = std::max(ub, GroupUpperBound(g, pins));
  }
  lb = std::max(lb, CrossGroupLowerBound(pins));
  BoundInterval interval;
  interval.lb = GuardLowerBound(lb);
  interval.ub = GuardUpperBound(ub);
  return interval;
}

std::vector<GroupBound> BoundAnalysis::GroupBindingBounds(
    const std::vector<int32_t>& var_host) const {
  const int32_t* pins = var_host.empty() ? nullptr : var_host.data();
  std::vector<GroupBound> out;
  out.reserve(groups_.size());
  for (size_t g = 0; g < groups_.size(); ++g) {
    GroupBound gb;
    gb.group = static_cast<int>(g);
    gb.deadline = groups_[g].deadline;
    if (!groups_[g].members_by_size.empty()) {
      gb.interval.lb = GuardLowerBound(GroupLowerBound(groups_[g], pins));
      gb.interval.ub = GuardUpperBound(GroupUpperBound(groups_[g], pins));
    } else {
      gb.interval.lb = 0;
      gb.interval.ub = 0;
    }
    if (std::isfinite(gb.deadline)) {
      gb.provably_infeasible = gb.interval.lb > gb.deadline;
      gb.trivially_satisfied = gb.interval.ub <= gb.deadline;
    }
    out.push_back(gb);
  }
  return out;
}

BoundAnalysis::Cursor::Cursor(const BoundAnalysis* analysis) : a_(analysis) {
  var_host_.assign(a_->var_candidates_.size(), -1);
  group_lb_.assign(a_->groups_.size(), 0);
  group_dirty_.assign(a_->groups_.size(), 1);
}

void BoundAnalysis::Cursor::Assign(int var, int32_t host) {
  var_host_[var] = host;
  for (const int g : a_->groups_of_var_[var]) {
    group_dirty_[g] = 1;
  }
}

void BoundAnalysis::Cursor::Unassign(int var) {
  var_host_[var] = -1;
  for (const int g : a_->groups_of_var_[var]) {
    group_dirty_[g] = 1;
  }
}

Seconds BoundAnalysis::Cursor::LowerBound() {
  const int32_t* pins = var_host_.empty() ? nullptr : var_host_.data();
  Seconds lb = 0;
  for (size_t g = 0; g < group_lb_.size(); ++g) {
    if (group_dirty_[g] != 0) {
      group_lb_[g] = a_->groups_[g].members_by_size.empty()
                         ? 0
                         : a_->GroupLowerBound(a_->groups_[g], pins);
      group_dirty_[g] = 0;
    }
    lb = std::max(lb, group_lb_[g]);
  }
  return GuardLowerBound(lb);
}

}  // namespace lang
}  // namespace cloudtalk
