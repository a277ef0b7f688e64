#include "src/core/estimator.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "src/fluidsim/fluid_simulation.h"
#include "src/topology/topology.h"

namespace cloudtalk {

namespace {
// Unknown (0.0.0.0) and unreported endpoints are modelled as idle hosts with
// very large capacity so they never dominate the estimate.
constexpr Bps kHugeCapacity = 1e15;

StatusReport OrUnreported(const StatusReport* report) {
  if (report != nullptr) {
    return *report;
  }
  HostCaps big;
  big.nic_up = big.nic_down = big.disk_read = big.disk_write = kHugeCapacity;
  return StatusReport::Idle(kInvalidNode, big);
}
}  // namespace

Result<std::vector<int>> SlotsOf(const lang::CompiledQuery& query, const Binding& binding) {
  const std::vector<lang::VarComm>& variables = query.variables();
  std::vector<int> slots(variables.size(), -1);
  for (size_t v = 0; v < variables.size(); ++v) {
    const auto it = binding.find(variables[v].name);
    if (it == binding.end()) {
      continue;
    }
    const int id = query.graph().names().Find(it->second.name);
    if (it->second.kind == lang::Endpoint::Kind::kAddress && id >= 0) {
      slots[v] = query.hosts().slot_of[id];
    }
    if (slots[v] < 0) {
      return Error{"variable '" + variables[v].name + "' is bound to '" +
                   it->second.ToString() + "', which is no address of the query"};
    }
  }
  return slots;
}

// Per-query scratch: the star topology, the fluid simulation and the flow
// plans are built once in BeginQuery and reused (via FluidSimulation::Reset)
// for every binding of the query. Its hosts are the query's slots as the
// search numbers them (lang::HostOf), then one abstract host per 0.0.0.0
// occurrence (fixed per query, so repeated estimates cannot leak fresh
// "_unknownN" hosts — the counter effectively resets per estimate).
struct FlowLevelEstimator::Scratch {
  const lang::CompiledQuery* query = nullptr;
  const lang::HostStatus* status = nullptr;

  Topology star;
  NodeId hub = kInvalidNode;
  std::unique_ptr<FluidSimulation> sim;

  std::vector<int> host_of_slot;  // By slot of the query: its host.
  std::vector<NodeId> host_node;
  // Per host resources of the star: NIC up/down, disk read/write, and
  // the two directed hub links. A src->dst transfer consumes
  // {nic_up[src], link_up[src], link_down[dst], nic_down[dst]} — exactly
  // what ResourceRegistry::NetworkPath returns on this topology, without
  // the per-binding path lookup.
  std::vector<ResourceId> nic_up, nic_down, disk_read, disk_write, link_up, link_down;

  struct Ep {
    enum Kind { kHost, kVar, kDisk };
    Kind kind = kHost;
    int index = 0;  // Host for kHost, variable index for kVar.
  };
  struct FlowPlan {
    Ep src, dst;
    Bytes size = 0;
    int group = 0;
  };
  std::vector<FlowPlan> flows;

  // Reused per estimate.
  std::vector<int> var_host;        // variable index -> host (-1 unbound).
  std::vector<GroupSpec> specs;

  // ---- Delta re-bind state (ISSUE 6) ----
  // The query's groups are installed into the simulation once; a checkpoint
  // is saved right after. Every later binding restores the checkpoint and
  // patches, in place, only the members whose endpoints differ from the
  // *checkpointed* binding (the restore reverts member resources to exactly
  // that binding, so the diff is always taken against it).
  bool groups_installed = false;
  std::vector<GroupId> group_ids;   // per chain group; kInvalidGroup if empty
  struct FlowMember {
    GroupId gid = kInvalidGroup;
    int member = -1;
  };
  std::vector<FlowMember> flow_member;       // per flow plan
  std::vector<std::vector<int>> flows_of_var;  // var index -> flows touching it
  std::vector<int> chk_var_host;             // var hosts of the checkpointed binding
  std::vector<ResourceId> patch_resources;   // scratch for resource rewrites
  Bytes total_bytes = 0;                     // constant per query

  int AddHost(const std::string& address, const StatusReport* reported) {
    const int host = static_cast<int>(host_node.size());
    const StatusReport report = OrUnreported(reported);
    HostCaps caps;
    caps.nic_up = report.nic_tx_cap;
    caps.nic_down = report.nic_rx_cap;
    caps.disk_read = report.disk_read_cap;
    caps.disk_write = report.disk_write_cap;
    const NodeId node = star.AddHost(address, caps, 0);
    const LinkId up = star.AddDuplexLink(node, hub, kHugeCapacity);
    host_node.push_back(node);
    pending_reports.push_back(report);
    pending_links.push_back(up);
    return host;
  }

  // Reports/links staged by AddHost; consumed once the simulation is
  // constructed (resource ids only exist after the registry is built).
  std::vector<StatusReport> pending_reports;
  std::vector<LinkId> pending_links;
};

FlowLevelEstimator::FlowLevelEstimator(double min_available_fraction, bool reuse_scratch,
                                       bool delta_rebind)
    : min_available_fraction_(min_available_fraction),
      reuse_scratch_(reuse_scratch),
      delta_rebind_(delta_rebind) {}

FlowLevelEstimator::~FlowLevelEstimator() = default;

void FlowLevelEstimator::BeginQuery(const lang::CompiledQuery& query,
                                    const lang::HostStatus& status) {
  if (!reuse_scratch_) {
    return;
  }
  const lang::QueryHosts& query_hosts = query.hosts();
  scratch_ = std::make_unique<Scratch>();
  Scratch& s = *scratch_;
  s.query = &query;
  s.status = &status;
  s.hub = s.star.AddNode(NodeKind::kTor, "hub");

  // Hosts in first-reach order: pool entries, then literal flow endpoints
  // and 0.0.0.0 occurrences in flow order.
  std::vector<int> host_of_id(query_hosts.names.size(), -1);  // By identity slot.
  const auto host = [&](int slot) {
    const int id = lang::HostOf(status.identity(), slot);
    if (host_of_id[id] < 0) {
      host_of_id[id] = s.AddHost(*query_hosts.names[id], status.Find(id));
    }
    return host_of_id[id];
  };
  for (int slot = 0; slot < query_hosts.pool_names; ++slot) {
    host(slot);
  }
  const lang::FlowGraph& graph = query.graph();
  int unknown_counter = 0;
  s.flows.reserve(query.flows().size());
  for (const lang::CompiledFlow& flow : query.flows()) {
    Scratch::FlowPlan plan;
    plan.size = flow.size;
    plan.group = flow.group;
    auto classify = [&](const lang::Endpoint& e, int id) -> Scratch::Ep {
      switch (e.kind) {
        case lang::Endpoint::Kind::kAddress:
          return {Scratch::Ep::kHost, host(query_hosts.slot_of[id])};
        case lang::Endpoint::Kind::kVariable:
          return {Scratch::Ep::kVar, graph.variable(id)};
        case lang::Endpoint::Kind::kDisk:
          return {Scratch::Ep::kDisk, 0};
        case lang::Endpoint::Kind::kUnknown:
        default:
          // Each 0.0.0.0 is a distinct infinitely-provisioned external
          // sender, exactly as the cold path's per-call counter models it.
          return {Scratch::Ep::kHost,
                  s.AddHost("_unknown" + std::to_string(unknown_counter++), nullptr)};
      }
    };
    plan.src = classify(flow.src, graph.src_id(flow.index));
    plan.dst = classify(flow.dst, graph.dst_id(flow.index));
    s.flows.push_back(plan);
  }
  s.host_of_slot.resize(query_hosts.names.size());
  for (size_t slot = 0; slot < s.host_of_slot.size(); ++slot) {
    s.host_of_slot[slot] = host(static_cast<int>(slot));
  }

  s.sim = std::make_unique<FluidSimulation>(&s.star, min_available_fraction_);
  const ResourceRegistry& registry = s.sim->resources();
  const int hosts = static_cast<int>(s.host_node.size());
  s.nic_up.resize(hosts);
  s.nic_down.resize(hosts);
  s.disk_read.resize(hosts);
  s.disk_write.resize(hosts);
  s.link_up.resize(hosts);
  s.link_down.resize(hosts);
  for (int i = 0; i < hosts; ++i) {
    const NodeId node = s.host_node[i];
    s.nic_up[i] = registry.NicUp(node);
    s.nic_down[i] = registry.NicDown(node);
    s.disk_read[i] = registry.DiskRead(node);
    s.disk_write[i] = registry.DiskWrite(node);
    // AddDuplexLink allocates (forward, reverse) consecutively.
    s.link_up[i] = registry.LinkResource(s.pending_links[i]);
    s.link_down[i] = registry.LinkResource(s.pending_links[i] + 1);
    const StatusReport& report = s.pending_reports[i];
    s.sim->SetBackground(s.nic_up[i], report.nic_tx_use);
    s.sim->SetBackground(s.nic_down[i], report.nic_rx_use);
    s.sim->SetBackground(s.disk_read[i], report.disk_read_use);
    s.sim->SetBackground(s.disk_write[i], report.disk_write_use);
  }
  s.var_host.assign(query.variables().size(), -1);
  s.flows_of_var.assign(query.variables().size(), {});
  s.total_bytes = 0;
  for (size_t i = 0; i < s.flows.size(); ++i) {
    const Scratch::FlowPlan& plan = s.flows[i];
    s.total_bytes += plan.size;
    if (plan.src.kind == Scratch::Ep::kVar) {
      s.flows_of_var[plan.src.index].push_back(static_cast<int>(i));
    }
    if (plan.dst.kind == Scratch::Ep::kVar &&
        (plan.src.kind != Scratch::Ep::kVar || plan.src.index != plan.dst.index)) {
      s.flows_of_var[plan.dst.index].push_back(static_cast<int>(i));
    }
  }
}

void FlowLevelEstimator::EndQuery() {
  if (scratch_ != nullptr && scratch_->sim != nullptr) {
    const FluidSimulation::SolverCounters c = scratch_->sim->solver_counters();
    stats_.solver_recomputes += c.recomputes;
    stats_.delta_component_hits += c.delta_component_hits;
    stats_.cold_component_solves += c.cold_component_solves;
  }
  scratch_.reset();
}

std::unique_ptr<CompletionEstimator> FlowLevelEstimator::CloneForThread() const {
  return std::make_unique<FlowLevelEstimator>(min_available_fraction_, reuse_scratch_,
                                              delta_rebind_);
}

SolverStats FlowLevelEstimator::TakeSolverStats() {
  const SolverStats out = stats_;
  stats_ = SolverStats{};
  return out;
}

Result<Estimate> FlowLevelEstimator::EstimateQuery(const lang::CompiledQuery& query,
                                                   std::span<const int> slots,
                                                   const lang::HostStatus& status) {
  if (scratch_ == nullptr || scratch_->query != &query || scratch_->status != &status) {
    return EstimateCold(query, slots, status);
  }
  Scratch& s = *scratch_;
  for (size_t v = 0; v < s.var_host.size(); ++v) {
    const size_t slot = v < slots.size() ? slots[v] : -1;  // -1 wraps past every slot.
    s.var_host[v] = slot < s.host_of_slot.size() ? s.host_of_slot[slot] : -1;
  }
  return EstimateWithScratch(query);
}

Result<Estimate> FlowLevelEstimator::EstimateWithScratch(const lang::CompiledQuery& query) {
  Scratch& s = *scratch_;
  FluidSimulation& sim = *s.sim;

  auto host_of = [&](const Scratch::Ep& ep) -> int {
    return ep.kind == Scratch::Ep::kHost ? ep.index
                                         : (ep.index >= 0 ? s.var_host[ep.index] : -1);
  };
  // Resolves flow i's resource set under the current var_host view into
  // `out`. False on an unbound variable endpoint.
  auto flow_resources = [&](size_t i, std::vector<ResourceId>& out) -> bool {
    const Scratch::FlowPlan& plan = s.flows[i];
    out.clear();
    if (plan.src.kind == Scratch::Ep::kDisk) {
      const int dst = host_of(plan.dst);
      if (dst < 0) {
        return false;
      }
      out = {s.disk_read[dst]};
    } else if (plan.dst.kind == Scratch::Ep::kDisk) {
      const int src = host_of(plan.src);
      if (src < 0) {
        return false;
      }
      out = {s.disk_write[src]};
    } else {
      const int src = host_of(plan.src);
      const int dst = host_of(plan.dst);
      if (src < 0 || dst < 0) {
        return false;
      }
      if (src != dst) {
        // Same resource set and order as ResourceRegistry::NetworkPath on
        // the star; loopback transfers consume nothing (empty set).
        out = {s.nic_up[src], s.link_up[src], s.link_down[dst], s.nic_down[dst]};
      }
    }
    return true;
  };

  if (delta_rebind_ && s.groups_installed) {
    // Delta re-bind: rewind to the checkpoint (which also reverts member
    // resources to the checkpointed binding) and patch only the flows whose
    // endpoints differ from it. Untouched components then re-solve as cache
    // hits inside the simulation.
    sim.RestoreCheckpoint();
    for (size_t v = 0; v < s.var_host.size(); ++v) {
      if (s.var_host[v] == s.chk_var_host[v]) {
        continue;
      }
      for (const int fi : s.flows_of_var[v]) {
        const Scratch::FlowMember& fm = s.flow_member[fi];
        if (fm.gid == kInvalidGroup) {
          continue;
        }
        if (!flow_resources(fi, s.patch_resources)) {
          return Error{"flow '" + query.flows()[fi].name + "' has an unbound variable endpoint"};
        }
        std::vector<ResourceId>& target = sim.MutableMemberResources(fm.gid, fm.member);
        if (target != s.patch_resources) {
          target = s.patch_resources;
          sim.MarkGroupDirty(fm.gid);
        }
      }
    }
    ++stats_.delta_rebinds;
  } else {
    // Full (re)install: build every group from scratch, then checkpoint so
    // subsequent bindings take the delta path.
    s.groups_installed = false;
    sim.Reset();
    s.specs.clear();
    s.specs.resize(query.groups().size());
    for (size_t g = 0; g < query.groups().size(); ++g) {
      s.specs[g].rate_limit = query.groups()[g].rate_limit;
      s.specs[g].start_time = std::max<Seconds>(0, query.groups()[g].start);
    }
    s.flow_member.assign(s.flows.size(), Scratch::FlowMember{});
    for (size_t i = 0; i < s.flows.size(); ++i) {
      const Scratch::FlowPlan& plan = s.flows[i];
      if (!flow_resources(i, s.patch_resources)) {
        return Error{"flow '" + query.flows()[i].name + "' has an unbound variable endpoint"};
      }
      FluidFlow flow;
      flow.size = plan.size;
      flow.resources = s.patch_resources;
      // Temporarily store the chain-group index; remapped to the admitted
      // GroupId below.
      s.flow_member[i].gid = plan.group;
      s.flow_member[i].member = static_cast<int>(s.specs[plan.group].flows.size());
      s.specs[plan.group].flows.push_back(std::move(flow));
    }
    s.group_ids.assign(query.groups().size(), kInvalidGroup);
    for (size_t g = 0; g < s.specs.size(); ++g) {
      if (s.specs[g].flows.empty()) {
        continue;
      }
      s.group_ids[g] = sim.AddGroup(std::move(s.specs[g]));
    }
    for (Scratch::FlowMember& fm : s.flow_member) {
      fm.gid = fm.gid >= 0 ? s.group_ids[fm.gid] : kInvalidGroup;
    }
    if (delta_rebind_) {
      sim.SaveCheckpoint();
      s.chk_var_host = s.var_host;
      s.groups_installed = true;
    }
    ++stats_.cold_rebinds;
  }

  if (!sim.RunUntilIdle(/*hard_deadline=*/1e9)) {
    return Error{"flow-level estimate did not converge (zero-rate flows)"};
  }
  Seconds makespan = 0;
  for (const GroupId gid : s.group_ids) {
    if (gid != kInvalidGroup) {
      makespan = std::max(makespan, sim.GroupFinishTime(gid));
    }
  }
  cloudtalk::Estimate estimate;
  estimate.makespan = makespan;
  estimate.aggregate_throughput = makespan > 0 ? s.total_bytes * 8.0 / makespan : 0;
  return estimate;
}

Result<Estimate> FlowLevelEstimator::EstimateCold(const lang::CompiledQuery& query,
                                                  std::span<const int> slots,
                                                  const lang::HostStatus& status) const {
  // Build a throwaway star topology: one abstract host per host of the bound
  // query, numbered as `status` numbers them (an alias and its address are
  // one), all hanging off an uncontended switch. Endpoint capacities and
  // background load come from the host's report; a host with none is
  // modelled as idle with very large capacity so it never dominates the
  // estimate (0.0.0.0 sources fall in this bucket).
  const lang::QueryHosts& query_hosts = query.hosts();
  const lang::FlowGraph& graph = query.graph();
  struct AbstractHost {
    std::string address;
    StatusReport report;
    NodeId node = kInvalidNode;
  };
  std::vector<AbstractHost> hosts;
  std::vector<int> host_of_id(query_hosts.names.size(), -1);  // By identity slot.
  auto intern = [&](int slot) -> int {
    const int id = lang::HostOf(status.identity(), slot);
    if (host_of_id[id] < 0) {
      host_of_id[id] = static_cast<int>(hosts.size());
      hosts.push_back({*query_hosts.names[id], OrUnreported(status.Find(id))});
    }
    return host_of_id[id];
  };

  // Resolve every flow's endpoints to hosts first so the host set is
  // complete.
  constexpr int kDiskHost = -1;
  constexpr int kUnbound = -2;
  int unknown_counter = 0;
  auto resolve = [&](const lang::Endpoint& e, int name) -> int {
    switch (e.kind) {
      case lang::Endpoint::Kind::kAddress:
        return intern(query_hosts.slot_of[name]);
      case lang::Endpoint::Kind::kVariable: {
        const size_t v = graph.variable(name);  // -1 wraps past every variable.
        const size_t slot = v < slots.size() ? slots[v] : -1;
        return slot < query_hosts.names.size() ? intern(static_cast<int>(slot)) : kUnbound;
      }
      case lang::Endpoint::Kind::kDisk:
        return kDiskHost;
      case lang::Endpoint::Kind::kUnknown:
      default:
        // Each 0.0.0.0 is a distinct infinitely-provisioned external sender.
        hosts.push_back({"_unknown" + std::to_string(unknown_counter++), OrUnreported(nullptr)});
        return static_cast<int>(hosts.size()) - 1;
    }
  };
  struct ResolvedFlow {
    int src = 0;
    int dst = 0;
    Bytes size = 0;
    int group = 0;
  };
  std::vector<ResolvedFlow> resolved;
  resolved.reserve(query.flows().size());
  for (const lang::CompiledFlow& flow : query.flows()) {
    ResolvedFlow rf;
    rf.src = resolve(flow.src, graph.src_id(flow.index));
    rf.dst = resolve(flow.dst, graph.dst_id(flow.index));
    if (rf.src == kUnbound || rf.dst == kUnbound) {
      return Error{"flow '" + flow.name + "' has an unbound variable endpoint"};
    }
    rf.size = flow.size;
    rf.group = flow.group;
    resolved.push_back(rf);
  }

  // Star topology with an uncontended hub.
  Topology star;
  const NodeId hub = star.AddNode(NodeKind::kTor, "hub");
  for (AbstractHost& host : hosts) {
    HostCaps caps;
    caps.nic_up = host.report.nic_tx_cap;
    caps.nic_down = host.report.nic_rx_cap;
    caps.disk_read = host.report.disk_read_cap;
    caps.disk_write = host.report.disk_write_cap;
    host.node = star.AddHost(host.address, caps, 0);
    star.AddDuplexLink(host.node, hub, kHugeCapacity);
  }
  FluidSimulation sim(&star, min_available_fraction_);
  for (const AbstractHost& host : hosts) {
    sim.SetBackground(sim.resources().NicUp(host.node), host.report.nic_tx_use);
    sim.SetBackground(sim.resources().NicDown(host.node), host.report.nic_rx_use);
    sim.SetBackground(sim.resources().DiskRead(host.node), host.report.disk_read_use);
    sim.SetBackground(sim.resources().DiskWrite(host.node), host.report.disk_write_use);
  }

  // One fluid group per chain group.
  Bytes total_bytes = 0;
  std::vector<GroupSpec> specs(query.groups().size());
  for (size_t g = 0; g < query.groups().size(); ++g) {
    specs[g].rate_limit = query.groups()[g].rate_limit;
    specs[g].start_time = std::max<Seconds>(0, query.groups()[g].start);
  }
  for (const ResolvedFlow& rf : resolved) {
    FluidFlow flow;
    flow.size = rf.size;
    total_bytes += rf.size;
    if (rf.src == kDiskHost) {
      flow.resources = {sim.resources().DiskRead(hosts[rf.dst].node)};
    } else if (rf.dst == kDiskHost) {
      flow.resources = {sim.resources().DiskWrite(hosts[rf.src].node)};
    } else {
      flow.resources = sim.resources().NetworkPath(star, hosts[rf.src].node, hosts[rf.dst].node);
    }
    specs[rf.group].flows.push_back(std::move(flow));
  }

  std::vector<GroupId> ids;
  ids.reserve(specs.size());
  for (GroupSpec& spec : specs) {
    if (spec.flows.empty()) {
      continue;
    }
    ids.push_back(sim.AddGroup(std::move(spec)));
  }
  if (!sim.RunUntilIdle(/*hard_deadline=*/1e9)) {
    return Error{"flow-level estimate did not converge (zero-rate flows)"};
  }
  Seconds makespan = 0;
  for (const GroupId id : ids) {
    makespan = std::max(makespan, sim.GroupFinishTime(id));
  }
  cloudtalk::Estimate estimate;
  estimate.makespan = makespan;
  estimate.aggregate_throughput = makespan > 0 ? total_bytes * 8.0 / makespan : 0;
  return estimate;
}

}  // namespace cloudtalk
