#include "src/core/packet_estimator.h"

#include <algorithm>
#include <memory>
#include <vector>

namespace cloudtalk {

Result<Estimate> PacketLevelEstimator::EstimateQuery(const lang::CompiledQuery& query,
                                                     std::span<const int> slots,
                                                     const lang::HostStatus& status) {
  (void)status;
  const lang::QueryHosts& hosts = query.hosts();
  const lang::FlowGraph& graph = query.graph();
  // The address a flow endpoint spells under `slots`, null for an unbound
  // variable (-1 wraps past every variable and slot).
  const auto spelling = [&](const lang::Endpoint& e, int name) -> const std::string* {
    if (e.kind != lang::Endpoint::Kind::kVariable) {
      return &e.name;
    }
    const size_t v = graph.variable(name);
    const size_t slot = v < slots.size() ? slots[v] : -1;
    return slot < hosts.names.size() ? hosts.names[slot] : nullptr;
  };
  struct PlannedFlow {
    NodeId src = kInvalidNode;
    NodeId dst = kInvalidNode;
    Bytes size = 0;
    Seconds start = 0;
    std::vector<int> children;  // Flows waiting on this one.
    int waiting_on = 0;         // Unfinished transfer parents.
    bool instantaneous = false; // Disk / loopback flows: no network cost.
  };
  const auto& flows = query.flows();
  std::vector<PlannedFlow> planned(flows.size());

  for (size_t i = 0; i < flows.size(); ++i) {
    const lang::CompiledFlow& flow = flows[i];
    PlannedFlow& p = planned[i];
    p.size = flow.size;
    p.start = std::max<Seconds>(0, flow.start);
    const std::string* src = spelling(flow.src, graph.src_id(flow.index));
    const std::string* dst = spelling(flow.dst, graph.dst_id(flow.index));
    if (src == nullptr || dst == nullptr) {
      return Error{"flow '" + flow.name + "' has an unbound variable endpoint"};
    }
    if (flow.src.kind == lang::Endpoint::Kind::kUnknown ||
        flow.dst.kind == lang::Endpoint::Kind::kUnknown) {
      return Error{"packet-level evaluation does not support 0.0.0.0 endpoints"};
    }
    if (flow.src.kind == lang::Endpoint::Kind::kDisk ||
        flow.dst.kind == lang::Endpoint::Kind::kDisk) {
      // The packet simulator models the network; local disk hops are
      // treated as free (the web-search workload has none).
      p.instantaneous = true;
    } else {
      p.src = directory_->Resolve(*src);
      p.dst = directory_->Resolve(*dst);
      if (p.src == kInvalidNode || p.dst == kInvalidNode) {
        return Error{"unknown address in flow '" + flow.name + "'"};
      }
      if (p.src == p.dst) {
        p.instantaneous = true;  // Loopback.
      }
    }
    for (int parent : flow.transfer_parents) {
      planned[parent].children.push_back(static_cast<int>(i));
      p.waiting_on += 1;
    }
  }

  packetsim::PacketNetwork net(topo_, params_);
  Seconds makespan = 0;
  Bytes total_bytes = 0;
  int outstanding = 0;

  // Start a flow; completion releases its children.
  std::function<void(int, Seconds)> start_flow;
  std::function<void(int, Seconds)> finish_flow;
  finish_flow = [&](int index, Seconds at) {
    makespan = std::max(makespan, at);
    --outstanding;
    for (int child : planned[index].children) {
      if (--planned[child].waiting_on == 0) {
        start_flow(child, at);
      }
    }
  };
  start_flow = [&](int index, Seconds at) {
    PlannedFlow& p = planned[index];
    const Seconds begin = std::max(at, p.start);
    ++outstanding;
    total_bytes += p.size;
    if (p.instantaneous) {
      net.events().Schedule(begin, [&finish_flow, index, begin] { finish_flow(index, begin); });
      return;
    }
    net.StartTcpFlow(p.src, p.dst, p.size, begin,
                     [&finish_flow, index](packetsim::FlowId, Seconds t) {
                       finish_flow(index, t);
                     });
  };
  for (size_t i = 0; i < planned.size(); ++i) {
    if (planned[i].waiting_on == 0) {
      start_flow(static_cast<int>(i), planned[i].start);
    }
  }

  net.RunUntilIdle(/*hard_deadline=*/3600.0);
  if (outstanding != 0) {
    return Error{"packet-level simulation did not finish within the deadline"};
  }
  Estimate estimate;
  estimate.makespan = makespan;
  estimate.aggregate_throughput = makespan > 0 ? total_bytes * 8.0 / makespan : 0;
  return estimate;
}

}  // namespace cloudtalk
