#include "src/core/heuristic.h"

#include <algorithm>
#include <limits>
#include <span>
#include <string_view>
#include <utility>

namespace cloudtalk {

namespace {

using lang::Endpoint;
using lang::VarComm;

// The report of a candidate the snapshot has no entry for: fully loaded
// with unit capacity, below every known host. The server substitutes
// AssumeLoaded reports for hosts that never answered, so this covers a name
// that was never probed (one the directory does not know, say).
constexpr StatusReport kUnknownReport{
    .nic_tx_cap = 1, .nic_tx_use = 1, .nic_rx_cap = 1, .nic_rx_use = 1,
    .disk_read_cap = 1, .disk_read_use = 1, .disk_write_cap = 1, .disk_write_use = 1};

struct Candidate {
  int slot;
  double score;
};

}  // namespace

QueryHosts::QueryHosts(const lang::CompiledQuery& compiled) {
  // Every address mention, pool entries first, then flow endpoints: a name's
  // first mention hands out its slot.
  const lang::FlowGraph& graph = compiled.graph();
  const std::vector<VarComm>& variables = compiled.variables();
  std::vector<int> slot_of(graph.names().size(), -1);  // By name id.
  const auto slot = [&](const Endpoint& e, int id) {
    if (e.kind != Endpoint::Kind::kAddress) {
      return -1;
    }
    if (slot_of[id] < 0) {
      slot_of[id] = static_cast<int>(names.size());
      names.push_back(&e.name);
      ids.push_back(id);
    }
    return slot_of[id];
  };
  names.reserve(slot_of.size());
  ids.reserve(slot_of.size());
  // Each variable's pool as slots, and each distinct pool once, interned by
  // its slot list's bytes.
  NameTable pool_index;
  pools.reserve(variables.size());
  pool_of.reserve(variables.size());
  for (const VarComm& var : variables) {
    const std::span<const int> pool_ids = graph.pool_ids(var.decl);
    std::vector<int> entries(var.pool.size());
    for (size_t k = 0; k < entries.size(); ++k) {
      entries[k] = slot(var.pool[k], pool_ids[k]);
    }
    const std::string_view bytes(reinterpret_cast<const char*>(entries.data()),
                                 entries.size() * sizeof(int));
    pool_of.push_back(pool_index.Intern(bytes));
    if (pool_of.back() == static_cast<int>(pools.size())) {
      pools.push_back(std::move(entries));  // The buffer, and so the key, stays put.
    }
  }
  pool_names = static_cast<int>(names.size());
  std::vector<char> listed(slot_of.size(), 0);  // By name id: in `endpoints`.
  for (const lang::CompiledFlow& flow : compiled.flows()) {
    for (const auto& [e, id] : {std::pair{&flow.src, graph.src_id(flow.index)},
                                std::pair{&flow.dst, graph.dst_id(flow.index)}}) {
      if (slot(*e, id) >= 0 && !std::exchange(listed[id], 1)) {
        endpoints.push_back(slot_of[id]);
      }
    }
  }

  // Each variable's only peer's slot.
  peer_of.reserve(variables.size());
  for (const VarComm& var : variables) {
    const Endpoint* only = var.rx_from.size() + var.tx_to.size() != 1 ? nullptr
                           : var.rx_from.empty()                    ? &var.tx_to.front()
                                                                    : &var.rx_from.front();
    peer_of.push_back(only != nullptr && only->kind == Endpoint::Kind::kAddress
                          ? slot_of[graph.names().Find(only->name)]
                          : -1);
  }
}

AnswerHosts::AnswerHosts(const QueryHosts& hosts, const Directory* directory)
    : slots(hosts.names.size()) {
  // Sorting the resolved slots by host, first slot first, finds each host's
  // identity and lists the pool hosts in order.
  std::vector<std::pair<NodeId, int>> by_host;
  by_host.reserve(slots.size());
  for (size_t slot = 0; slot < slots.size(); ++slot) {
    slots[slot].id = static_cast<int>(slot);
    if (directory != nullptr) {
      slots[slot].node = directory->Resolve(*hosts.names[slot]);
    }
    if (slots[slot].node != kInvalidNode) {
      by_host.emplace_back(slots[slot].node, static_cast<int>(slot));
    }
  }
  std::sort(by_host.begin(), by_host.end());
  pool_hosts.reserve(by_host.size());
  for (size_t k = 0; k < by_host.size(); ++k) {
    const auto [node, slot] = by_host[k];
    if (k > 0 && by_host[k - 1].first == node) {
      slots[slot].id = slots[by_host[k - 1].second].id;
    } else if (slot < hosts.pool_names) {
      pool_hosts.push_back(node);
    }
  }
}

double EvalFitness(Bps capacity, Bps usage, double weight, FitnessModel model) {
  switch (model) {
    case FitnessModel::kLinear:
      return capacity - weight * usage;
    case FitnessModel::kFairShare: {
      if (capacity <= 0) {
        return 0;
      }
      const double available = capacity - usage;
      const double fair = capacity / (1.0 + weight * usage / capacity);
      return std::max(available, fair);
    }
  }
  return 0;
}

double EvalRx(const StatusReport& report, double weight, FitnessModel model) {
  return EvalFitness(report.nic_rx_cap, report.nic_rx_use, weight, model);
}
double EvalTx(const StatusReport& report, double weight, FitnessModel model) {
  return EvalFitness(report.nic_tx_cap, report.nic_tx_use, weight, model);
}
double EvalDiskRead(const StatusReport& report, double weight, FitnessModel model) {
  return EvalFitness(report.disk_read_cap, report.disk_read_use, weight, model);
}
double EvalDiskWrite(const StatusReport& report, double weight, FitnessModel model) {
  return EvalFitness(report.disk_write_cap, report.disk_write_use, weight, model);
}

Result<HeuristicResult> EvaluateHeuristic(const lang::CompiledQuery& query,
                                          const StatusByAddress& status,
                                          const HeuristicParams& params) {
  const QueryHosts hosts(query);
  AnswerHosts answer(hosts);
  return EvaluateHeuristic(query, hosts, &answer, status, params);
}

Result<HeuristicResult> EvaluateHeuristic(const lang::CompiledQuery& query,
                                          const QueryHosts& hosts, AnswerHosts* answer,
                                          const StatusByAddress& status,
                                          const HeuristicParams& params) {
  const std::vector<VarComm>& variables = query.variables();
  const bool distinct = !query.query().options.allow_same_binding;
  HeuristicResult result;
  result.scores.reserve(variables.size());
  std::vector<HostSlot>& slots = answer->slots;
  std::vector<Candidate> candidates;
  const auto id_of = [&slots](int slot) { return slot < 0 ? -1 : slots[slot].id; };
  // How many times a slot's host has been handed out (distinct bindings
  // wrap around once the pool is exhausted).
  const auto used = [&](int slot) { return slots[id_of(slot)].used; };

  // Score of the candidate `address` for `var`; `local` when it is the
  // variable's only peer, which turns its transfer into a loopback (Listing
  // 1 lines 8/9/27). The status is looked up once, and only when the score
  // reads it.
  auto score_candidate = [&](const VarComm& var, const std::string& address,
                             bool local) -> double {
    const bool net = !local && (!var.rx_from.empty() || !var.tx_to.empty());
    const bool has_requirement = var.cpu_required > 0 || var.mem_required > 0;
    if (!net && !has_requirement && !var.reads_disk && !var.writes_disk) {
      return kMaxScore;
    }
    const auto it = status.find(address);
    const StatusReport& report = it != status.end() ? it->second : kUnknownReport;
    // Scalar requirements (Section 7): a candidate with known-insufficient
    // free CPU or memory ranks below every other candidate. Unknown scalar
    // state (total == 0) passes — the probe simply carried no information.
    const bool cpu_short = report.cpu_cores_total > 0 && var.cpu_required > 0 &&
                           report.CpuFree() < var.cpu_required;
    const bool mem_short =
        report.mem_total > 0 && var.mem_required > 0 && report.MemFree() < var.mem_required;
    if (cpu_short || mem_short) {
      return -kMaxScore;
    }
    const double w = params.weight;
    const FitnessModel model = params.fitness;
    const double net_rx = net && !var.rx_from.empty() ? EvalRx(report, w, model) : kMaxScore;
    const double net_tx = net && !var.tx_to.empty() ? EvalTx(report, w, model) : kMaxScore;
    const double disk_read = var.reads_disk ? EvalDiskRead(report, w, model) : kMaxScore;
    const double disk_write = var.writes_disk ? EvalDiskWrite(report, w, model) : kMaxScore;
    return std::min(std::min(net_rx, net_tx), std::min(disk_read, disk_write));
  };

  auto assign_value = [&](size_t v) -> Result<bool> {
    const VarComm& var = variables[v];
    if (var.pool.empty()) {
      return Error{"variable '" + var.name + "' has an empty candidate pool"};
    }
    const int peer = id_of(hosts.peer_of[v]);
    const std::vector<int>& pool = answer->Candidates(hosts, hosts.pool_of[v]);
    candidates.clear();
    candidates.reserve(pool.size());
    int min_used = std::numeric_limits<int>::max();
    for (const int slot : pool) {
      if (slot < 0) {
        continue;  // Disk values are not bindable.
      }
      min_used = std::min(min_used, used(slot));
      candidates.push_back(
          Candidate{slot, score_candidate(var, *hosts.names[slot], id_of(slot) == peer)});
    }
    if (candidates.empty()) {
      return Error{"variable '" + var.name + "' has no address candidates"};
    }
    // Distinct bindings: restrict to the least-used hosts (0 until the pool
    // wraps). Then order by score, best first; ties keep pool order.
    if (distinct) {
      candidates.erase(
          std::remove_if(candidates.begin(), candidates.end(),
                         [&](const Candidate& c) { return used(c.slot) != min_used; }),
          candidates.end());
    }
    std::stable_sort(candidates.begin(), candidates.end(),
                     [](const Candidate& a, const Candidate& b) { return a.score > b.score; });
    // Honour reservations: take the best unheld candidate; if every
    // candidate is held, fall back to the best overall (Section 5.5).
    const auto unheld = std::find_if(candidates.begin(), candidates.end(),
                                     [&](const Candidate& c) { return !slots[c.slot].held; });
    const Candidate& chosen = unheld != candidates.end() ? *unheld : candidates.front();
    result.binding[var.name] = Endpoint::Address(*hosts.names[chosen.slot]);
    result.scores.emplace_back(var.name, chosen.score);
    slots[id_of(chosen.slot)].used += 1;
    return true;
  };

  // A priority variable's only peer is a host in its pool.
  const auto priority = [&](size_t v) {
    const int peer = id_of(hosts.peer_of[v]);
    const std::vector<int>& pool = answer->Candidates(hosts, hosts.pool_of[v]);
    return params.enable_priority_binding && peer >= 0 &&
           std::any_of(pool.begin(), pool.end(), [&](int slot) { return id_of(slot) == peer; });
  };
  // Phase 1 binds the priority variables, phase 2 everything else, each in
  // declaration order.
  for (const bool phase1 : {true, false}) {
    for (size_t v = 0; v < variables.size(); ++v) {
      if (priority(v) != phase1) {
        continue;
      }
      Result<bool> r = assign_value(v);
      if (!r.ok()) {
        return r.error();
      }
    }
  }
  return result;
}

}  // namespace cloudtalk
