#include "src/core/heuristic.h"

#include <algorithm>
#include <limits>
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

AnswerHosts::AnswerHosts(const lang::QueryHosts& hosts, const Directory* directory)
    : slots(hosts.names.size()), identity(hosts.names.size()) {
  // The resolved slots, sorted by host then slot, in pool_hosts' buffer: a
  // host's first slot is its identity, and a host whose first slot is a pool
  // entry is a pool host. The buffer is then compacted in place to those.
  pool_hosts.reserve(slots.size());
  for (size_t slot = 0; slot < slots.size(); ++slot) {
    identity[slot] = static_cast<int>(slot);
    if (directory != nullptr) {
      slots[slot].node = directory->Resolve(*hosts.names[slot]);
    }
    if (slots[slot].node != kInvalidNode) {
      pool_hosts.push_back(static_cast<int>(slot));
    }
  }
  std::sort(pool_hosts.begin(), pool_hosts.end(), [this](int a, int b) {
    return std::pair(slots[a].node, a) < std::pair(slots[b].node, b);
  });
  size_t pool_size = 0;
  int first = -1;  // The current host's first slot.
  for (size_t k = 0; k < pool_hosts.size(); ++k) {
    const int slot = pool_hosts[k];
    if (first >= 0 && slots[first].node == slots[slot].node) {
      identity[slot] = first;
    } else {
      first = slot;
      if (slot < hosts.pool_names) {
        pool_hosts[pool_size++] = slots[slot].node;  // pool_size <= k: read already.
      }
    }
  }
  pool_hosts.resize(pool_size);
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
                                          const lang::HostStatus& status,
                                          const HeuristicParams& params) {
  AnswerHosts answer(query.hosts());
  return EvaluateHeuristic(query, &answer, status, params);
}

Result<HeuristicResult> EvaluateHeuristic(const lang::CompiledQuery& query, AnswerHosts* answer,
                                          const lang::HostStatus& status,
                                          const HeuristicParams& params) {
  const lang::QueryHosts& hosts = query.hosts();
  const std::vector<VarComm>& variables = query.variables();
  const bool distinct = !query.query().options.allow_same_binding;
  HeuristicResult result;
  result.scores.reserve(variables.size());
  std::vector<HostSlot>& slots = answer->slots;
  std::vector<Candidate> candidates;
  const auto id_of = [answer](int slot) { return lang::HostOf(answer->identity, slot); };
  // How many times a slot's host has been handed out (distinct bindings
  // wrap around once the pool is exhausted).
  const auto used = [&](int slot) { return slots[id_of(slot)].used; };

  // Score of the candidate at `slot` for `var`; `local` when it is the
  // variable's only peer, which turns its transfer into a loopback (Listing
  // 1 lines 8/9/27). The status is looked up once, and only when the score
  // reads it.
  auto score_candidate = [&](const VarComm& var, int slot, bool local) -> double {
    const bool net = !local && (!var.rx_from.empty() || !var.tx_to.empty());
    const bool has_requirement = var.cpu_required > 0 || var.mem_required > 0;
    if (!net && !has_requirement && !var.reads_disk && !var.writes_disk) {
      return kMaxScore;
    }
    const StatusReport* reported = status.Find(slot);
    const StatusReport& report = reported != nullptr ? *reported : kUnknownReport;
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
      candidates.push_back(Candidate{slot, score_candidate(var, slot, id_of(slot) == peer)});
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
