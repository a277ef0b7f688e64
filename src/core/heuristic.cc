#include "src/core/heuristic.h"

#include <algorithm>
#include <limits>
#include <unordered_map>
#include <unordered_set>

namespace cloudtalk {

namespace {

using lang::Endpoint;
using lang::VarComm;

// When a host never answered its probe the snapshot has no entry; the
// CloudTalk server substitutes AssumeLoaded reports before calling the
// heuristic, so a missing address here means "no information at all" —
// score it as fully loaded with unit capacity, i.e. below every known host.
double EvalOrWorst(const StatusByAddress& status, const std::string& address,
                   double (*eval)(const StatusReport&, double, FitnessModel),
                   const HeuristicParams& params) {
  const auto it = status.find(address);
  if (it == status.end()) {
    StatusReport unknown;
    unknown.nic_tx_cap = unknown.nic_rx_cap = 1;
    unknown.nic_tx_use = unknown.nic_rx_use = 1;
    unknown.disk_read_cap = unknown.disk_write_cap = 1;
    unknown.disk_read_use = unknown.disk_write_use = 1;
    return eval(unknown, params.weight, params.fitness);
  }
  return eval(it->second, params.weight, params.fitness);
}

// True when `var` communicates with exactly one network endpoint overall and
// that endpoint is the literal address `candidate` (Listing 1 lines 8/9/27:
// binding the variable to its only peer turns the transfer into a loopback).
bool SingleLocalEndpoint(const VarComm& var, const std::string& candidate) {
  const Endpoint* only = nullptr;
  if (var.rx_from.size() + var.tx_to.size() != 1) {
    return false;
  }
  only = var.rx_from.empty() ? &var.tx_to.front() : &var.rx_from.front();
  return only->kind == Endpoint::Kind::kAddress && only->name == candidate;
}

// True when the variable qualifies for priority assignment: it communicates
// with at most one endpoint and that endpoint is one of its possible values.
bool IsPriorityVariable(const VarComm& var) {
  if (var.rx_from.size() + var.tx_to.size() != 1) {
    return false;
  }
  const Endpoint& only = var.rx_from.empty() ? var.tx_to.front() : var.rx_from.front();
  if (only.kind != Endpoint::Kind::kAddress) {
    return false;
  }
  return std::find(var.pool.begin(), var.pool.end(), only) != var.pool.end();
}

struct Candidate {
  std::string address;
  double score = -std::numeric_limits<double>::infinity();
};

}  // namespace

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
                                          const HeuristicParams& params,
                                          const ReservationFilter& reserved) {
  return EvaluateHeuristic(query.variables(), query.query().options.allow_same_binding,
                           status, params, reserved);
}

Result<HeuristicResult> EvaluateHeuristic(const std::vector<lang::VarComm>& variables,
                                          bool allow_same, const StatusByAddress& status,
                                          const HeuristicParams& params,
                                          const ReservationFilter& reserved) {
  HeuristicResult result;
  const bool distinct = !allow_same;
  // How many times each address has been handed out (distinct bindings wrap
  // around once the pool is exhausted).
  std::unordered_map<std::string, int> times_used;

  // Score of candidate `address` for variable `var`.
  auto score_candidate = [&](const VarComm& var, const std::string& address) -> double {
    // Scalar requirements (Section 7): a candidate with known-insufficient
    // free CPU or memory ranks below every other candidate. Unknown scalar
    // state (total == 0) passes — the probe simply carried no information.
    if (var.cpu_required > 0 || var.mem_required > 0) {
      const auto it = status.find(address);
      if (it != status.end()) {
        const StatusReport& report = it->second;
        const bool cpu_short = report.cpu_cores_total > 0 && var.cpu_required > 0 &&
                               report.CpuFree() < var.cpu_required;
        const bool mem_short =
            report.mem_total > 0 && var.mem_required > 0 && report.MemFree() < var.mem_required;
        if (cpu_short || mem_short) {
          return -kMaxScore;
        }
      }
    }
    double net_rx = kMaxScore;
    double net_tx = kMaxScore;
    if (!SingleLocalEndpoint(var, address)) {
      if (!var.rx_from.empty()) {
        net_rx = EvalOrWorst(status, address, EvalRx, params);
      }
      if (!var.tx_to.empty()) {
        net_tx = EvalOrWorst(status, address, EvalTx, params);
      }
    }
    double disk_read = kMaxScore;
    double disk_write = kMaxScore;
    if (var.reads_disk) {
      disk_read = EvalOrWorst(status, address, EvalDiskRead, params);
    }
    if (var.writes_disk) {
      disk_write = EvalOrWorst(status, address, EvalDiskWrite, params);
    }
    return std::min(std::min(net_rx, net_tx), std::min(disk_read, disk_write));
  };

  auto assign_value = [&](const VarComm& var) -> Result<bool> {
    if (var.pool.empty()) {
      return Error{"variable '" + var.name + "' has an empty candidate pool"};
    }
    std::vector<Candidate> candidates;
    candidates.reserve(var.pool.size());
    int min_used = std::numeric_limits<int>::max();
    for (const Endpoint& value : var.pool) {
      if (value.kind != Endpoint::Kind::kAddress) {
        continue;  // Pools contain addresses; disk values are not bindable.
      }
      const auto used_it = times_used.find(value.name);
      const int used = used_it == times_used.end() ? 0 : used_it->second;
      min_used = std::min(min_used, used);
      candidates.push_back(Candidate{value.name, score_candidate(var, value.name)});
    }
    if (candidates.empty()) {
      return Error{"variable '" + var.name + "' has no address candidates"};
    }
    // Distinct bindings: restrict to the least-used addresses (0 until the
    // pool wraps). Then order by score, best first; ties keep pool order.
    std::vector<Candidate> eligible;
    for (const Candidate& c : candidates) {
      const auto used_it = times_used.find(c.address);
      const int used = used_it == times_used.end() ? 0 : used_it->second;
      if (!distinct || used == min_used) {
        eligible.push_back(c);
      }
    }
    std::stable_sort(eligible.begin(), eligible.end(),
                     [](const Candidate& a, const Candidate& b) { return a.score > b.score; });
    // Honour reservations: take the best unreserved candidate; if every
    // candidate is reserved, fall back to the best overall (Section 5.5).
    const Candidate* chosen = nullptr;
    if (reserved != nullptr) {
      for (const Candidate& c : eligible) {
        if (!reserved(c.address)) {
          chosen = &c;
          break;
        }
      }
    }
    if (chosen == nullptr) {
      chosen = &eligible.front();
    }
    result.binding[var.name] = Endpoint::Address(chosen->address);
    result.scores.emplace_back(var.name, chosen->score);
    times_used[chosen->address] += 1;
    return true;
  };

  // Phase 1: priority variables.
  std::vector<bool> bound(variables.size(), false);
  if (params.enable_priority_binding) {
    for (size_t i = 0; i < variables.size(); ++i) {
      if (IsPriorityVariable(variables[i])) {
        Result<bool> r = assign_value(variables[i]);
        if (!r.ok()) {
          return r.error();
        }
        bound[i] = true;
      }
    }
  }
  // Phase 2: everything else, in declaration order.
  for (size_t i = 0; i < variables.size(); ++i) {
    if (!bound[i]) {
      Result<bool> r = assign_value(variables[i]);
      if (!r.ok()) {
        return r.error();
      }
    }
  }
  return result;
}

}  // namespace cloudtalk
