// The scalable query-evaluation heuristic (paper Section 4.2, Listing 1).
//
// For each variable, every candidate value gets a score equal to the *least
// available* resource the variable's flows would use on that candidate
// (min of network-receive, network-transmit, disk-read and disk-write
// fitness). Variables that communicate with exactly one endpoint which is
// itself in their value pool are bound first ("priority" variables — the
// Z <- a example), because binding them locally removes their network cost
// entirely.
//
// Candidates are hosts, not spellings (AnswerHosts): an alias and its
// address are one host to the priority rule, distinct bindings and holds.
//
// The per-resource fitness is  capacity − W × usage  with a selectable
// weight W (implicitly 2), trading raw capacity against contention.
//
// The heuristic runs in O(max(m, n·p)) for m flows, n variables and p pool
// size, and is optimal for single-variable queries and fixed-head daisy
// chains (properties covered by tests).
#ifndef CLOUDTALK_SRC_CORE_HEURISTIC_H_
#define CLOUDTALK_SRC_CORE_HEURISTIC_H_

#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/core/directory.h"
#include "src/core/estimator.h"
#include "src/lang/analysis.h"

namespace cloudtalk {

// How a candidate's per-resource fitness is computed from (capacity, usage).
enum class FitnessModel {
  // Predicted share of a new flow: max(cap - use, cap / (1 + W*use/cap)).
  // Saturation-aware: a saturated fast resource still beats a saturated
  // slow one (the elastic competitors would yield a fair share). This is
  // the repository default — the paper's linear form misorders saturated
  // resources of different capacities (see DESIGN.md, reproduction notes).
  kFairShare,
  // The paper's literal formula: cap - W * use ("the difference between
  // maximum capacity and usage", weight W "implicitly 2").
  kLinear,
};

struct HeuristicParams {
  double weight = 2.0;  // W in evalRx/evalTx/evalDisk*.
  FitnessModel fitness = FitnessModel::kFairShare;
  // Ablation toggle for the priority-binding rule (DESIGN.md #3).
  bool enable_priority_binding = true;
};

// One answer's view of a slot's host.
struct HostSlot {
  NodeId node = kInvalidNode;  // kInvalidNode: the directory does not know the name.
  bool held = false;           // Pseudo-reserved by an earlier answer (Section 5.5).
  int used = 0;                // At the identity slot: variables bound to the host.
  // Status gather scratch: the walk reached the slot; at the identity slot,
  // the host is a probe target.
  bool seen = false;
  bool targeted = false;
};

// One answer's hosts: every slot of its QueryHosts resolved once, and the
// candidates of each pool (its sample, when sampling drew one).
struct AnswerHosts {
  // Each slot resolved through `directory`; without one, by spelling: each
  // slot is its own host. Nothing is held.
  explicit AnswerHosts(const lang::QueryHosts& hosts, const Directory* directory = nullptr);

  const std::vector<int>& Candidates(const lang::QueryHosts& hosts, int pool) const {
    return samples.empty() || samples[pool].empty() ? hosts.pools[pool] : samples[pool];
  }

  std::vector<HostSlot> slots;
  // Per slot, its identity slot: the first slot naming the same host, or the
  // slot itself. The answer's lang::HostStatus views it (lang::HostOf).
  std::vector<int> identity;
  std::vector<std::vector<int>> samples;  // Per pool; empty when not sampled.
  std::vector<NodeId> pool_hosts;  // The pool slots' hosts, sorted and distinct.
};

struct HeuristicResult {
  Binding binding;
  // Score of the chosen value per variable, in binding order (diagnostics).
  std::vector<std::pair<std::string, double>> scores;
};

// Binds every variable of `query` given the status snapshot, over the
// answer's hosts (counting the bindings in their `used`), passing over held
// candidates while an unheld one is left. `status` numbers hosts as
// `answer` does. Fails only if a variable has no
// address candidate. Variables never share a host unless the query says
// `option allow_same`; when a pool is smaller than the number of variables
// drawing from it, bindings wrap around (Section 5.3 reduce query:
// "everyone receives at least one reduce task").
Result<HeuristicResult> EvaluateHeuristic(const lang::CompiledQuery& query, AnswerHosts* answer,
                                          const lang::HostStatus& status,
                                          const HeuristicParams& params);

// Same, each slot its own host, with nothing held (tests and benches).
Result<HeuristicResult> EvaluateHeuristic(const lang::CompiledQuery& query,
                                          const lang::HostStatus& status,
                                          const HeuristicParams& params);

// The individual fitness functions, exposed for tests/benches.
double EvalFitness(Bps capacity, Bps usage, double weight, FitnessModel model);
double EvalRx(const StatusReport& report, double weight,
              FitnessModel model = FitnessModel::kFairShare);
double EvalTx(const StatusReport& report, double weight,
              FitnessModel model = FitnessModel::kFairShare);
double EvalDiskRead(const StatusReport& report, double weight,
                    FitnessModel model = FitnessModel::kFairShare);
double EvalDiskWrite(const StatusReport& report, double weight,
                     FitnessModel model = FitnessModel::kFairShare);

inline constexpr double kMaxScore = 1e18;

}  // namespace cloudtalk

#endif  // CLOUDTALK_SRC_CORE_HEURISTIC_H_
