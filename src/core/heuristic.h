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
// The per-resource fitness is  capacity − W × usage  with a selectable
// weight W (implicitly 2), trading raw capacity against contention.
//
// The heuristic runs in O(max(m, n·p)) for m flows, n variables and p pool
// size, and is optimal for single-variable queries and fixed-head daisy
// chains (properties covered by tests).
#ifndef CLOUDTALK_SRC_CORE_HEURISTIC_H_
#define CLOUDTALK_SRC_CORE_HEURISTIC_H_

#include <functional>
#include <string>
#include <vector>

#include "src/common/result.h"
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

// A hook consulted before committing each assignment: returns true if the
// address is currently unavailable (pseudo-reserved by a concurrent query,
// Section 5.5). Candidates are then tried in decreasing fitness order.
using ReservationFilter = std::function<bool(const std::string& address)>;

struct HeuristicResult {
  Binding binding;
  // Score of the chosen value per variable, in binding order (diagnostics).
  std::vector<std::pair<std::string, double>> scores;
};

// Binds every variable of `query` given the status snapshot. `reserved` may
// be null. Fails only if a variable has an empty candidate pool. Variables
// never share a binding unless the query says `option allow_same`; when a
// pool is smaller than the number of variables drawing from it, bindings
// wrap around (Section 5.3 reduce query: "everyone receives at least one
// reduce task").
Result<HeuristicResult> EvaluateHeuristic(const lang::CompiledQuery& query,
                                          const StatusByAddress& status,
                                          const HeuristicParams& params,
                                          const ReservationFilter& reserved = nullptr);

// Same, over an explicit variable list (used by the server after sampling
// shrinks the pools). `allow_same` mirrors `option allow_same`.
Result<HeuristicResult> EvaluateHeuristic(const std::vector<lang::VarComm>& variables,
                                          bool allow_same, const StatusByAddress& status,
                                          const HeuristicParams& params,
                                          const ReservationFilter& reserved = nullptr);

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
