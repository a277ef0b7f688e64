#include "src/core/exhaustive.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/thread_pool.h"
#include "src/lang/bound.h"

namespace cloudtalk {
namespace {

// Endpoint id in memo signatures: hosts (lang::HostOf of a slot) are >= 0,
// disk is -1, each 0.0.0.0 occurrence gets its own id below -1 (distinct
// external hosts, matching the estimator's per-occurrence "_unknownN"
// modelling).
constexpr int32_t kDiskId = -1;

// The one error both walks report when the space contains no legal binding
// — whether discovered exhaustively or proven statically by O100.
constexpr const char* kNoLegalBinding =
    "no legal binding exists (distinctness or requirements unsatisfiable?)";

// O500 never prunes a prefix whose lower bound reaches this ceiling: a bound
// that large comes from a zero-availability resource (kZeroRateTime in
// src/lang/bound.cc), i.e. a binding the estimator would *error* on rather
// than score. The unoptimised walk reaches those bindings and records the
// error, so the pruned walk must too — byte identity covers the failure
// path as well as the winner.
constexpr double kBoundPruneCeiling = 1e17;

// A flow with variables resolved to either a fixed endpoint id or a
// variable index, so a binding's signature is computed without touching the
// AST or any strings.
struct FlowSpec {
  bool src_is_var = false, dst_is_var = false;
  int32_t src = 0, dst = 0;  // Fixed id, or index into variables().
  double size = 0;
  double start = 0;
  int group = 0;
};

struct Tuple {
  int32_t src, dst;
  double size;
  double start;  // Two same-size transfers starting apart are not symmetric.
  bool operator<(const Tuple& o) const {
    if (src != o.src) return src < o.src;
    if (dst != o.dst) return dst < o.dst;
    if (size != o.size) return size < o.size;
    return start < o.start;
  }
};

// Everything a worker needs, read-only during the walk.
struct EvalContext {
  const lang::CompiledQuery* query = nullptr;
  const lang::HostStatus* status = nullptr;
  std::vector<std::vector<int32_t>> pool_slots;  // Per variable: its kept candidates.
  std::vector<int64_t> rank_weight;  // Mixed-radix weights: rank = sum c[d]*w[d].
  std::vector<FlowSpec> flow_specs;
  // Per variable, per candidate: passes its cpu/mem requirements. Empty
  // inner vector = unconstrained (skip the check).
  std::vector<std::vector<char>> feasible;
  // O200: previous member of the variable's interchangeability class, or
  // -1. Empty = no orbit constraints.
  std::vector<int32_t> orbit_prev;
  size_t orbit_strict = 0;  // 1 under distinctness: representative is strictly ascending.
  // O500: shared bound analysis (null = branch-and-bound off).
  const lang::BoundAnalysis* bound = nullptr;
  int num_groups = 0;
  bool distinct = false;
  bool memoize = false;
};

struct StripeResult {
  bool have_best = false;
  Estimate best_estimate;
  int64_t best_rank = 0;              // Odometer rank of the best binding.
  std::vector<size_t> best_choice;
  int64_t tried = 0;
  int64_t memo_hits = 0;
  int64_t orbit_skips = 0;
  int64_t bound_prunes = 0;
  SolverStats solver;  // Drained from the worker's estimator after the stripe.
  std::optional<Error> last_error;
};

// Walks the stripe of the binding space where the first variable's candidate
// index is congruent to `offset` modulo `stride` (remaining variables full
// range), scoring each legal binding with `est`. Enumeration order within a
// stripe is lexicographic, so ranks are strictly increasing and "first
// strictly better wins" reproduces the serial engine's tie-break.
StripeResult RunStripe(const EvalContext& ctx, CompletionEstimator& est, int offset, int stride) {
  const size_t n = ctx.query->variables().size();
  StripeResult out;
  est.BeginQuery(*ctx.query, *ctx.status);

  std::vector<size_t> choice(n, 0);
  choice[0] = static_cast<size_t>(offset);
  // Per depth (the variable's index): its candidate's slot, the binding the
  // estimator reads, and that slot's host.
  std::vector<int> var_slot(n, -1);
  std::vector<int32_t> var_id(n, 0);
  std::vector<char> used(ctx.distinct ? ctx.query->hosts().names.size() : 0, 0);

  // O500: the stripe's incremental lower-bound cursor, mirroring the
  // odometer's slot writes. Pruning compares against the stripe's own
  // incumbent — each stripe only ever skips bindings provably worse than
  // something it already holds, so the deterministic merge is untouched.
  std::optional<lang::BoundAnalysis::Cursor> cursor;
  if (ctx.bound != nullptr) {
    cursor.emplace(ctx.bound->MakeCursor());
  }

  std::unordered_map<std::string, Estimate> memo;
  std::vector<std::vector<Tuple>> group_tuples(ctx.num_groups);
  std::string key;

  const auto step = [&](size_t d) { choice[d] += d == 0 ? static_cast<size_t>(stride) : 1; };
  // Takes back depth d's candidate and moves on to its next one.
  const auto unassign_and_step = [&](size_t d) {
    if (cursor) {
      cursor->Unassign(static_cast<int>(d));
    }
    if (ctx.distinct) {
      used[var_id[d]] = 0;
    }
    step(d);
  };

  size_t depth = 0;
  while (true) {
    if (depth == n) {
      ++out.tried;
      int64_t rank = 0;
      for (size_t d = 0; d < n; ++d) {
        rank += static_cast<int64_t>(choice[d]) * ctx.rank_weight[d];
      }

      Estimate estimate;
      bool have = false;
      if (ctx.memoize) {
        for (auto& tuples : group_tuples) {
          tuples.clear();
        }
        for (const FlowSpec& f : ctx.flow_specs) {
          Tuple t;
          t.src = f.src_is_var ? var_id[f.src] : f.src;
          t.dst = f.dst_is_var ? var_id[f.dst] : f.dst;
          t.size = f.size;
          t.start = f.start;
          group_tuples[f.group].push_back(t);
        }
        key.clear();
        for (auto& tuples : group_tuples) {
          std::sort(tuples.begin(), tuples.end());
          for (const Tuple& t : tuples) {
            char buf[24];
            std::memcpy(buf, &t.src, 4);
            std::memcpy(buf + 4, &t.dst, 4);
            std::memcpy(buf + 8, &t.size, 8);
            std::memcpy(buf + 16, &t.start, 8);
            key.append(buf, sizeof(buf));
          }
        }
        const auto it = memo.find(key);
        if (it != memo.end()) {
          estimate = it->second;
          have = true;
          ++out.memo_hits;
        }
      }
      if (!have) {
        Result<Estimate> result = est.EstimateQuery(*ctx.query, var_slot, *ctx.status);
        if (result.ok()) {
          estimate = result.value();
          have = true;
          if (ctx.memoize) {
            memo.emplace(key, estimate);
          }
        } else {
          out.last_error = result.error();
        }
      }
      if (have &&
          (!out.have_best || estimate.makespan < out.best_estimate.makespan ||
           (estimate.makespan == out.best_estimate.makespan && rank < out.best_rank))) {
        out.have_best = true;
        out.best_estimate = estimate;
        out.best_rank = rank;
        out.best_choice = choice;
      }
      // Backtrack.
      --depth;
      unassign_and_step(depth);
      continue;
    }
    if (choice[depth] >= ctx.pool_slots[depth].size()) {
      if (depth == 0) {
        break;
      }
      choice[depth] = 0;
      --depth;
      unassign_and_step(depth);
      continue;
    }
    // O200 orbit canonicalisation: within an interchangeability class only
    // the ascending-index assignment is visited — every permutation of it
    // has the same signature (hence a byte-identical estimate) and a
    // strictly higher odometer rank, so it can never win the tie-break.
    if (!ctx.orbit_prev.empty() && ctx.orbit_prev[depth] >= 0) {
      const size_t lb = choice[ctx.orbit_prev[depth]] + ctx.orbit_strict;
      if (choice[depth] < lb) {
        out.orbit_skips +=
            static_cast<int64_t>(lb - choice[depth]) * ctx.rank_weight[depth];
        choice[depth] = lb;
        continue;  // Re-check pool bounds at the clamped position.
      }
    }
    if (!ctx.feasible[depth].empty() && ctx.feasible[depth][choice[depth]] == 0) {
      step(depth);
      continue;
    }
    const int32_t slot = ctx.pool_slots[depth][choice[depth]];
    const int32_t id = lang::HostOf(ctx.status->identity(), slot);
    if (ctx.distinct && used[id] != 0) {
      step(depth);
      continue;
    }
    var_slot[depth] = slot;
    var_id[depth] = id;
    if (ctx.distinct) {
      used[id] = 1;
    }
    if (cursor) {
      cursor->Assign(static_cast<int>(depth), id);
      // O500 branch-and-bound: every completion of this prefix finishes no
      // sooner than the cursor's sound lower bound, so a prefix whose bound
      // strictly exceeds the incumbent can neither beat nor tie the winner.
      if (out.have_best) {
        const Seconds lb = cursor->LowerBound();
        if (lb > out.best_estimate.makespan && lb < kBoundPruneCeiling) {
          out.bound_prunes += ctx.rank_weight[depth];
          unassign_and_step(depth);
          continue;
        }
      }
    }
    ++depth;
  }

  est.EndQuery();
  out.solver = est.TakeSolverStats();
  return out;
}

}  // namespace

Result<ExhaustiveResult> EvaluateExhaustive(const lang::CompiledQuery& query,
                                            const lang::HostStatus& status,
                                            CompletionEstimator& estimator,
                                            const ExhaustiveParams& params) {
  const lang::QueryHosts& hosts = query.hosts();
  const auto& variables = query.variables();
  const size_t n = variables.size();

  if (n == 0) {
    Result<Estimate> estimate = estimator.EstimateQuery(query, {}, status);
    if (!estimate.ok()) {
      return estimate.error();
    }
    ExhaustiveResult best;
    best.estimate = estimate.value();
    best.counters.evaluations = 1;
    best.counters.enumerated = 1;
    return best;
  }

  EvalContext ctx;
  ctx.query = &query;
  ctx.status = &status;
  ctx.distinct = !query.query().options.allow_same_binding;
  ctx.num_groups = static_cast<int>(query.groups().size());

  // Static optimisation plan (src/lang/opt). Symmetry-based parts (orbit
  // canonicalisation, inert-variable pinning, signature folding) rely on the
  // estimator seeing only the per-group transfer multiset, so they share the
  // memo cache's permutation-invariance gate; domain pruning and the
  // infeasibility proof mirror the engine's own legality rules and apply
  // regardless.
  const bool can_memo_estimator = estimator.EstimatesArePermutationInvariant();
  lang::PrunedSpace computed_plan;
  const lang::PrunedSpace* plan = nullptr;
  if (params.optimize) {
    if (params.plan != nullptr) {
      plan = params.plan;
    } else {
      computed_plan = lang::Optimize(query, status);
      plan = &computed_plan;
    }
    if (plan->infeasible) {
      return Error{kNoLegalBinding};
    }
  }
  const bool apply_symmetry = plan != nullptr && can_memo_estimator;

  ctx.pool_slots.resize(n);
  for (size_t i = 0; i < n; ++i) {
    const std::vector<int> candidates = hosts.CandidateSlots(static_cast<int>(i));
    if (candidates.empty()) {
      return Error{"variable '" + variables[i].name + "' has no address candidates"};
    }
    // Apply the plan: domain pruning always, pinning only under the
    // estimator gate.
    std::vector<int32_t> keep;
    if (apply_symmetry && plan->pinned[i] >= 0) {
      keep.push_back(plan->pinned[i]);
    } else if (plan != nullptr) {
      keep = plan->kept[i];
    } else {
      keep.resize(candidates.size());
      for (size_t c = 0; c < candidates.size(); ++c) {
        keep[c] = static_cast<int32_t>(c);
      }
    }
    if (keep.empty()) {
      return Error{kNoLegalBinding};
    }
    ctx.pool_slots[i].reserve(keep.size());
    for (const int32_t c : keep) {
      if (c < 0 || static_cast<size_t>(c) >= candidates.size()) {
        return Error{"optimisation plan does not match the query"};
      }
      ctx.pool_slots[i].push_back(candidates[c]);
    }
  }

  // Requirement legality (Section 7), enforced identically with and without
  // the plan. With a plan, O100 already removed infeasible candidates; the
  // unoptimised walk filters them odometer-side instead.
  ctx.feasible.resize(n);
  if (plan == nullptr) {
    for (size_t i = 0; i < n; ++i) {
      if (variables[i].cpu_required <= 0 && variables[i].mem_required <= 0) {
        continue;
      }
      ctx.feasible[i].resize(ctx.pool_slots[i].size(), 1);
      for (size_t c = 0; c < ctx.pool_slots[i].size(); ++c) {
        const StatusReport* report = status.Find(ctx.pool_slots[i][c]);
        if (report != nullptr && !lang::SatisfiesRequirements(variables[i], *report)) {
          ctx.feasible[i][c] = 0;
        }
      }
    }
  }

  // Size guard (on the pruned space when a plan is applied).
  double space = 1;
  for (const auto& pool : ctx.pool_slots) {
    space *= static_cast<double>(pool.size());
    if (space > static_cast<double>(params.max_bindings)) {
      return Error{"binding space exceeds max_bindings"};
    }
  }
  ctx.rank_weight.assign(n, 1);
  for (size_t d = n - 1; d > 0; --d) {
    ctx.rank_weight[d - 1] = ctx.rank_weight[d] * static_cast<int64_t>(ctx.pool_slots[d].size());
  }

  // O500 branch-and-bound (ISSUE 7): armed by the plan, honoured only when
  // the estimator vouches that its makespans lie inside the BoundAnalysis
  // interval at its availability fraction (the packet simulator returns a
  // negative fraction and the walk stays unpruned). The analysis is rebuilt
  // here with the estimator's *exact* fraction — the plan's own bounds may
  // have been computed with a different one for reporting.
  std::optional<lang::BoundAnalysis> bound;
  if (plan != nullptr && plan->bound_pruning) {
    const double fraction = estimator.BoundAvailabilityFraction();
    if (fraction >= 0) {
      lang::BoundOptions bound_options;
      bound_options.min_available_fraction = fraction;
      bound.emplace(lang::BoundAnalysis::Build(query, status, bound_options));
      ctx.bound = &*bound;
    }
  }

  bool can_memo = can_memo_estimator;
  std::vector<char> fold_flow(query.flows().size(), 0);
  if (apply_symmetry) {
    for (const int32_t f : plan->dead_flows) {
      if (f >= 0 && static_cast<size_t>(f) < fold_flow.size()) {
        fold_flow[f] = 1;  // O400: inert in every estimate; drop from signatures.
      }
    }
    ctx.orbit_prev = plan->orbit_prev;
    ctx.orbit_strict = ctx.distinct ? 1 : 0;
  }
  int32_t next_unknown = kDiskId - 1;
  const lang::FlowGraph& graph = query.graph();
  ctx.flow_specs.reserve(query.flows().size());
  for (size_t f = 0; f < query.flows().size(); ++f) {
    const lang::CompiledFlow& flow = query.flows()[f];
    FlowSpec fs;
    fs.size = flow.size;
    fs.start = flow.start;
    fs.group = flow.group;
    const auto fill = [&](const lang::Endpoint& e, int name, bool& is_var, int32_t& id) {
      switch (e.kind) {
        case lang::Endpoint::Kind::kAddress:
          id = lang::HostOf(status.identity(), hosts.slot_of[name]);
          break;
        case lang::Endpoint::Kind::kVariable: {
          const int v = graph.variable(name);
          if (v < 0) {
            can_memo = false;  // Unbindable; the estimator reports the error.
          }
          is_var = true;
          id = v;
          break;
        }
        case lang::Endpoint::Kind::kDisk:
          id = kDiskId;
          break;
        case lang::Endpoint::Kind::kUnknown:
        default:
          id = next_unknown--;
          break;
      }
    };
    fill(flow.src, graph.src_id(flow.index), fs.src_is_var, fs.src);
    fill(flow.dst, graph.dst_id(flow.index), fs.dst_is_var, fs.dst);
    if (fold_flow[f] == 0) {
      ctx.flow_specs.push_back(fs);
    }
  }
  ctx.memoize = params.memoize && can_memo;

  // Stripe the first variable's candidates across workers. Every worker
  // needs an independent estimator; if the estimator cannot be cloned, stay serial.
  int workers = std::min<int64_t>(ThreadPool::ResolveThreadCount(params.threads),
                                  static_cast<int64_t>(ctx.pool_slots[0].size()));
  workers = std::max(workers, 1);
  std::vector<std::unique_ptr<CompletionEstimator>> clones;
  if (workers > 1) {
    clones.reserve(workers);
    for (int w = 0; w < workers; ++w) {
      std::unique_ptr<CompletionEstimator> clone = estimator.CloneForThread();
      if (clone == nullptr) {
        workers = 1;
        clones.clear();
        break;
      }
      clones.push_back(std::move(clone));
    }
  }

  // Worker w walks first-variable indices w, w + workers, w + 2·workers, ….
  std::vector<StripeResult> results(workers);
  if (workers == 1) {
    results[0] = RunStripe(ctx, estimator, /*offset=*/0, /*stride=*/1);
  } else {
    ThreadPool::Shared().Run(workers, [&](int w) {
      results[w] = RunStripe(ctx, *clones[w], /*offset=*/w, /*stride=*/workers);
    });
  }

  // Deterministic merge: lowest makespan, ties to the lexicographically
  // first binding in odometer order — exactly what a serial walk keeps.
  ExhaustiveResult best;
  best.counters.threads_used = workers;
  if (plan != nullptr) {
    best.counters.bindings_pruned = plan->bindings_pruned;
    best.counters.components = plan->components;
  }
  bool have_best = false;
  int64_t best_rank = 0;
  std::optional<Error> last_error;
  const StripeResult* winner = nullptr;
  for (const StripeResult& r : results) {
    best.counters.enumerated += r.tried;
    best.counters.evaluations += r.tried - r.memo_hits;
    best.counters.memo_hits += r.memo_hits;
    best.counters.orbit_skips += r.orbit_skips;
    best.counters.bound_prunes += r.bound_prunes;
    best.counters.delta_rebinds += r.solver.delta_rebinds;
    best.counters.cold_rebinds += r.solver.cold_rebinds;
    best.counters.solver_recomputes += r.solver.solver_recomputes;
    best.counters.delta_component_hits += r.solver.delta_component_hits;
    best.counters.cold_component_solves += r.solver.cold_component_solves;
    if (r.last_error.has_value() && !last_error.has_value()) {
      last_error = r.last_error;
    }
    if (r.have_best &&
        (!have_best || r.best_estimate.makespan < best.estimate.makespan ||
         (r.best_estimate.makespan == best.estimate.makespan && r.best_rank < best_rank))) {
      have_best = true;
      best.estimate = r.best_estimate;
      best_rank = r.best_rank;
      winner = &r;
    }
  }
  if (!have_best) {
    if (last_error.has_value()) {
      return *last_error;
    }
    return Error{kNoLegalBinding};
  }
  for (size_t i = 0; i < n; ++i) {
    best.binding[variables[i].name] =
        lang::Endpoint::Address(*hosts.names[ctx.pool_slots[i][winner->best_choice[i]]]);
  }
  return best;
}

}  // namespace cloudtalk
