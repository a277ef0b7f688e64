#include "src/core/server.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "src/check/check.h"
#include "src/common/lock_registry.h"
#include "src/common/logging.h"
#include "src/lang/bound.h"
#include "src/lang/facts.h"
#include "src/lang/lint.h"
#include "src/lang/parser.h"
#include "src/obs/metrics.h"

namespace cloudtalk {

#if defined(CLOUDTALK_INVARIANTS) && CLOUDTALK_INVARIANTS
namespace {

LockId StatsLockId() {
  static const LockId id = LockRegistry::Instance().Register("server.stats");
  return id;
}

LockId RngLockId() {
  static const LockId id = LockRegistry::Instance().Register("server.rng");
  return id;
}

LockId FrontEndLockId() {
  static const LockId id = LockRegistry::Instance().Register("server.front_ends");
  return id;
}

}  // namespace
#endif

namespace {

// Section 4.3 sampling sizes a sample for a bimodal load distribution: the
// share of a pool assumed idle, and the confidence of finding enough idle
// hosts in the sample (RequiredSamples).
constexpr double kIdleFractionHint = 0.3;
constexpr double kSampleConfidence = 0.99;
// How long a scatter-gather waits for status replies before treating the
// silent hosts as missing.
constexpr Seconds kProbeTimeout = 10 * kMillisecond;
// The front-end cache's doorkeeper: fingerprints of spellings sighted once,
// in 4-way buckets. 64k of them (512 KiB) remember several budgets' worth
// of short spellings, and keep any 4 + 1 spellings of a short cycle from
// sharing a bucket, where they would evict one another forever.
constexpr size_t kSightedBuckets = size_t{1} << 14;
constexpr size_t kSightedWays = 4;

std::vector<std::unique_ptr<StatusShard>> MakeShards(const ShardMap& map,
                                                     ProbeTransport* transport,
                                                     const Directory* directory, Seconds hold) {
  std::vector<std::unique_ptr<StatusShard>> shards;
  for (int i = 0; i < map.shards(); ++i) {
    shards.push_back(std::make_unique<StatusShard>(transport, directory, hold));
  }
  return shards;
}

// Opens the parse span every reply starts with.
int OpenParseSpan(const std::string& query_text, obs::TraceContext& trace) {
  const int parse_span = trace.Open("parse");
  trace.Attr(parse_span, "bytes", static_cast<int64_t>(query_text.size()));
  return parse_span;
}

// One shard's part of a status gather: how many targets it was asked to
// probe and how many replied. AnswerTraced renders each as an
// `aggregate.shard` trace event.
struct ShardBatch {
  int shard = 0;
  int fanout = 0;
  int replies = 0;
};

// What a status gather reads of a query that depends only on the query
// bytes and the server's config, settled once per front end and shared by
// its answers. It is indexed by the compiled query's host slots, not hosts:
// the directory may re-point a name after the plan is built, so every
// answer resolves them afresh (AnswerHosts).
struct ProbePlan {
  // Per slot: false when probe pruning is on and the footprint analysis
  // proves no evaluation engine reads the name's status (M113).
  std::vector<bool> footprint;
  // Some pool exceeds the sampling threshold: the answer samples.
  bool samples = false;
};

ProbePlan MakeProbePlan(const ServerConfig& config, const lang::QueryFacts& facts) {
  const lang::QueryHosts& hosts = facts.compiled().value().hosts();
  ProbePlan plan;
  plan.footprint.reserve(hosts.ids.size());
  for (const int id : hosts.ids) {
    plan.footprint.push_back(!config.scope_probe_pruning ||
                             facts.scope().host_by_id[id] == lang::HostScope::kFootprint);
  }
  for (const std::vector<int>& pool : hosts.pools) {
    plan.samples |= static_cast<int>(pool.size()) > config.sample_threshold;
  }
  return plan;
}

// Sampling (Section 4.3): draws a sample of each pool larger than the
// threshold, pools in first-mention order, each sized to cover the d
// variables drawing from it. Returns how many pools it sampled.
int SamplePools(const ServerConfig& config, Rng& rng, std::mutex& rng_mutex,
                const lang::QueryHosts& hosts, AnswerHosts* answer) {
  answer->samples.resize(hosts.pools.size());
  int pools_sampled = 0;
  std::lock_guard<std::mutex> rng_lock(rng_mutex);
  CT_LOCK_TRACE(RngLockId());
  for (size_t p = 0; p < hosts.pools.size(); ++p) {
    const std::vector<int>& pool = hosts.pools[p];
    const int pool_size = static_cast<int>(pool.size());
    if (pool_size <= config.sample_threshold) {
      continue;
    }
    const int d = static_cast<int>(
        std::count(hosts.pool_of.begin(), hosts.pool_of.end(), static_cast<int>(p)));
    const int n = config.sample_override > 0
                      ? config.sample_override
                      : RequiredSamples(d, kIdleFractionHint, kSampleConfidence);
    std::vector<int> picks = rng.SampleWithoutReplacement(pool_size, std::min(n, pool_size));
    for (int& pick : picks) {
      pick = pool[pick];
    }
    answer->samples[p] = std::move(picks);
    ++pools_sampled;
    CT_OBS_INC("M106");
  }
  return pools_sampled;
}

// The answer pipeline's stages, each written so its bytes do not depend on
// the shard count — the D505 differential contract:
//
//   - GatherStatusOver: sampling and the scatter-gather over the
//     footprint. Only a plan that samples takes the RNG lock, drawing into
//     `answer->samples` over the FULL pools (one stream, independent of
//     footprint pruning). One walk over the pools' candidates, then the
//     literal endpoints, lists one probe target per host. The targets are
//     split by owning shard and each non-empty slice is probed through its
//     shard, in shard order (one shard probes them all in place); every
//     report is read from its owner's outcome and filed once, for its host.
//     One ShardBatch per probed shard goes to `*batches`. The simulated
//     transport draws no RNG for lossless probes, so per-shard batches
//     consume the same randomness as one flat batch.
//   - SynthesizeStaticStatus: the `option static` no-probe path.
//   - CheckAdmissionBound: the pre-search rejection, error string and all.
//     Builds the bound analysis, over the answer's hosts, only when it can
//     reject: the query has a finite deadline and the estimator vouches for
//     the bound model (a non-negative availability fraction). Returns false
//     and fills *error on rejection.
//   - RunExhaustive: the exhaustive/packet search over the answer's hosts.
//     It computes the optimisation plan, then runs the engine once over the
//     merged status (parallel internally per `config.eval_threads`), at any
//     shard count.
lang::HostStatus GatherStatusOver(const ServerConfig& config, const Directory& directory,
                                  const ShardMap& map,
                                  const std::vector<std::unique_ptr<StatusShard>>& shards,
                                  Rng& rng, std::mutex& rng_mutex, const lang::QueryHosts& hosts,
                                  const ProbePlan& plan, AnswerHosts* answer, ProbeStats* stats,
                                  std::vector<ShardBatch>* batches, obs::TraceContext& trace) {
  const int sample_span = trace.Open("sample");
  const int pools_sampled =
      plan.samples ? SamplePools(config, rng, rng_mutex, hosts, answer) : 0;
  trace.Attr(sample_span, "pools", static_cast<int64_t>(hosts.pools.size()));
  trace.Attr(sample_span, "sampled", static_cast<int64_t>(pools_sampled));
  // The probe span opens as sampling closes (one shared clock reading) and
  // covers the walk and the scatter-gather itself.
  trace.Close(sample_span);
  const int probe_span = trace.Open("probe");

  // The walk reaches each slot once. A slot outside the footprint is
  // skipped; of the others naming a host, the first to reach it names its
  // probe target: a host named by an alias and its IP is probed once.
  std::vector<int> named;  // Per target: the slot naming it.
  std::vector<NodeId> targets;
  named.reserve(hosts.names.size());
  targets.reserve(hosts.names.size());
  int64_t skipped = 0;
  const auto visit = [&](int slot) {
    if (slot < 0 || answer->slots[slot].seen) {
      return;
    }
    HostSlot& host = answer->slots[slot];
    host.seen = true;
    if (!plan.footprint[slot]) {
      ++skipped;
    } else if (host.node != kInvalidNode &&
               !std::exchange(answer->slots[answer->identity[slot]].targeted, true)) {
      named.push_back(slot);
      targets.push_back(host.node);
    }
  };
  for (size_t pool = 0; pool < hosts.pools.size(); ++pool) {
    for (const int slot : answer->Candidates(hosts, static_cast<int>(pool))) {
      visit(slot);
    }
  }
  for (const int slot : hosts.endpoints) {
    visit(slot);
  }

  // Split the targets by owning shard, keeping their order in each slice;
  // a one-shard server probes them all in place. I410: ShardOf is a total
  // function onto [0, shards), so every target lands in exactly one slice.
  const int num_shards = static_cast<int>(shards.size());
  const auto owner_of = [&map, num_shards](NodeId node) {
    const int owner = map.ShardOf(node);
    CT_INVARIANT(owner >= 0 && owner < num_shards, "I410",
                 "probe target routed outside the shard map")
        .With("node", node)
        .With("owner", owner);
    return owner >= 0 && owner < num_shards ? owner : 0;
  };
  std::vector<ProbeOutcome> outcomes(shards.size());
  const auto probe = [&](int s, const std::vector<NodeId>& slice) {
    outcomes[s] = shards[s]->Probe(slice, kProbeTimeout);
    const ProbeOutcome& outcome = outcomes[s];
    CT_OBS_INC("M115");
    CT_OBS_OBSERVE("M116", static_cast<double>(slice.size()));
    stats->Accumulate(outcome.stats);
    batches->push_back(
        ShardBatch{s, static_cast<int>(slice.size()), outcome.stats.replies_received});
    // I412: a shard reports only hosts of its own slice.
    if (check::kInvariantsEnabled) {
      const std::unordered_set<NodeId> own(slice.begin(), slice.end());
      for (const auto& [node, report] : outcome.reports) {
        (void)report;
        CT_INVARIANT(own.count(node) > 0, "I412", "a shard reported a host outside its slice")
            .With("shard", s)
            .With("node", node);
      }
    }
  };
  if (num_shards == 1) {
    if (!targets.empty()) {
      probe(0, targets);
    }
  } else {
    std::vector<std::vector<NodeId>> slices(shards.size());
    for (const NodeId node : targets) {
      slices[owner_of(node)].push_back(node);
    }
    for (int s = 0; s < num_shards; ++s) {
      if (!slices[s].empty()) {
        probe(s, slices[s]);
      }
    }
  }
  CT_OBS_OBSERVE("M103", static_cast<double>(targets.size()));

  lang::HostStatus status(hosts, answer->identity, targets.size());
  int missing = 0;
  for (size_t t = 0; t < targets.size(); ++t) {
    const std::string& address = *hosts.names[named[t]];
    const NodeId node = targets[t];
    const std::unordered_map<NodeId, StatusReport>& reports = outcomes[owner_of(node)].reports;
    const auto it = reports.find(node);
    const bool replied = it != reports.end();
    // One child event per contacted host, in deterministic target order. The
    // scatter-gather itself is batched, so the children record fan-out and
    // per-host outcome rather than individual wall times. A replied host
    // carries just its address; a missing reply is flagged with replied=0.
    if (trace.enabled()) {
      if (replied) {
        trace.Event("probe.host", {{"host", address}});
      } else {
        trace.Event("probe.host", {{"host", address}, {"replied", "0"}});
      }
    }
    if (replied) {
      status.Set(named[t], it->second);
    } else if (config.assume_loaded_on_missing) {
      ++missing;
      // "If nothing is received from a status server, we assume that a
      // particular address is under heavy I/O load" (Section 4).
      status.Set(named[t], StatusReport::AssumeLoaded(node, directory.CapsOf(node)));
    } else {
      ++missing;
      status.Set(named[t], StatusReport::Idle(node, directory.CapsOf(node)));
    }
  }
  if (skipped > 0) {
    CT_OBS_ADD("M113", skipped);
  }
  trace.Attr(probe_span, "fanout", static_cast<int64_t>(targets.size()));
  trace.Attr(probe_span, "replies",
             static_cast<int64_t>(static_cast<int>(targets.size()) - missing));
  trace.Attr(probe_span, "missing", static_cast<int64_t>(missing));
  trace.Attr(probe_span, "skipped", skipped);
  trace.Close(probe_span);
  return status;
}

lang::HostStatus SynthesizeStaticStatus(const Directory& directory,
                                        const lang::QueryHosts& hosts, const ProbePlan& plan,
                                        const AnswerHosts& answer, obs::TraceContext& trace) {
  // Static evaluation: every host a footprint slot names, pool entry or
  // literal flow endpoint, idle at its nominal capacities. The sample and
  // probe spans still appear (every reply carries the full phase skeleton),
  // recording that both phases were no-ops. The footprint filter applies
  // here too: an inert variable's hosts get no synthetic idle status,
  // matching what the engines can read. Literal flow endpoints are always
  // in the footprint (I408), so every skip is a pool host.
  lang::HostStatus status(hosts, answer.identity);
  const int sample_span = trace.Open("sample");
  trace.Attr(sample_span, "mode", "static");
  trace.Close(sample_span);
  const int probe_span = trace.Open("probe");
  int64_t skipped = 0;
  for (int slot = 0; slot < static_cast<int>(hosts.names.size()); ++slot) {
    const NodeId node = answer.slots[slot].node;
    if (!plan.footprint[slot]) {
      ++skipped;
    } else if (node != kInvalidNode) {
      status.Set(slot, StatusReport::Idle(node, directory.CapsOf(node)));
    }
  }
  if (skipped > 0) {
    CT_OBS_ADD("M113", skipped);
  }
  trace.Attr(probe_span, "fanout", static_cast<int64_t>(0));
  trace.Attr(probe_span, "mode", "static");
  trace.Attr(probe_span, "skipped", skipped);
  trace.Close(probe_span);
  return status;
}

bool CheckAdmissionBound(const lang::CompiledQuery& compiled, const lang::HostStatus& status,
                         Seconds deadline, double bound_fraction, obs::TraceContext& trace,
                         Error* error) {
  const int bound_span = trace.Open("bound");
  if (!std::isfinite(deadline) || bound_fraction < 0) {
    trace.Attr(bound_span, "skipped", std::isfinite(deadline) ? "no-model" : "no-deadline");
    trace.Close(bound_span);
    return true;
  }
  lang::BoundOptions bound_options;
  bound_options.min_available_fraction = bound_fraction;
  const lang::BoundAnalysis bounds = lang::BoundAnalysis::Build(compiled, status, bound_options);
  CT_OBS_INC("M108");
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", bounds.query_bounds().lb);
  trace.Attr(bound_span, "lb", buf);
  if (std::isfinite(bounds.query_bounds().ub)) {
    std::snprintf(buf, sizeof(buf), "%.6g", bounds.query_bounds().ub);
    trace.Attr(bound_span, "ub", buf);
  }
  for (const lang::GroupBound& gb : bounds.group_bounds()) {
    if (!gb.provably_infeasible) {
      continue;
    }
    const lang::CompiledGroup& group = compiled.groups()[gb.group];
    const std::string flow_name = group.flow_indices.empty()
                                      ? std::string("?")
                                      : compiled.flows()[group.flow_indices.front()].name;
    char lb_text[32], deadline_text[32];
    std::snprintf(lb_text, sizeof(lb_text), "%.6g", gb.interval.lb);
    std::snprintf(deadline_text, sizeof(deadline_text), "%.6g", gb.deadline);
    trace.Attr(bound_span, "infeasible_group", static_cast<int64_t>(gb.group));
    trace.Close(bound_span);
    CT_OBS_INC("M109");
    *error = Error{"no binding can meet the deadline: chain group of flow '" + flow_name +
                   "' needs at least " + lb_text + "s but must finish within " + deadline_text +
                   "s"};
    return false;
  }
  trace.Close(bound_span);
  return true;
}

Result<ExhaustiveResult> RunExhaustive(const ServerConfig& config, const lang::Query& query,
                                       const lang::CompiledQuery& compiled,
                                       const lang::HostStatus& status,
                                       CompletionEstimator& estimator, double bound_fraction,
                                       obs::TraceContext& trace) {
  CT_OBS_INC("M105");
  ExhaustiveParams params;
  params.threads =
      query.options.eval_threads > 0 ? query.options.eval_threads : config.eval_threads;
  params.optimize = query.options.optimize >= 0;
  // Compute the static plan here (instead of inside the engine) so the
  // bind span can report per-pass wall time and pruning attribution
  // (PassStat). O500 is armed only when the estimator offers a bound model
  // (a non-negative availability fraction); the engine could not use it
  // otherwise.
  lang::PrunedSpace plan;
  if (params.optimize) {
    lang::OptimizeParams opt_params;
    if (bound_fraction >= 0) {
      opt_params.bound_fraction = bound_fraction;
    } else {
      opt_params.passes &= ~lang::kOptBoundPruning;
    }
    plan = lang::Optimize(compiled, status, opt_params);
    params.plan = &plan;
  }
  const int bind_span = trace.Open("bind");
  trace.Attr(bind_span, "mode", "exhaustive");
  Result<ExhaustiveResult> best = EvaluateExhaustive(compiled, status, estimator, params);
  if (!best.ok()) {
    trace.Close(bind_span);
    return best.error();
  }
  const SearchCounters& c = best.value().counters;
  trace.Attr(bind_span, "evaluations", c.evaluations);
  trace.Attr(bind_span, "memo_hits", c.memo_hits);
  trace.Attr(bind_span, "enumerated", c.enumerated);
  trace.Attr(bind_span, "pruned", c.bindings_pruned);
  trace.Attr(bind_span, "orbit_skips", c.orbit_skips);
  trace.Attr(bind_span, "bound_prunes", c.bound_prunes);
  trace.Attr(bind_span, "threads", static_cast<int64_t>(c.threads_used));
  trace.Attr(bind_span, "delta_rebinds", c.delta_rebinds);
  trace.Attr(bind_span, "cold_rebinds", c.cold_rebinds);
  trace.Attr(bind_span, "solver_recomputes", c.solver_recomputes);
  // Per-pass attribution (exhaustive-only attrs: wall times vary run to
  // run, and the stable-trace snapshots only pin the heuristic path).
  if (params.plan != nullptr) {
    for (const lang::PassStat& ps : params.plan->pass_stats) {
      trace.Attr(bind_span, std::string("opt.") + ps.code + ".seconds", ps.wall_seconds);
      trace.Attr(bind_span, std::string("opt.") + ps.code + ".pruned", ps.pruned_bindings);
    }
  }
  trace.Close(bind_span);
  return best;
}

}  // namespace

CloudTalkServer::CloudTalkServer(ServerConfig config, const Directory* directory,
                                 ProbeTransport* transport, std::function<Seconds()> clock,
                                 CompletionEstimator* packet_estimator)
    : CloudTalkServer(ShardedConfig{std::move(config), /*shards=*/1}, directory, transport,
                      std::move(clock), packet_estimator) {}

CloudTalkServer::CloudTalkServer(ShardedConfig config, const Directory* directory,
                                 ProbeTransport* transport, std::function<Seconds()> clock,
                                 CompletionEstimator* packet_estimator)
    : config_(std::move(config.server)),
      directory_(directory),
      clock_(std::move(clock)),
      packet_estimator_(packet_estimator),
      map_(config.shards),
      shards_(MakeShards(map_, transport, directory, config_.reservation_hold)),
      rng_(config_.seed),
      admission_(config_.admission_slots) {}

// Everything Answer derives from the query bytes alone (and, for the probe
// plan, the server's config). BuildFrontEnd settles it before anyone else
// sees it; afterwards it is only read, so the answers of one spelling share
// it across threads (lang::QueryFacts states the contract).
struct CloudTalkServer::FrontEnd {
  explicit FrontEnd(lang::Query parsed) : query(std::move(parsed)) {}
  // `facts`, and the compiled query in it, point into `query`.
  FrontEnd(const FrontEnd&) = delete;
  FrontEnd& operator=(const FrontEnd&) = delete;

  lang::Query query;
  lang::QueryFacts facts{query};
  // Parse and lint findings. With an error among them the query is
  // rejected with `error`; otherwise they are the reply's warnings.
  std::vector<lang::Diagnostic> diagnostics;
  std::optional<Error> error;
  // The status gather's plan; empty unless the query is answered. Its
  // names are the host slots of the compiled query in `facts`.
  ProbePlan plan;
};

std::shared_ptr<const CloudTalkServer::FrontEnd> CloudTalkServer::FrontEndCache::Find(
    const std::string& text, uint64_t fingerprint, bool* admit) {
  std::lock_guard<std::mutex> lock(mutex_);
  CT_LOCK_TRACE(FrontEndLockId());
  const auto it = index_.find(Key{fingerprint, text});
  if (it != index_.end()) {
    return it->second->entry;
  }
  *admit = Sighted(fingerprint);
  return nullptr;
}

void CloudTalkServer::FrontEndCache::Insert(const std::string& text, uint64_t fingerprint,
                                            std::shared_ptr<const FrontEnd> entry) {
  if (text.size() > kFrontEndBudget) {
    return;
  }
  // Built and, when not kept, destroyed outside the lock, like the
  // evicted nodes.
  std::list<Node> fresh;
  fresh.push_back(Node{text, fingerprint, std::move(entry)});
  std::list<Node> evicted;
  std::lock_guard<std::mutex> lock(mutex_);
  CT_LOCK_TRACE(FrontEndLockId());
  if (index_.count(Key{fingerprint, text}) > 0) {
    return;  // A concurrent answer of the same spelling kept its entry first.
  }
  while (bytes_ + text.size() > kFrontEndBudget) {
    const Node& oldest = order_.front();
    index_.erase(Key{oldest.fingerprint, oldest.text});
    bytes_ -= oldest.text.size();
    evicted.splice(evicted.end(), order_, order_.begin());
  }
  order_.splice(order_.end(), fresh);
  index_.emplace(Key{fingerprint, order_.back().text}, std::prev(order_.end()));
  bytes_ += text.size();
}

bool CloudTalkServer::FrontEndCache::Sighted(uint64_t fingerprint) {
  if (sighted_.empty()) {
    sighted_.assign(kSightedBuckets * kSightedWays, 0);
  }
  const uint64_t tag = fingerprint != 0 ? fingerprint : 1;
  uint64_t* bucket = &sighted_[(fingerprint % kSightedBuckets) * kSightedWays];
  uint64_t* const end = bucket + kSightedWays;
  uint64_t* const way = std::find(bucket, end, tag);
  if (way != end) {
    // Admitted: free the way, keeping the bucket newest first.
    std::copy(way + 1, end, way);
    end[-1] = 0;
    return true;
  }
  std::copy_backward(bucket, end - 1, end);
  bucket[0] = tag;
  return false;
}

std::shared_ptr<const CloudTalkServer::FrontEnd> CloudTalkServer::BuildFrontEnd(
    const std::string& query_text, bool quote, int parse_span, obs::TraceContext& trace) const {
  lang::DiagnosticSink sink;
  lang::Query query = lang::ParseWithDiagnostics(query_text, &sink);
  if (quote) {
    // Quoting never reserves: the client is asking about a workload it may
    // not run. Like any `option noreserve` query it still avoids existing
    // reservations, and it is admitted as a non-reserving query. The
    // option is cleared before the facts exist: their scope reads it, and
    // lint may compute the scope. No lint rule reads it.
    query.options.reserve = false;
  }
  trace.Close(parse_span);
  auto front = std::make_shared<FrontEnd>(std::move(query));
  const int lint_span = trace.Open("lint");
  lang::RunLint(front->facts, &sink);
  // Settle the facts the answer pipeline reads, so that from here on their
  // accessors only read. Lint's rules have normally computed them already.
  if (front->facts.compiled().ok()) {
    front->facts.scope();
  }
  front->facts.deadline();
  if (front->facts.compiled().ok() && !sink.has_errors()) {
    front->plan = MakeProbePlan(config_, front->facts);
  }
  trace.Attr(lint_span, "diagnostics", static_cast<int64_t>(sink.diagnostics().size()));
  trace.Close(lint_span);
  if (sink.has_errors()) {
    front->error = sink.ToLegacyError();
  }
  front->diagnostics = sink.diagnostics();
  return front;
}

std::shared_ptr<const CloudTalkServer::FrontEnd> CloudTalkServer::FrontEndOf(
    const std::string& query_text, obs::TraceContext& trace) {
  const int parse_span = OpenParseSpan(query_text, trace);
  const uint64_t fingerprint = std::hash<std::string>{}(query_text);
  bool admit = false;
  std::shared_ptr<const FrontEnd> front = front_ends_.Find(query_text, fingerprint, &admit);
  if (front == nullptr) {
    front = BuildFrontEnd(query_text, /*quote=*/false, parse_span, trace);
    if (admit) {
      front_ends_.Insert(query_text, fingerprint, front);
    }
    return front;
  }
  // A hit records the phases it skipped, so every reply keeps the full
  // phase skeleton.
  CT_OBS_INC("M119");
  trace.Attr(parse_span, "cache", "hit");
  trace.Close(parse_span);
  const int lint_span = trace.Open("lint");
  trace.Attr(lint_span, "diagnostics", static_cast<int64_t>(front->diagnostics.size()));
  trace.Close(lint_span);
  return front;
}

Result<QueryReply> CloudTalkServer::Answer(const std::string& query_text) {
  CT_OBS_INC("M100");
  obs::TraceContext trace("answer");
  const std::shared_ptr<const FrontEnd> front = FrontEndOf(query_text, trace);
  Result<QueryReply> reply = front->error.has_value()
                                 ? Result<QueryReply>(*front->error)
                                 : AnswerTraced(*front, trace, /*quote=*/nullptr);
  if (!reply.ok()) {
    CT_OBS_INC("M101");
    return reply;
  }
  // Warning-only queries are answered, but the findings travel with the
  // reply so clients can see what looked suspect.
  reply.value().warnings = front->diagnostics;
  reply.value().trace = trace.Finish();
  if (!reply.value().trace.empty()) {
    CT_OBS_OBSERVE("M102", reply.value().trace.spans[0].duration);
  }
  return reply;
}

bool CloudTalkServer::IsReservedAnywhere(const std::string& address, Seconds now) const {
  return std::any_of(shards_.begin(), shards_.end(), [&](const auto& shard) {
    return shard->reservations().IsReserved(address, now);
  });
}

Result<QueryReply> CloudTalkServer::AnswerTraced(const FrontEnd& front, obs::TraceContext& trace,
                                                 QuoteReply* quote) {
  const lang::QueryFacts& facts = front.facts;
  const lang::Query& query = facts.query();
  const int compile_span = trace.Open("compile");
  const Result<lang::CompiledQuery>& compiled = facts.compiled();
  trace.Close(compile_span);
  if (!compiled.ok()) {
    return compiled.error();
  }

  // Static footprint & effect analysis (src/lang/scope): which hosts the
  // answer can depend on, and whether answering reserves. Drives the probe
  // filter below and the concurrent admission gate.
  const int scope_span = trace.Open("scope");
  const lang::ScopeAnalysis& scope = facts.scope();
  trace.Attr(scope_span, "footprint", static_cast<int64_t>(scope.footprint.size()));
  trace.Attr(scope_span, "excluded", static_cast<int64_t>(scope.excluded.size()));
  trace.Attr(scope_span, "effects", lang::EffectsName(scope.effects));
  trace.Close(scope_span);

  // The routing decision: every name resolved to its host, once for the
  // whole answer, and a slot in the concurrent admission gate
  // (src/core/admission.h) held for the rest of the evaluation. Queries
  // whose pools name disjoint hosts proceed in parallel; conflicting ones
  // queue here. With reservations disabled every pair commutes, so the gate
  // is bypassed entirely.
  const int route_span = trace.Open("route");
  trace.Attr(route_span, "shards", static_cast<int64_t>(num_shards()));
  trace.Attr(route_span, "slots", static_cast<int64_t>(admission_.slots()));
  const lang::QueryHosts& query_hosts = compiled.value().hosts();
  AnswerHosts hosts(query_hosts, directory_);
  const uint64_t admission_ticket = config_.reservation_hold > 0
                                        ? admission_.Admit(scope.effects.reserves, hosts.pool_hosts)
                                        : 0;
  trace.Attr(route_span, "admitted", static_cast<int64_t>(admission_ticket != 0 ? 1 : 0));
  trace.Close(route_span);
  struct AdmissionGuard {
    AdmissionGate* gate;
    uint64_t ticket;
    ~AdmissionGuard() {
      if (ticket != 0) {
        gate->Release(ticket);
      }
    }
  } admission_guard{&admission_, admission_ticket};

  QueryReply reply;
  lang::HostStatus status;
  {
    // Hierarchical aggregation: the gather stage probes each owning shard's
    // slice separately. One aggregate.shard event per contacted shard.
    const int aggregate_span = trace.Open("aggregate");
    if (query.options.use_dynamic_load) {
      std::vector<ShardBatch> batches;
      status = GatherStatusOver(config_, *directory_, map_, shards_, rng_, rng_mutex_, query_hosts,
                                front.plan, &hosts, &reply.probe_stats, &batches, trace);
      if (trace.enabled()) {
        for (const ShardBatch& batch : batches) {
          trace.Event("aggregate.shard", {{"shard", std::to_string(batch.shard)},
                                          {"fanout", std::to_string(batch.fanout)},
                                          {"replies", std::to_string(batch.replies)}});
        }
      }
      trace.Attr(aggregate_span, "batches", static_cast<int64_t>(batches.size()));
      std::lock_guard<std::mutex> lock(stats_mutex_);
      CT_LOCK_TRACE(StatsLockId());
      total_stats_.Accumulate(reply.probe_stats);
    } else {
      status = SynthesizeStaticStatus(*directory_, query_hosts, front.plan, hosts, trace);
      trace.Attr(aggregate_span, "batches", static_cast<int64_t>(0));
      trace.Attr(aggregate_span, "mode", "static");
    }
    trace.Close(aggregate_span);
  }

  // Admission bound check: sound completion-time intervals over the
  // snapshot just gathered (src/lang/bound.h). A chain group whose lower
  // bound already exceeds its deadline proves the query unanswerable for
  // *every* binding, so it is rejected here, before any search runs. Only a
  // query with a finite `end` can be rejected, and only when the
  // evaluation's estimator vouches for the bound model; otherwise nothing is
  // built, and the span, part of every reply's phase skeleton, records why.
  const Seconds deadline = facts.deadline();
  CompletionEstimator* bound_model = query.options.use_packet_simulator
                                         ? packet_estimator_
                                         : static_cast<CompletionEstimator*>(&flow_estimator_);
  const double bound_fraction =
      bound_model != nullptr ? bound_model->BoundAvailabilityFraction() : -1;
  {
    Error bound_error;
    if (!CheckAdmissionBound(compiled.value(), status, deadline, bound_fraction, trace,
                             &bound_error)) {
      return bound_error;
    }
  }

  if (query.options.use_packet_simulator) {
    if (packet_estimator_ == nullptr) {
      return Error{"query requests packet-level evaluation, but no packet estimator is wired"};
    }
    Result<ExhaustiveResult> best = RunExhaustive(config_, query, compiled.value(), status,
                                                  *packet_estimator_, bound_fraction, trace);
    if (!best.ok()) {
      return best.error();
    }
    reply.binding = best.value().binding;
    reply.estimate = best.value().estimate;
    reply.used_exhaustive = true;
    reply.counters = best.value().counters;
  } else {
    const int bind_span = trace.Open("bind");
    trace.Attr(bind_span, "mode", "heuristic");
    if (config_.reservation_hold > 0) {
      // Each candidate's held bit, one snapshot per shard owning a pool host.
      const Seconds now = clock_();
      for (int s = 0; s < num_shards(); ++s) {
        const auto owned = [this, s](NodeId node) { return map_.ShardOf(node) == s; };
        if (std::none_of(hosts.pool_hosts.begin(), hosts.pool_hosts.end(), owned)) {
          continue;
        }
        shards_[s]->reservations().Snapshot(now, [&](const auto& held) {
          for (size_t pool = 0; pool < query_hosts.pools.size(); ++pool) {
            for (const int slot : hosts.Candidates(query_hosts, static_cast<int>(pool))) {
              if (slot >= 0 && hosts.slots[slot].node != kInvalidNode &&
                  owned(hosts.slots[slot].node)) {
                hosts.slots[slot].held = held(hosts.slots[slot].node);
              }
            }
          }
        });
      }
    }
    Result<HeuristicResult> heuristic =
        EvaluateHeuristic(compiled.value(), &hosts, status, config_.heuristic);
    if (!heuristic.ok()) {
      trace.Close(bind_span);
      return heuristic.error();
    }
    reply.binding = std::move(heuristic.value().binding);
    reply.scores = std::move(heuristic.value().scores);
    trace.Attr(bind_span, "bound", static_cast<int64_t>(reply.binding.size()));
    trace.Close(bind_span);
  }

  // Only a heuristic answer without `option noreserve` reserves (the scope's
  // effect set), but every trace carries a reserve span.
  const int reserve_span = trace.Open("reserve");
  int64_t reserved = 0;
  if (scope.effects.reserves && config_.reservation_hold > 0) {
    // All or nothing: every bound host (`used` at its identity slot) is held
    // on its owning shard, all with ONE timestamp, or, when an owner is not
    // answering, none is. The binding is returned either way (reservations
    // are best-effort, paper Section 5.5), but no host stays half-held; a
    // name that resolved to no host is held nowhere. While the holds are
    // recorded, the admission gate keeps out every query whose pool hosts
    // they could touch.
    const Seconds reserve_now = clock_();
    const auto owner_of = [this](const HostSlot& host) -> StatusShard* {
      return host.used == 0 || host.node == kInvalidNode ? nullptr
                                                         : shards_[map_.ShardOf(host.node)].get();
    };
    if (std::none_of(hosts.slots.begin(), hosts.slots.end(), [&](const HostSlot& host) {
          return owner_of(host) != nullptr && owner_of(host)->unresponsive();
        })) {
      for (const HostSlot& host : hosts.slots) {
        if (StatusShard* owner = owner_of(host)) {
          reserved += owner->reservations().Hold(host.node, reserve_now) ? host.used : 0;
        }
      }
    } else {
      CT_OBS_INC("M118");
      trace.Attr(reserve_span, "aborted", static_cast<int64_t>(1));
    }
    CT_OBS_ADD("M104", reserved);
  }
  trace.Attr(reserve_span, "reserved", reserved);
  trace.Close(reserve_span);

  if (quote != nullptr) {
    // Price the binding over the compiled query, the answer's hosts and the
    // status snapshot it came from. The exhaustive search already estimated
    // its winner; a heuristic binding gets a flow-level estimate through the
    // prepared path, from an estimator of its own (flow_estimator_ is shared
    // by every thread).
    quote->binding = reply.binding;
    quote->estimate = reply.estimate;
    const Result<std::vector<int>> slots = SlotsOf(compiled.value(), quote->binding);
    if (!slots.ok()) {
      return slots.error();
    }
    if (!reply.used_exhaustive) {
      const std::unique_ptr<CompletionEstimator> estimator = flow_estimator_.CloneForThread();
      estimator->BeginQuery(compiled.value(), status);
      Result<Estimate> estimate = estimator->EstimateQuery(compiled.value(), slots.value(), status);
      estimator->EndQuery();
      if (!estimate.ok()) {
        return estimate.error();
      }
      quote->estimate = estimate.value();
    }
    // Endpoints count hosts, not spellings: every bound or literal name is
    // a slot of the answer's hosts, and an alias and its address share one
    // identity slot (a name the directory does not know is its own).
    const lang::FlowGraph& graph = compiled.value().graph();
    std::vector<char> counted(hosts.slots.size(), 0);  // By identity slot.
    for (const lang::CompiledFlow& flow : compiled.value().flows()) {
      quote->bytes_moved += flow.size;
      for (const auto& [e, id] : {std::pair{&flow.src, graph.src_id(flow.index)},
                                  std::pair{&flow.dst, graph.dst_id(flow.index)}}) {
        int slot = -1;  // Disk and 0.0.0.0 endpoints are no host.
        if (e->kind == lang::Endpoint::Kind::kVariable) {
          slot = slots.value()[graph.variable(id)];
        } else if (e->kind == lang::Endpoint::Kind::kAddress) {
          slot = query_hosts.slot_of[id];
        }
        quote->endpoints += slot >= 0 && !std::exchange(counted[hosts.identity[slot]], 1);
      }
    }
    if (std::isfinite(deadline)) {
      quote->has_deadline = true;
      quote->deadline = deadline;
      quote->deadline_met = quote->estimate.makespan <= deadline;
    }
    quote->price = pricing_.per_gb_moved * (quote->bytes_moved / (1024.0 * 1024.0 * 1024.0)) +
                   pricing_.per_server_second * quote->endpoints * quote->estimate.makespan;
  }
  return reply;
}

Result<QuoteReply> CloudTalkServer::Quote(const std::string& query_text) {
  CT_OBS_INC("M107");
  obs::TraceContext trace("quote");
  // Built afresh, never cached: the cleared `option reserve` makes its
  // facts differ from Answer's for the same bytes.
  const std::shared_ptr<const FrontEnd> front =
      BuildFrontEnd(query_text, /*quote=*/true, OpenParseSpan(query_text, trace), trace);
  if (front->error.has_value()) {
    return *front->error;
  }
  QuoteReply quote;
  const Result<QueryReply> reply = AnswerTraced(*front, trace, &quote);
  if (!reply.ok()) {
    return reply.error();
  }
  return quote;
}

ProbeStats CloudTalkServer::total_probe_stats() const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  CT_LOCK_TRACE(StatsLockId());
  return total_stats_;
}

}  // namespace cloudtalk
