#include "src/core/server.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <unordered_set>

#include "src/common/lock_registry.h"
#include "src/common/logging.h"
#include "src/core/pipeline.h"
#include "src/lang/bound.h"
#include "src/lang/canon.h"
#include "src/lang/lint.h"
#include "src/lang/parser.h"
#include "src/obs/metrics.h"

namespace cloudtalk {

namespace {

// Rewrites the variable names a reply carries (binding keys and score
// labels) through `rename`; names outside the map pass through unchanged.
QueryReply MapReplyNames(const QueryReply& in,
                         const std::unordered_map<std::string, std::string>& rename) {
  QueryReply out = in;
  auto mapped = [&rename](const std::string& name) {
    const auto it = rename.find(name);
    return it != rename.end() ? it->second : name;
  };
  out.binding.clear();
  for (const auto& [var, endpoint] : in.binding) {
    out.binding.emplace(mapped(var), endpoint);
  }
  for (auto& [var, score] : out.scores) {
    (void)score;
    var = mapped(var);
  }
  return out;
}

std::unordered_map<std::string, std::string> ForwardMap(
    const std::vector<std::pair<std::string, std::string>>& pairs) {
  std::unordered_map<std::string, std::string> map;
  for (const auto& [from, to] : pairs) {
    map.emplace(from, to);
  }
  return map;
}

std::unordered_map<std::string, std::string> ReverseMap(
    const std::vector<std::pair<std::string, std::string>>& pairs) {
  std::unordered_map<std::string, std::string> map;
  for (const auto& [from, to] : pairs) {
    map.emplace(to, from);
  }
  return map;
}

std::vector<std::unique_ptr<StatusShard>> MakeShards(const ShardMap& map,
                                                     ProbeTransport* transport, Seconds hold) {
  std::vector<std::unique_ptr<StatusShard>> shards;
  for (int i = 0; i < map.shards(); ++i) {
    shards.push_back(std::make_unique<StatusShard>(i, transport, hold));
  }
  return shards;
}

std::vector<StatusShard*> RawShardPtrs(const std::vector<std::unique_ptr<StatusShard>>& owned) {
  std::vector<StatusShard*> raw;
  for (const auto& shard : owned) {
    raw.push_back(shard.get());
  }
  return raw;
}

}  // namespace

#if defined(CLOUDTALK_INVARIANTS) && CLOUDTALK_INVARIANTS
namespace {

LockId StatsLockId() {
  static const LockId id = LockRegistry::Instance().Register("server.stats");
  return id;
}
}  // namespace
#endif

CloudTalkServer::CloudTalkServer(ServerConfig config, const Directory* directory,
                                 ProbeTransport* transport, std::function<Seconds()> clock,
                                 CompletionEstimator* packet_estimator)
    : CloudTalkServer(ShardedConfig{std::move(config), /*shards=*/1}, directory, transport,
                      std::move(clock), packet_estimator) {}

CloudTalkServer::CloudTalkServer(ShardedConfig config, const Directory* directory,
                                 ProbeTransport* transport, std::function<Seconds()> clock,
                                 CompletionEstimator* packet_estimator)
    : config_(std::move(config.server)),
      prepare_lease_(config.prepare_lease),
      directory_(directory),
      clock_(std::move(clock)),
      packet_estimator_(packet_estimator),
      map_(config.shards),
      shards_(MakeShards(map_, transport, config_.reservation_hold)),
      router_(&map_, RawShardPtrs(shards_)),
      rng_(config_.seed),
      admission_(config_.admission_slots) {
  check::SetViolationPolicy(config_.invariant_policy);
}

Result<QueryReply> CloudTalkServer::Answer(const std::string& query_text) {
  CT_OBS_INC("M100");
  obs::TraceContext trace("answer");
  // Fast path: a spelling answered before skips the language front end
  // entirely — parse/lint/canon are pure functions of the bytes, so the
  // memoized certificate and warnings stand in for a re-run. The skeleton
  // spans are still emitted (near-zero duration) so hit traces keep the
  // guaranteed parse/lint/canon prefix.
  if (config_.answer_cache) {
    std::lock_guard<std::mutex> lock(cache_mutex_);
    const auto memo_it = frontend_memo_.find(query_text);
    if (memo_it != frontend_memo_.end()) {
      const FrontendMemo& memo = memo_it->second;
      if (CacheableEffects(memo.effects)) {
        const auto it = answer_cache_.find(memo.canonical_text);
        if (it != answer_cache_.end() && it->second.epoch == cache_epoch_) {
          // A memoized miss is not counted here: the slow path repeats the
          // lookup after re-canonicalizing and counts it exactly once.
          CT_OBS_INC("M110");
          CT_OBS_INC("M111");
          const int parse_span = trace.OpenFollowing("parse");
          trace.Attr(parse_span, "bytes", static_cast<int64_t>(query_text.size()));
          const int lint_span = trace.Transition(parse_span, "lint");
          trace.Attr(lint_span, "diagnostics", static_cast<int64_t>(memo.warnings.size()));
          const int canon_span = trace.Transition(lint_span, "canon");
          char hash_text[17];
          std::snprintf(hash_text, sizeof(hash_text), "%016llx",
                        static_cast<unsigned long long>(memo.hash));
          trace.Attr(canon_span, "hash", hash_text);
          trace.Attr(canon_span, "cache", "hit");
          trace.Close(canon_span);
          QueryReply reply = MapReplyNames(it->second.reply, ReverseMap(memo.variable_map));
          if (!memo.warnings.empty()) {
            reply.warnings = memo.warnings;
          }
          reply.trace = trace.Finish();
          if (!reply.trace.empty()) {
            CT_OBS_OBSERVE("M102", reply.trace.spans[0].duration);
          }
          return reply;
        }
      }
    }
  }
  lang::DiagnosticSink sink;
  const int parse_span = trace.OpenFollowing("parse");
  lang::Query query = lang::ParseWithDiagnostics(query_text, &sink);
  trace.Attr(parse_span, "bytes", static_cast<int64_t>(query_text.size()));
  const int lint_span = trace.Transition(parse_span, "lint");
  lang::RunLint(query, &sink);
  trace.Attr(lint_span, "diagnostics", static_cast<int64_t>(sink.diagnostics().size()));
  trace.Close(lint_span);
  if (sink.has_errors()) {
    CT_OBS_INC("M101");
    return sink.ToLegacyError();
  }

  // Canonicalize (ISSUE 8). The span is part of every reply's phase
  // skeleton: the hash identifies the query up to renaming/reordering even
  // when the answer cache is off. A cacheable repeat is answered here,
  // skipping compile/probe/search entirely; `lookup_epoch` is re-checked at
  // store time so a status refresh racing the answer can never publish a
  // stale entry.
  const int canon_span = trace.OpenFollowing("canon");
  const Result<lang::CanonicalQuery> canon = lang::Canonicalize(query);
  const char* cache_state = "off";
  bool store = false;
  uint64_t lookup_epoch = 0;
  // Statically inferred effect set (src/lang/scope): pure in the query
  // bytes, so it rides in the front-end memo and gates the answer cache.
  const lang::ScopeEffects effects = lang::AnalyzeEffects(query);
  if (canon.ok()) {
    char hash_text[17];
    std::snprintf(hash_text, sizeof(hash_text), "%016llx",
                  static_cast<unsigned long long>(canon.value().hash));
    trace.Attr(canon_span, "hash", hash_text);
    if (config_.answer_cache) {
      // Memoize the front-end result for this exact spelling (pure in the
      // query bytes, so never invalidated; the cap bounds memory on
      // adversarial workloads that never repeat a spelling).
      std::lock_guard<std::mutex> lock(cache_mutex_);
      if (frontend_memo_.size() >= kFrontendMemoCap) {
        frontend_memo_.clear();
      }
      FrontendMemo& memo = frontend_memo_[query_text];
      memo.canonical_text = canon.value().text;
      memo.hash = canon.value().hash;
      memo.variable_map = canon.value().variable_map;
      memo.warnings = sink.diagnostics();
      memo.effects = effects;
    }
    if (config_.answer_cache && CacheableEffects(effects)) {
      CT_OBS_INC("M110");
      std::lock_guard<std::mutex> lock(cache_mutex_);
      lookup_epoch = cache_epoch_;
      const auto it = answer_cache_.find(canon.value().text);
      if (it != answer_cache_.end() && it->second.epoch == cache_epoch_) {
        CT_OBS_INC("M111");
        trace.Attr(canon_span, "cache", "hit");
        trace.Close(canon_span);
        QueryReply reply =
            MapReplyNames(it->second.reply, ReverseMap(canon.value().variable_map));
        if (!sink.empty()) {
          reply.warnings = sink.diagnostics();
        }
        reply.trace = trace.Finish();
        if (!reply.trace.empty()) {
          CT_OBS_OBSERVE("M102", reply.trace.spans[0].duration);
        }
        return reply;
      }
      cache_state = "miss";
      store = true;
    }
  }
  trace.Attr(canon_span, "cache", cache_state);
  trace.Close(canon_span);

  Result<QueryReply> reply = AnswerTraced(query, trace);
  if (!reply.ok()) {
    CT_OBS_INC("M101");
    return reply;
  }
  if (store) {
    // Cache the reply in the canonical name space, stripped of the
    // per-request parts (trace, warnings), so any equivalent spelling can
    // be served from it.
    CachedAnswer entry;
    entry.epoch = lookup_epoch;
    entry.reply = MapReplyNames(reply.value(), ForwardMap(canon.value().variable_map));
    std::lock_guard<std::mutex> lock(cache_mutex_);
    if (cache_epoch_ == lookup_epoch) {
      answer_cache_[canon.value().text] = std::move(entry);
    }
  }
  if (!sink.empty()) {
    // Warning-only queries are answered, but the findings travel with the
    // reply so clients can see what looked suspect.
    reply.value().warnings = sink.diagnostics();
  }
  reply.value().trace = trace.Finish();
  if (!reply.value().trace.empty()) {
    CT_OBS_OBSERVE("M102", reply.value().trace.spans[0].duration);
  }
  return reply;
}

bool CloudTalkServer::CacheableEffects(const lang::ScopeEffects& effects) const {
  // Sampled pools draw from the server RNG: two cold answers need not agree,
  // so a cached one cannot stand in for either.
  if (effects.max_pool_size > config_.sample_threshold) {
    return false;
  }
  // Reservations are time-varying state the exhaustive path ignores but the
  // heuristic path both reads (the filter) and writes (the reserve effect).
  if (config_.reservation_hold > 0 && !effects.uses_packet_engine) {
    if (effects.reserves) {
      return false;  // A cold answer would mutate the reservation table.
    }
    const Seconds now = clock_();
    for (const auto& shard : shards_) {
      if (shard->reservations().ActiveCount(now) > 0) {
        return false;  // The binding depends on when reservations expire.
      }
    }
  }
  return true;
}

void CloudTalkServer::InvalidateAnswerCache() {
  std::lock_guard<std::mutex> lock(cache_mutex_);
  ++cache_epoch_;
  if (!answer_cache_.empty()) {
    answer_cache_.clear();
    CT_OBS_INC("M112");
  }
}

StatusShard& CloudTalkServer::OwnerOf(const std::string& address) const {
  const NodeId node = directory_->Resolve(address);
  return *shards_[node == kInvalidNode ? 0 : map_.ShardOf(node)];
}

bool CloudTalkServer::IsReservedAnywhere(const std::string& address, Seconds now) const {
  for (const auto& shard : shards_) {
    if (shard->reservations().IsReserved(address, now)) {
      return true;
    }
  }
  return false;
}

Result<QueryReply> CloudTalkServer::AnswerTraced(const lang::Query& query,
                                                 obs::TraceContext& trace) {
  const int compile_span = trace.OpenFollowing("compile");
  Result<lang::CompiledQuery> compiled = lang::CompiledQuery::Compile(query);
  trace.Close(compile_span);
  if (!compiled.ok()) {
    return compiled.error();
  }

  // Static footprint & effect analysis (ISSUE 9, src/lang/scope): which
  // hosts the answer can depend on, and whether answering reserves. Drives
  // the probe filter below and the concurrent admission gate.
  const lang::ScopeAnalysis scope = lang::AnalyzeScope(compiled.value());
  {
    const int scope_span = trace.OpenFollowing("scope");
    trace.Attr(scope_span, "footprint", static_cast<int64_t>(scope.footprint.size()));
    trace.Attr(scope_span, "excluded", static_cast<int64_t>(scope.excluded.size()));
    trace.Attr(scope_span, "effects", lang::EffectsName(scope.effects));
    trace.Close(scope_span);
  }

  // The routing decision: the shards this query fans out to, and a slot in
  // the concurrent admission gate (src/core/admission.h) held for the rest
  // of the evaluation. Queries with disjoint reservation footprints proceed
  // in parallel; conflicting ones queue here, so the span's duration is the
  // admission wait. With reservations disabled every pair commutes, so the
  // gate is bypassed entirely.
  const int route_span = trace.OpenFollowing("route");
  trace.Attr(route_span, "shards", static_cast<int64_t>(num_shards()));
  trace.Attr(route_span, "slots", static_cast<int64_t>(admission_.slots()));
  const uint64_t admission_ticket =
      config_.reservation_hold > 0 ? admission_.Admit(scope) : 0;
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
  StatusByAddress status;
  std::vector<lang::VarComm> variables = compiled.value().variables();
  const lang::ScopeAnalysis* probe_scope = config_.scope_probe_pruning ? &scope : nullptr;
  {
    // Hierarchical aggregation: the gather stage scatter-gathers through the
    // ShardRouter, which probes each owning shard separately and rolls the
    // reports up. One aggregate.shard event per contacted shard.
    const int aggregate_span = trace.OpenFollowing("aggregate");
    if (query.options.use_dynamic_load) {
      status = GatherStatusOver(config_, *directory_, router_, rng_, rng_mutex_, compiled.value(),
                                probe_scope, &variables, &reply.probe_stats, trace);
      for (const ShardRouter::Batch& batch : ShardRouter::LastBatches()) {
        trace.Event("aggregate.shard", {{"shard", std::to_string(batch.shard)},
                                        {"fanout", std::to_string(batch.fanout)},
                                        {"replies", std::to_string(batch.replies)}});
      }
      trace.Attr(aggregate_span, "batches",
                 static_cast<int64_t>(ShardRouter::LastBatches().size()));
      std::lock_guard<std::mutex> lock(stats_mutex_);
      CT_LOCK_TRACE(StatsLockId());
      total_stats_.Accumulate(reply.probe_stats);
    } else {
      status = SynthesizeStaticStatus(*directory_, variables, probe_scope, trace);
      trace.Attr(aggregate_span, "batches", static_cast<int64_t>(0));
      trace.Attr(aggregate_span, "mode", "static");
    }
    trace.Close(aggregate_span);
  }

  // Admission bound check (ISSUE 7): sound completion-time intervals over
  // the snapshot just gathered (src/lang/bound.h). When the evaluation's
  // estimator vouches for the bound model — a non-negative availability
  // fraction — a chain group whose lower bound already exceeds its deadline
  // proves the query unanswerable for *every* binding, so it is rejected
  // here, before any search runs. The span (with the query-level interval)
  // is part of every reply's phase skeleton either way.
  CompletionEstimator* bound_model = query.options.use_packet_simulator
                                         ? packet_estimator_
                                         : static_cast<CompletionEstimator*>(&flow_estimator_);
  const double bound_fraction =
      bound_model != nullptr ? bound_model->BoundAvailabilityFraction() : -1;
  {
    Error bound_error;
    if (!CheckAdmissionBound(config_, compiled.value(), status, bound_fraction, trace,
                             &bound_error)) {
      return bound_error;
    }
  }

  if (query.options.use_packet_simulator) {
    if (packet_estimator_ == nullptr) {
      return Error{"query requests packet-level evaluation, but no packet estimator is wired"};
    }
    // Search fan-out: engine slice s walks first-variable candidates
    // ≡ s (mod shards); the merge keeps the lowest (makespan, winner_rank),
    // which is the unsliced winner byte for byte.
    Result<ExhaustiveResult> best =
        RunExhaustiveSliced(config_, query, compiled.value(), status, *packet_estimator_,
                            bound_fraction, num_shards(), trace);
    if (!best.ok()) {
      return best.error();
    }
    reply.binding = best.value().binding;
    reply.estimate = best.value().estimate;
    reply.used_exhaustive = true;
    reply.counters = best.value().counters;
    // Exhaustive answers skip the reservation tables, but the phase skeleton
    // stays complete so every trace carries a reserve span.
    obs::TraceContext::Scoped reserve_span(&trace, "reserve");
    trace.Attr(reserve_span.id(), "reserved", static_cast<int64_t>(0));
    return reply;
  }

  const Seconds now = clock_();
  ReservationFilter filter = nullptr;
  if (config_.reservation_hold > 0) {
    filter = [this, now](const std::string& address) { return IsReserved(address, now); };
  }
  const int bind_span = trace.OpenFollowing("bind");
  trace.Attr(bind_span, "mode", "heuristic");
  Result<HeuristicResult> heuristic = EvaluateHeuristic(
      variables, query.options.allow_same_binding, status, config_.heuristic, filter);
  if (!heuristic.ok()) {
    trace.Close(bind_span);
    return heuristic.error();
  }
  reply.binding = std::move(heuristic.value().binding);
  reply.scores = std::move(heuristic.value().scores);
  trace.Attr(bind_span, "bound", static_cast<int64_t>(reply.binding.size()));
  const int reserve_span = trace.Transition(bind_span, "reserve");
  int64_t reserved = 0;
  if (query.options.reserve && config_.reservation_hold > 0) {
    // Two-phase reserve. Phase 1 leases every bound endpoint from its owning
    // shard; Prepare never blocks, so ordering is free of deadlock. Phase 2
    // commits them all with ONE shared timestamp. Any shard that fails to
    // answer aborts the whole set: the binding is still returned
    // (reservations are best-effort, paper Section 5.5) but no host stays
    // half-held.
    const Seconds reserve_now = clock_();
    std::vector<std::pair<StatusShard*, uint64_t>> leases;
    bool aborted = false;
    for (const auto& [var, endpoint] : reply.binding) {
      (void)var;
      StatusShard& owner = OwnerOf(endpoint.name);
      CT_OBS_INC("M117");
      const uint64_t lease = owner.Prepare(endpoint.name, reserve_now, prepare_lease_);
      if (lease == 0) {
        aborted = true;
        break;
      }
      leases.emplace_back(&owner, lease);
    }
    for (const auto& [shard, lease] : leases) {
      if (aborted) {
        shard->reservations().Abort(lease);
      } else if (shard->reservations().Commit(lease, reserve_now)) {
        ++reserved;
      }
    }
    if (aborted) {
      CT_OBS_INC("M118");
      trace.Attr(reserve_span, "aborted", static_cast<int64_t>(1));
    }
    CT_OBS_ADD("M104", reserved);
  }
  trace.Attr(reserve_span, "reserved", reserved);
  trace.Close(reserve_span);
  return reply;
}

Result<QuoteReply> CloudTalkServer::Quote(const std::string& query_text) {
  Result<lang::Query> query = lang::Parse(query_text);
  if (!query.ok()) {
    return query.error();
  }
  Result<lang::CompiledQuery> compiled = lang::CompiledQuery::Compile(query.value());
  if (!compiled.ok()) {
    return compiled.error();
  }
  CT_OBS_INC("M107");
  ProbeStats stats;
  std::vector<lang::VarComm> variables = compiled.value().variables();
  obs::TraceContext quote_trace("quote");
  const lang::ScopeAnalysis scope = lang::AnalyzeScope(compiled.value());
  StatusByAddress status = GatherStatusOver(
      config_, *directory_, router_, rng_, rng_mutex_, compiled.value(),
      config_.scope_probe_pruning ? &scope : nullptr, &variables, &stats, quote_trace);
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    CT_LOCK_TRACE(StatsLockId());
    total_stats_.Accumulate(stats);
  }
  // Quoting never reserves: the client is asking about a workload it may
  // not run. Existing reservations are still avoided.
  const Seconds now = clock_();
  ReservationFilter filter = [this, now](const std::string& address) {
    return IsReserved(address, now);
  };
  Result<HeuristicResult> heuristic =
      EvaluateHeuristic(variables, query.value().options.allow_same_binding, status,
                        config_.heuristic, filter);
  if (!heuristic.ok()) {
    return heuristic.error();
  }
  Result<Estimate> estimate =
      flow_estimator_.EstimateQuery(compiled.value(), heuristic.value().binding, status);
  if (!estimate.ok()) {
    return estimate.error();
  }
  QuoteReply quote;
  quote.binding = std::move(heuristic.value().binding);
  quote.estimate = estimate.value();
  std::unordered_set<std::string> endpoints;
  for (const lang::CompiledFlow& flow : compiled.value().flows()) {
    quote.bytes_moved += flow.size;
    for (const lang::Endpoint* e : {&flow.src, &flow.dst}) {
      auto resolved = ResolveEndpoint(*e, quote.binding);
      if (resolved.has_value() && resolved->kind == lang::Endpoint::Kind::kAddress) {
        endpoints.insert(resolved->name);
      }
    }
  }
  quote.endpoints = static_cast<int>(endpoints.size());
  for (const lang::CompiledGroup& group : compiled.value().groups()) {
    if (std::isfinite(group.deadline)) {
      quote.has_deadline = true;
      quote.deadline = quote.has_deadline && quote.deadline > 0
                           ? std::min(quote.deadline, group.deadline)
                           : group.deadline;
    }
  }
  if (quote.has_deadline) {
    quote.deadline_met = quote.estimate.makespan <= quote.deadline;
  }
  quote.price = pricing_.per_gb_moved * (quote.bytes_moved / (1024.0 * 1024.0 * 1024.0)) +
                pricing_.per_server_second * quote.endpoints * quote.estimate.makespan;
  return quote;
}

ProbeStats CloudTalkServer::total_probe_stats() const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  CT_LOCK_TRACE(StatsLockId());
  return total_stats_;
}

}  // namespace cloudtalk
