// CloudTalkServer: the client-facing service of Figure 2.
//
// Answering a query (Section 4):
//   1. Parse the query text and lint it, then compile it and analyse its
//      footprint & effects (src/lang/scope.h). Lint and the later steps
//      read one lang::QueryFacts per query, so the query is compiled and
//      scoped once, and lint's idle-world bound is built only when a rule
//      can fire on it. An answerable query also gets its probe plan: each
//      distinct address spelling and each distinct pool once (QueryHosts).
//   2. Resolve every spelling to its host once (AnswerHosts); from here on
//      two names of one host are one host. Admit the answer on its pool
//      hosts (src/core/admission.h).
//   3. Sample each pool over the sampling threshold down to the Section 4.3
//      size (RequiredSamples), then scatter-gather status over the
//      ProbeTransport, once per host, into one report per host
//      (lang::HostStatus); silent hosts are assumed fully loaded.
//   4. When the query carries a finite `end`, reject it if the status just
//      gathered proves no binding can meet it (src/lang/bound.h).
//   5. Bind variables with the Listing 1 heuristic (or exhaustively /
//      packet-level when the query says so), passing over held hosts.
//   6. Hold the bound hosts for the hold time (pseudo-reservations).
// A price quote (Section 7) runs the same steps with step 6 suppressed,
// then prices the binding. What step 1 derives is pure in the query bytes
// and the server's config, so a spelling seen before takes it, probe plan
// included, from a bounded cache. Everything that reads the directory, the
// RNG, status or reservations runs on every answer: sampling, name
// resolution (an alias may have moved), probing, bound, bind and reserve.
//
// Host-side state lives in status/placement shards (src/core/shard.h): one
// shard by default, N when built from a ShardedConfig. Steps 3, 5 and 6 run
// through them — probes per owning shard, one held-bit snapshot per owning
// shard, holds on every owning shard or on none — while an exhaustive
// search runs once over the merged status. The reply is byte-identical at
// every shard count (D505).
//
// The server is thread-safe: concurrent queries synchronize on the
// reservation tables per assignment, matching the paper's description.
#ifndef CLOUDTALK_SRC_CORE_SERVER_H_
#define CLOUDTALK_SRC_CORE_SERVER_H_

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/common/adaptive_mutex.h"
#include "src/common/result.h"
#include "src/common/rng.h"
#include "src/obs/trace.h"
#include "src/core/admission.h"
#include "src/core/directory.h"
#include "src/core/estimator.h"
#include "src/core/exhaustive.h"
#include "src/core/heuristic.h"
#include "src/core/shard.h"
#include "src/lang/analysis.h"
#include "src/lang/scope.h"
#include "src/status/sampling.h"
#include "src/status/transport.h"

namespace cloudtalk {

namespace lang {
class QueryFacts;
}  // namespace lang

struct ServerConfig {
  HeuristicParams heuristic;
  Seconds reservation_hold = 300 * kMillisecond;  // 0 disables (ablation).
  // Sampling (Section 4.3): pools larger than `sample_threshold` are
  // sampled down to RequiredSamples at server.cc's idle-fraction hint and
  // confidence, unless `sample_override` (> 0) pins the sample size.
  int sample_threshold = 100;
  int sample_override = 0;
  // Ablation (DESIGN.md #5): when false, silent hosts are treated as idle
  // instead of loaded.
  bool assume_loaded_on_missing = true;
  uint64_t seed = 1;
  // Worker shards for exhaustive/packet-level evaluation (ISSUE 1):
  // 0 = hardware concurrency, 1 = serial. A query's `option threads N`
  // overrides this per query.
  int eval_threads = 0;
  // Scope-based probe pruning (ISSUE 9): skip probing hosts the static
  // footprint analysis (src/lang/scope) proves no evaluation engine can
  // read. Sound — the D504 differential contract fuzzes byte-identity
  // against full probing — and on by default; off reverts to probing every
  // sampled pool entry and literal endpoint.
  bool scope_probe_pruning = true;
  // Concurrent admission gate (src/core/admission.h): up to this many
  // queries evaluate concurrently while their pool hosts are disjoint;
  // queries sharing a pool host (one of them reserving) serialize. Only
  // engaged when reservation_hold > 0 — with reservations disabled every
  // pair of queries commutes and the gate would be pure overhead.
  int admission_slots = 2;
};

// A sharded deployment: the per-query configuration plus the shard layout.
struct ShardedConfig {
  ServerConfig server;
  int shards = 4;
};

struct QueryReply {
  Binding binding;
  ProbeStats probe_stats;
  // Diagnostics from the heuristic (score per bound variable).
  std::vector<std::pair<std::string, double>> scores;
  // Filled only for exhaustive / packet-level evaluation.
  Estimate estimate;
  bool used_exhaustive = false;
  // Search accounting (exhaustive path only): evaluations, memo hits,
  // statically pruned bindings, orbit skips, components, shards.
  SearchCounters counters;
  // Lint findings (never errors — those reject the query). A client seeing
  // e.g. W050 contradictory-rate-chain here got an answer, but probably not
  // the one it meant to ask for.
  std::vector<lang::Diagnostic> warnings;
  // Query-lifecycle spans: parse, lint, compile, scope, route, aggregate
  // (wrapping sample and probe, with one child per contacted host and one
  // per shard batch), bound, bind, reserve — with wall times and per-phase
  // attributes. Empty when observability is runtime-disabled
  // (obs::SetRuntimeEnabled). Render with obs::FormatTrace or
  // obs::TraceToJson; `tools/ctstat` does both.
  obs::Trace trace;
};

// Pricing knobs for Quote() (Section 7: "Clients could also use CloudTalk
// queries to describe a particular workload, and then request a price quota
// from the provider"). Deliberately simple: data moved plus busy time.
struct PricingModel {
  double per_gb_moved = 0.01;          // Currency units per GiB transferred.
  double per_server_second = 0.0001;   // Per endpoint-second of occupancy.
};

struct QuoteReply {
  Binding binding;            // The placement the quote is priced for.
  Estimate estimate;          // Predicted completion.
  Bytes bytes_moved = 0;      // Total data the query describes.
  int endpoints = 0;          // Distinct endpoints involved.
  double price = 0;           // Under the server's PricingModel.
  // Deadline check: the tightest literal `end` attribute in the query, and
  // whether the predicted completion makes it. has_deadline is false when
  // the query carries no finite `end`. A deadline that lint (E080) or the
  // admission bound check refutes gets no quote, only Answer's error.
  bool has_deadline = false;
  Seconds deadline = 0;
  bool deadline_met = true;
};

class CloudTalkServer {
 public:
  // `directory` and `transport` must outlive the server; every shard probes
  // through the one `transport`. `clock` supplies "now" for reservations
  // (simulated or wall time). `packet_estimator` may be null; queries with
  // `option packet` then fail. A ServerConfig runs the server as one shard.
  CloudTalkServer(ServerConfig config, const Directory* directory, ProbeTransport* transport,
                  std::function<Seconds()> clock,
                  CompletionEstimator* packet_estimator = nullptr);
  CloudTalkServer(ShardedConfig config, const Directory* directory, ProbeTransport* transport,
                  std::function<Seconds()> clock,
                  CompletionEstimator* packet_estimator = nullptr);

  // Parses, lints, and answers. Queries with errors (syntax, semantic, or
  // error-severity lint findings such as E030 size cycles) are rejected
  // with the first diagnostic's position and rule code; warning-only
  // queries are answered and the warnings returned in QueryReply::warnings.
  //
  // What parsing and linting derive is pure in the query bytes, so the
  // server keeps it for spellings it has seen at least twice: a bounded
  // cache keyed on the exact bytes (at most kFrontEndBudget of them,
  // oldest evicted first) hands a repeated spelling its parsed query,
  // settled facts, lint verdict and probe plan (M119 counts these hits;
  // the reply's parse span says cache=hit). Sampling, name resolution,
  // status, bound, bind and reserve run on every answer, so a hit changes
  // no reply.
  Result<QueryReply> Answer(const std::string& query_text);

  // The most spelling bytes the front-end cache holds.
  static constexpr size_t kFrontEndBudget = size_t{1} << 20;

  // Prices the described workload (Section 7). The query runs Answer's
  // pipeline as if it said `option noreserve`; a query Answer rejects gets
  // Answer's error. The binding is priced with the exhaustive search's own
  // estimate, or with a flow-level estimate of a heuristic binding.
  Result<QuoteReply> Quote(const std::string& query_text);

  void set_pricing(const PricingModel& pricing) { pricing_ = pricing; }
  const PricingModel& pricing() const { return pricing_; }

  // Accumulated probe traffic (Section 5.5 overhead accounting).
  ProbeStats total_probe_stats() const;

  const ServerConfig& config() const { return config_; }
  int num_shards() const { return map_.shards(); }
  const ShardMap& shard_map() const { return map_; }
  StatusShard& shard(int index) { return *shards_[index]; }
  // Shard 0's table: all reservation state of a one-shard server.
  ReservationTable& reservations() { return shards_[0]->reservations(); }

  // True when any shard holds a reservation on the host `address` resolves
  // to; a name the directory does not know is never held.
  bool IsReservedAnywhere(const std::string& address, Seconds now) const;

 private:
  // Everything Answer derives from the query bytes and the server's config:
  // the parsed query, its settled facts, lint's verdict and the status
  // gather's probe plan. Defined in server.cc.
  struct FrontEnd;

  // The bounded cache of FrontEnds behind Answer. Keyed on the exact query
  // bytes: a std::hash fingerprint, confirmed by comparing the bytes. A
  // spelling is admitted on its second sighting only (the doorkeeper of
  // TinyLFU): a miss records the fingerprint in a fixed table of 4-way
  // buckets, allocated on the first miss, and Find says to admit when the
  // fingerprint is already there. Entries hold at most kFrontEndBudget
  // spelling bytes in all; the oldest goes first. One lock guards it all;
  // entries are built and destroyed outside it. Every answer takes it, a
  // hit for about 100 ns, so it is an AdaptiveMutex: a thread that finds it
  // taken spins briefly rather than sleeping in the kernel.
  class FrontEndCache {
   public:
    // The entry for `text`, or null. On a miss, sets *admit when the
    // spelling was sighted before; the caller then Inserts what it builds.
    std::shared_ptr<const FrontEnd> Find(const std::string& text, uint64_t fingerprint,
                                         bool* admit);
    // Keeps `entry` for `text`, evicting the oldest entries to stay within
    // kFrontEndBudget. A spelling longer than the budget is not kept.
    void Insert(const std::string& text, uint64_t fingerprint,
                std::shared_ptr<const FrontEnd> entry);

   private:
    struct Key {
      uint64_t fingerprint;
      std::string_view text;
      bool operator==(const Key& other) const {
        return fingerprint == other.fingerprint && text == other.text;
      }
    };
    struct KeyHash {
      size_t operator()(const Key& key) const { return static_cast<size_t>(key.fingerprint); }
    };
    struct Node {
      std::string text;
      uint64_t fingerprint;
      std::shared_ptr<const FrontEnd> entry;
    };

    // The doorkeeper: true, taking the fingerprint off the table, when it
    // was on it; otherwise records it, dropping its bucket's oldest.
    bool Sighted(uint64_t fingerprint);

    AdaptiveMutex mutex_;
    std::list<Node> order_;  // Oldest first; keys point into the nodes.
    std::unordered_map<Key, std::list<Node>::iterator, KeyHash> index_;
    size_t bytes_ = 0;
    std::vector<uint64_t> sighted_;  // 4-way buckets; 0 marks a free way.
  };

  // Answer's front end: `query_text`'s cached FrontEnd, or a fresh one,
  // kept when the spelling was sighted before. Records the parse and lint
  // spans either way.
  std::shared_ptr<const FrontEnd> FrontEndOf(const std::string& query_text,
                                             obs::TraceContext& trace);

  // Parses `query_text` inside the open `parse_span` and closes it, then
  // lints in a `lint` span, settles the facts and, for a query it does not
  // reject, builds the probe plan. `quote` clears `option reserve` before
  // any fact exists.
  std::shared_ptr<const FrontEnd> BuildFrontEnd(const std::string& query_text, bool quote,
                                                int parse_span, obs::TraceContext& trace) const;

  // The evaluation pipeline behind Answer and Quote: compile, scope, route,
  // gather status, bound, bind, reserve — recording one span per phase in
  // `trace`. The compiled query, its scope, its deadline and its probe plan
  // come from `front`, which BuildFrontEnd has already settled. A non-null
  // `quote` is priced from the binding and its status snapshot.
  Result<QueryReply> AnswerTraced(const FrontEnd& front, obs::TraceContext& trace,
                                  QuoteReply* quote);

  ServerConfig config_;
  const Directory* directory_;
  std::function<Seconds()> clock_;
  CompletionEstimator* packet_estimator_;
  FlowLevelEstimator flow_estimator_;
  PricingModel pricing_;
  ShardMap map_;
  std::vector<std::unique_ptr<StatusShard>> shards_;
  // What concurrent answers write, each lock with what it guards, starts a
  // cache line of its own, so taking a lock does not evict the members
  // above, which every answer reads (map_ and shards_ in every probe and
  // reserve). Unaligned, which of them share a line shifts with the size of
  // any member above.
  alignas(64) mutable AdaptiveMutex stats_mutex_;
  ProbeStats total_stats_;
  alignas(64) AdaptiveMutex rng_mutex_;
  Rng rng_;

  // Concurrent admission gate (src/core/admission.h): AnswerTraced holds a
  // slot for the whole evaluation when reservations are enabled.
  alignas(64) AdmissionGate admission_;

  alignas(64) FrontEndCache front_ends_;
};

// The former name of a server built from a ShardedConfig, kept for callers
// that still spell it (ctbench).
using ShardedServer = CloudTalkServer;

}  // namespace cloudtalk

#endif  // CLOUDTALK_SRC_CORE_SERVER_H_
