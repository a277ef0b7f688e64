// Static footprint & effect analysis for CloudTalk queries (ISSUE 9).
//
// AnalyzeScope abstractly interprets a compiled query and computes, with no
// status information at all, three things the server and the tools key on:
//
//   * the **host footprint** — the set of addresses whose status can
//     influence the answer. A host is in the footprint when it is a binding
//     candidate of an *active* variable (one that appears as a flow
//     endpoint, touches disk, or carries a cpu/mem requirement) or a
//     literal flow endpoint. Hosts mentioned only in pools of inert
//     variables are provably outside every footprint: no evaluation engine
//     ever looks their status up, so the server can skip probing them
//     (M113 scope_probe_skips) and ctlint flags them (W100).
//   * the **status-field read set** per footprint host — which of
//     cpu / net-in / net-out / disk the evaluation can read for it. Pool
//     candidates inherit the fields their variable's communication pattern
//     touches (the heuristic's score_candidate reads exactly those);
//     literal endpoints read net-out as a source and net-in as a sink.
//   * the **effect set** — whether answering reserves endpoints, samples
//     fresh status, or is pure. The admission gate and the reserve step
//     key on it. The admission gate intersects the hosts every pool (inert
//     ones included) resolves to, per answer (src/core/admission.h).
//
// Soundness of the footprint (the claim `ctcheck --diff-scope` fuzzes as
// invariant D504) rests on how each status consumer treats the excluded
// hosts:
//
//   * heuristic (src/core/heuristic.cc): score_candidate only consults the
//     status of the candidate being scored, and only when the
//     variable has network peers, disk access, or scalar requirements. An
//     inert variable's candidates are all scored kMaxScore without any
//     lookup, so its binding (pool order + distinct-bindings bookkeeping)
//     is status-free.
//   * bound analysis (src/lang/bound.cc): reads a host for every slot of
//     the query's one host table (QueryHosts), but the availability of a
//     host reachable only through an inert variable's pool is never
//     consumed — inert variables feed no chain-group member, so neither the
//     per-member cap/floor rules nor the cross-group serialisation rule
//     touch it.
//   * estimators (flow-level and packet): read status only for hosts that
//     resolve from a flow endpoint — a bound variable's host (a candidate
//     of an active variable) or a literal endpoint. Both are in the
//     footprint.
//   * optimizer (src/lang/opt.cc): O100 consults SatisfiesRequirements for
//     candidates of variables with requirements; such variables are active.
//
// Exclusion is per spelling, but status is per host (HostStatus): a host
// some footprint slot names is probed, and every slot naming it reads its
// report, an excluded spelling too (an inert pool's `host6` beside a flow's
// `10.0.0.6`).
//
// Note the footprint is deliberately *not* refined with O100 domain
// pruning: that pass reads probed usage, so folding it in would make the
// footprint depend on the very probes it is meant to avoid. The static
// analysis here is sound before the first probe is sent.
#ifndef CLOUDTALK_SRC_LANG_SCOPE_H_
#define CLOUDTALK_SRC_LANG_SCOPE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/lang/analysis.h"
#include "src/lang/ast.h"

namespace cloudtalk {
namespace lang {

// What answering the query does to server state, inferred statically from
// the AST (no compilation needed).
struct ScopeEffects {
  // Answering mutates the reservation table. `option noreserve` clears it;
  // packet-level evaluation never reserves regardless of the option.
  bool reserves = false;
  // Answering probes fresh status (`option dynamic`, the default). Static
  // queries evaluate against nominal idle capacities instead.
  bool samples = false;
  // `option packet`: the exhaustive engine answers, which ignores the
  // reservation table entirely.
  bool uses_packet_engine = false;
  // No reservation effect: the answer is a function of (query, status
  // snapshot) alone, except for sampling randomness on oversized pools
  // (max_pool_size) and reservations held by *other* queries.
  bool pure = false;
  // Largest declared pool; pools above the server's sample threshold draw
  // from its RNG, so their answers are not reproducible.
  int max_pool_size = 0;
};

// Status fields the evaluation can read for one footprint host.
enum ScopeField : uint8_t {
  kScopeFieldCpu = 1 << 0,     // cpu/mem requirement checks (Section 7)
  kScopeFieldNetIn = 1 << 1,   // NIC rx capacity/usage
  kScopeFieldNetOut = 1 << 2,  // NIC tx capacity/usage
  kScopeFieldDisk = 1 << 3,    // disk read/write capacity/usage
};

struct ScopeHost {
  std::string address;
  uint8_t fields = 0;      // ScopeField bits.
  bool candidate = false;  // Binding candidate of an active variable.
  bool endpoint = false;   // Literal flow endpoint.
};

// Which of ScopeAnalysis's lists holds a name.
enum class HostScope : uint8_t { kNone, kFootprint, kExcluded };

struct ScopeAnalysis {
  ScopeEffects effects;

  // The footprint, sorted by address (deterministic for tools/snapshots).
  std::vector<ScopeHost> footprint;

  // Hosts mentioned in the query but provably outside the footprint
  // (sorted), and the inert variables that mention them (declaration
  // order). Both drive ctlint W100 and the `ctlint --show scope` report.
  std::vector<std::string> excluded;
  std::vector<std::string> inert_variables;

  // The two lists by name id (the compiled query's FlowGraph::names()), as
  // the probe plan and W100 read them.
  std::vector<HostScope> host_by_id;
};

// Effect inference alone, from the parsed AST. Pure in the query bytes.
ScopeEffects AnalyzeEffects(const Query& query);

// The full analysis over a compiled query. Status-free; safe to run before
// any probe. Checks invariant I408 (every literal flow endpoint is inside
// the computed footprint) on the way out.
ScopeAnalysis AnalyzeScope(const CompiledQuery& compiled);

// "reserve,sample", "sample", "reserve", or "pure" — for traces and tools.
std::string EffectsName(const ScopeEffects& effects);
// "cpu,net-in,net-out,disk" subset for one host's field bits ("-" if none).
std::string ScopeFieldNames(uint8_t fields);

}  // namespace lang
}  // namespace cloudtalk

#endif  // CLOUDTALK_SRC_LANG_SCOPE_H_
