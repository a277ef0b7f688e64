// Semantic analysis: turns a parsed Query into the structures the CloudTalk
// server evaluates.
//
//  * One FlowGraph pass gives every name the query spells a dense id,
//    indexes the flows and variables by it, and collects the references
//    between flows. The later stages read ids, not strings.
//  * Flow sizes are resolved to concrete byte counts along the graph's size
//    edges (following sz() references; a flow with only a
//    transfer-reference inherits the referenced flow's size — the
//    daisy-chain idiom).
//  * Flows joined by rate/transfer references are merged into *chain groups*
//    that share a single rate ("our two restrictions mandate that the rates
//    of the two flows will be the same", Section 4.1). A group's rate limit
//    is the tightest literal `rate` attribute of its members.
//  * For every variable, the analysis computes the communication sets the
//    heuristic needs (Listing 1): which endpoints send to it / receive from
//    it over the network, and whether it reads or writes its local disk.
#ifndef CLOUDTALK_SRC_LANG_ANALYSIS_H_
#define CLOUDTALK_SRC_LANG_ANALYSIS_H_

#include <cstdint>
#include <memory>
#include <numeric>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/name_table.h"
#include "src/common/result.h"
#include "src/common/units.h"
#include "src/lang/ast.h"
#include "src/lang/diagnostics.h"
#include "src/status/status.h"

namespace cloudtalk {
namespace lang {

// Path-compressed union-find over [0, n): the chain groups below and the
// optimisation passes' variable classes (opt.cc).
struct UnionFind {
  std::vector<int32_t> parent;
  explicit UnionFind(size_t n) : parent(n) { std::iota(parent.begin(), parent.end(), 0); }
  int32_t Find(int32_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  }
  void Union(int32_t a, int32_t b) { parent[Find(a)] = Find(b); }
};

// One reference expression (sz(f), t(f), ...) and the index of the flow it
// names, -1 when no flow has that name.
struct FlowRef {
  int flow = -1;
  const Expr* expr = nullptr;
};

// The name table and flow-reference graph of a query, built in one linear
// pass: an id for each distinct spelling of a variable, flow, pool entry or
// flow endpoint, each flow's size and transfer edges, and its chain group.
// The compiler, scope, lint, canon and the probe plan read it; QueryFacts
// builds it once per query. Derived from the Query, not stored in it, it is
// as true for a query built by hand or renamed in place as for a parsed one.
// It points into the Query, which must outlive it and not change meanwhile.
class FlowGraph {
 public:
  explicit FlowGraph(const Query& query);
  explicit FlowGraph(Query&&) = delete;

  const NameTable& names() const { return names_; }

  // What the name `id` stands for: the index of the last flow so named, the
  // first variable so declared (its index into CompiledQuery::variables()),
  // or -1 for neither or for id -1.
  int flow(int id) const { return id < 0 ? -1 : named_[id].flow; }
  int variable(int id) const { return id < 0 ? -1 : named_[id].variable; }

  // Index of the flow named `name`, or -1. When a name is defined more than
  // once, the last definition wins.
  int Find(std::string_view name) const { return flow(names_.Find(name)); }

  // Name ids by mention, in source order: declaration d's variable names
  // and pool entries, and flow f's source and destination.
  std::span<const int> declared_ids(int decl) const { return Ids(2 * decl); }
  std::span<const int> pool_ids(int decl) const { return Ids(2 * decl + 1); }
  int src_id(int flow) const { return ids_[mention_begin_.back() + 2 * flow]; }
  int dst_id(int flow) const { return ids_[mention_begin_.back() + 2 * flow + 1]; }

  // What the flow's size resolves from: every reference in its `size`, in
  // source order, or else its first `transfer` reference.
  std::span<const FlowRef> size_edges(int flow) const {
    return {size_edges_.data() + size_begin_[flow], size_edges_.data() + size_begin_[flow + 1]};
  }

  bool has_size_edges() const { return !size_edges_.empty(); }

  // The flows its `transfer` references, in source order, self-references
  // kept. The packet-level estimator starts a flow when these complete.
  std::span<const int> transfer_edges(int flow) const {
    return {transfer_edges_.data() + transfer_begin_[flow],
            transfer_edges_.data() + transfer_begin_[flow + 1]};
  }
  bool has_transfer_edges() const { return !transfer_edges_.empty(); }

  // Chain group of the flow: flows joined by rate/transfer references share
  // one. Groups are numbered in the order of their lowest members, as
  // CompiledQuery::groups() lists them.
  int group(int flow) const { return group_[flow]; }
  int num_groups() const { return num_groups_; }

 private:
  struct Named {
    int variable = -1;
    int flow = -1;
  };
  std::span<const int> Ids(int list) const {
    return {ids_.data() + mention_begin_[list], ids_.data() + mention_begin_[list + 1]};
  }

  NameTable names_;
  std::vector<Named> named_;  // By name id.
  // Mentions' name ids: each declaration's names, then its pool, list 2d
  // and 2d + 1 at [mention_begin_[l], mention_begin_[l + 1]); then, from
  // mention_begin_.back(), each flow's source and destination.
  std::vector<int> ids_;
  std::vector<int> mention_begin_;
  std::vector<FlowRef> size_edges_;  // Flow f's are [size_begin_[f], size_begin_[f + 1]).
  std::vector<int> size_begin_;
  std::vector<int> transfer_edges_;  // Likewise through transfer_begin_.
  std::vector<int> transfer_begin_;
  std::vector<int> group_;
  int num_groups_ = 0;
};

// Per-variable communication summary (the to/from and tx/rx sets of
// Listing 1).
struct VarComm {
  std::string name;
  int id = -1;                    // The name's id in the query's FlowGraph.
  int decl = -1;                  // Its declaration: the pool's FlowGraph::pool_ids.
  std::span<const Endpoint> pool;  // Possible values: its declaration's, in the Query.
  std::vector<Endpoint> rx_from;  // Network endpoints that send to it.
  std::vector<Endpoint> tx_to;    // Network endpoints it sends to.
  bool reads_disk = false;        // Some flow disk -> var.
  bool writes_disk = false;       // Some flow var -> disk.
  double cpu_required = 0;        // Section 7 scalar requirements;
  Bytes mem_required = 0;         // 0 = unconstrained.
};

struct CompiledFlow {
  int index = 0;            // Position in Query::flows.
  std::string name;
  Endpoint src;
  Endpoint dst;
  Bytes size = 0;           // Resolved.
  Seconds start = 0;        // Literal `start`, relative seconds (default 0).
  int group = 0;            // Chain-group index.
  // Flows whose transferred data this flow forwards (t() references inside
  // the transfer attribute). The fluid model folds these into the shared
  // group rate; the packet-level estimator instead starts this flow when its
  // parents complete (store-and-forward approximation).
  std::vector<int> transfer_parents;
};

struct CompiledGroup {
  std::vector<int> flow_indices;      // Members (indices into flows()).
  Bps rate_limit;                     // Tightest literal rate; inf if none.
  Seconds start = 0;                  // Earliest member start.
  // Tightest literal `end` attribute among members (seconds relative to
  // now); infinity when none. Used as a completion deadline by Quote().
  Seconds deadline = 0;
};

class CompiledQuery;

// The hosts a query names, the one host numbering of the search: each
// distinct address spelling gets one slot, pool entries first, then literal
// flow endpoints, in first-mention order. The spellings point into the
// Query. An answer maps each slot to its host through an *identity*: per
// slot, the first slot naming the same host (AnswerHosts), so an alias and
// its address are one host to every engine. An empty identity, as without a
// directory, makes each slot its own host.
struct QueryHosts {
  QueryHosts() = default;
  explicit QueryHosts(const CompiledQuery& compiled);

  // Variable v's candidates: its pool's address entries as slots, in pool
  // order with repeats, the sequence the exhaustive search enumerates.
  std::vector<int> CandidateSlots(int var) const;

  std::vector<const std::string*> names;  // By slot.
  std::vector<int> ids;                   // By slot: the name's id in the flow graph.
  std::vector<int> slot_of;               // By name id: its slot, -1 for a non-address.
  int pool_names = 0;                     // Slots [0, pool_names) are pool entries.
  std::vector<int> endpoints;             // Literal flow endpoints' slots, in order.
  // Each distinct pool once, in first-mention order: its entries' slots, -1
  // for a `disk` entry. Variables with equal pools share one.
  std::vector<std::vector<int>> pools;
  std::vector<int> pool_of;  // Per variable: its pool.
  std::vector<int> peer_of;  // Per variable: its only peer's slot if an address, else -1.
};

// The host `slot` is under `identity`: identity[slot], or the slot itself
// when the identity is empty. -1 stays -1.
inline int HostOf(std::span<const int> identity, int slot) {
  return slot < 0 || identity.empty() ? slot : identity[slot];
}

// One answer's status snapshot by host, the input of every search engine:
// each host's report once, at its identity slot. It views the identity,
// which must outlive it, and keeps per slot only an index, so a slot that
// got no report costs no report's room.
class HostStatus {
 public:
  // Nothing reported: every slot reads as unreported.
  HostStatus() = default;
  // No report yet for any slot of `hosts`, with room for `reports`.
  HostStatus(const QueryHosts& hosts, std::span<const int> identity, size_t reports = 0);
  // A snapshot held by spelling, as tests, tools and benches keep one: each
  // host gets the report filed under its identity slot's spelling.
  HostStatus(const QueryHosts& hosts, const StatusByAddress& status,
             std::span<const int> identity = {});

  std::span<const int> identity() const { return identity_; }

  // The report of `slot`'s host, or null: none filed, or slot -1 (which
  // wraps past every slot).
  const StatusReport* Find(int slot) const {
    const size_t host = HostOf(identity_, slot);
    return host < index_.size() && index_[host] >= 0 ? &reports_[index_[host]] : nullptr;
  }

  // Files `report` as `slot`'s host's, replacing any it had.
  void Set(int slot, const StatusReport& report);

 private:
  std::span<const int> identity_;
  std::vector<int> index_;  // By identity slot: into reports_, or -1.
  std::vector<StatusReport> reports_;
};

class CompiledQuery {
 public:
  // Compiles `query` over a flow graph of its own; the Query must outlive
  // the CompiledQuery. On failure the Error is the first diagnostic
  // (message, rule code, line/column).
  static Result<CompiledQuery> Compile(const Query& query);

  // Like Compile, but reports every problem (cyclic size references E030,
  // unusable references E031, unresolvable sizes E032, ...) into `sink`
  // with source spans. Returns nullopt when any error was recorded.
  static std::optional<CompiledQuery> Compile(const Query& query, DiagnosticSink* sink);

  // Either of the above over `graph`, the query's own flow graph, instead of
  // building one. The graph, too, must outlive the CompiledQuery.
  static Result<CompiledQuery> Compile(const Query& query, const FlowGraph& graph);
  static std::optional<CompiledQuery> Compile(const Query& query, const FlowGraph& graph,
                                              DiagnosticSink* sink);

  // A temporary Query would be destroyed while the result still points
  // into it, so compiling one is a compile error.
  static Result<CompiledQuery> Compile(Query&&) = delete;
  static std::optional<CompiledQuery> Compile(Query&&, DiagnosticSink*) = delete;

  const Query& query() const { return *query_; }
  const FlowGraph& graph() const { return *graph_; }
  const std::vector<CompiledFlow>& flows() const { return flows_; }
  const std::vector<CompiledGroup>& groups() const { return groups_; }
  const std::vector<VarComm>& variables() const { return variables_; }
  const QueryHosts& hosts() const { return hosts_; }

  // Index into variables() or -1. A name declared twice resolves to its
  // first declaration.
  int VariableIndex(std::string_view name) const {
    return graph_->variable(graph_->names().Find(name));
  }

 private:
  const Query* query_ = nullptr;
  const FlowGraph* graph_ = nullptr;
  std::shared_ptr<const FlowGraph> own_graph_;  // Set when Compile built the graph.
  std::vector<CompiledFlow> flows_;
  std::vector<CompiledGroup> groups_;
  std::vector<VarComm> variables_;
  QueryHosts hosts_;
};

}  // namespace lang
}  // namespace cloudtalk

#endif  // CLOUDTALK_SRC_LANG_ANALYSIS_H_
