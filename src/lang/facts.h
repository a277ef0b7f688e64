// QueryFacts: the one analysis of a parsed query that lint and the server
// share.
//
// Several lint rules and the answer pipeline read the same derived facts of
// a query: its flow graph, its compilation, its footprint & effect scope,
// the idle-world bound analysis, its tightest deadline. QueryFacts computes
// each of them at most once, on first use, so a query is indexed, compiled
// and scoped once however many rules read the result (the compile reads the
// same flow graph), and the idle-world bound is built only if a rule asks
// for it.
//
// One QueryFacts per query. It is logically const (every accessor is const)
// but fills its caches on first use, so while it is being filled only the
// thread that built it may use it. It refers to the Query it was built
// from, which must outlive it and must not change while it lives: a field
// changed after an accessor ran (say, `options.reserve` after scope())
// would leave a stale fact.
//
// Settled facts may be shared. Once the building thread has called
// compiled(), then scope() if the compile succeeded, then deadline(), those
// accessors, query() and flow_graph() only read, and any number of threads
// may call them concurrently, provided the facts reach them through a
// synchronizing hand-off (a mutex, say). idle_bounds() is not part of the
// settled set: on shared facts, call it only if the building thread did.
// CloudTalkServer's front-end cache shares settled facts this way between
// the answers of one query spelling.
#ifndef CLOUDTALK_SRC_LANG_FACTS_H_
#define CLOUDTALK_SRC_LANG_FACTS_H_

#include <optional>

#include "src/common/result.h"
#include "src/common/units.h"
#include "src/lang/analysis.h"
#include "src/lang/ast.h"
#include "src/lang/bound.h"
#include "src/lang/scope.h"

namespace cloudtalk {
namespace lang {

class QueryFacts {
 public:
  explicit QueryFacts(const Query& query) : query_(query) {}
  // The facts would point into a destroyed temporary, as CompiledQuery
  // would (analysis.h).
  explicit QueryFacts(Query&&) = delete;

  const Query& query() const { return query_; }

  // The name table, reference edges and chain groups (analysis.h).
  const FlowGraph& flow_graph() const;

  // CompiledQuery::Compile over query() and flow_graph(): the compiled
  // query, or the first semantic error.
  const Result<CompiledQuery>& compiled() const;

  // AnalyzeScope over the compiled query. Requires compiled().ok().
  const ScopeAnalysis& scope() const;

  // The bound analysis on an empty status snapshot: every host idle with
  // unconstrained resources, the most optimistic world (lint's E080, W080
  // and W081). Requires compiled().ok().
  const BoundAnalysis& idle_bounds() const;

  // The tightest finite `end` over the chain groups; infinity when no group
  // has one or the query does not compile.
  Seconds deadline() const;

 private:
  const Query& query_;
  mutable std::optional<FlowGraph> flow_graph_;
  mutable std::optional<Result<CompiledQuery>> compiled_;
  mutable std::optional<ScopeAnalysis> scope_;
  mutable std::optional<BoundAnalysis> idle_bounds_;
  mutable std::optional<Seconds> deadline_;
};

}  // namespace lang
}  // namespace cloudtalk

#endif  // CLOUDTALK_SRC_LANG_FACTS_H_
