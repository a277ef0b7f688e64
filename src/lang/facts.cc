#include "src/lang/facts.h"

#include <algorithm>
#include <limits>

namespace cloudtalk {
namespace lang {

const FlowGraph& QueryFacts::flow_graph() const {
  if (!flow_graph_.has_value()) {
    flow_graph_.emplace(query_);
  }
  return *flow_graph_;
}

const Result<CompiledQuery>& QueryFacts::compiled() const {
  if (!compiled_.has_value()) {
    compiled_.emplace(CompiledQuery::Compile(query_, flow_graph()));
  }
  return *compiled_;
}

const ScopeAnalysis& QueryFacts::scope() const {
  if (!scope_.has_value()) {
    scope_.emplace(AnalyzeScope(compiled().value()));
  }
  return *scope_;
}

const BoundAnalysis& QueryFacts::idle_bounds() const {
  if (!idle_bounds_.has_value()) {
    idle_bounds_.emplace(BoundAnalysis::Build(compiled().value(), HostStatus{}));
  }
  return *idle_bounds_;
}

Seconds QueryFacts::deadline() const {
  if (!deadline_.has_value()) {
    Seconds tightest = std::numeric_limits<Seconds>::infinity();
    if (compiled().ok()) {
      for (const CompiledGroup& group : compiled().value().groups()) {
        tightest = std::min(tightest, group.deadline);
      }
    }
    deadline_ = tightest;
  }
  return *deadline_;
}

}  // namespace lang
}  // namespace cloudtalk
