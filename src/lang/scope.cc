#include "src/lang/scope.h"

#include <algorithm>
#include <span>
#include <utility>

#include "src/check/check.h"

namespace cloudtalk {
namespace lang {

namespace {

// A variable is active when some evaluation engine can read the status of
// its candidates: it communicates over the network, touches disk, or
// carries a scalar requirement. Everything else is inert — its binding is a
// pure function of pool order.
bool IsActive(const VarComm& var) {
  return !var.rx_from.empty() || !var.tx_to.empty() || var.reads_disk || var.writes_disk ||
         var.cpu_required > 0 || var.mem_required > 0;
}

uint8_t VariableFields(const VarComm& var) {
  uint8_t fields = 0;
  if (!var.rx_from.empty()) {
    fields |= kScopeFieldNetIn;
  }
  if (!var.tx_to.empty()) {
    fields |= kScopeFieldNetOut;
  }
  if (var.reads_disk || var.writes_disk) {
    fields |= kScopeFieldDisk;
  }
  if (var.cpu_required > 0 || var.mem_required > 0) {
    fields |= kScopeFieldCpu;
  }
  return fields;
}

}  // namespace

ScopeEffects AnalyzeEffects(const Query& query) {
  ScopeEffects effects;
  // Packet-level evaluation skips the reservation table on both sides (no
  // filter, no writes), so the reserve effect only materializes on the
  // heuristic path.
  effects.uses_packet_engine = query.options.use_packet_simulator;
  effects.reserves = query.options.reserve && !query.options.use_packet_simulator;
  effects.samples = query.options.use_dynamic_load;
  effects.pure = !effects.reserves;
  for (const VarDecl& decl : query.variables) {
    effects.max_pool_size =
        std::max(effects.max_pool_size, static_cast<int>(decl.values.size()));
  }
  return effects;
}

ScopeAnalysis AnalyzeScope(const CompiledQuery& compiled) {
  ScopeAnalysis scope;
  scope.effects = AnalyzeEffects(compiled.query());

  // Every address the query mentions, once per name, with the roles its
  // mentions give it, in first-mention order. One sort of those names by
  // spelling turns them into the footprint and the excluded hosts.
  const FlowGraph& graph = compiled.graph();
  const NameTable& names = graph.names();
  struct Role {
    bool mentioned = false;
    uint8_t fields = 0;
    bool candidate = false;  // Pool entry of an active variable.
    bool endpoint = false;   // Literal flow endpoint.
  };
  std::vector<Role> roles(names.size());
  std::vector<int> hosts;
  hosts.reserve(names.size());
  const auto mention = [&](int id, uint8_t fields, bool candidate, bool endpoint) {
    Role& role = roles[id];
    if (!std::exchange(role.mentioned, true)) {
      hosts.push_back(id);
    }
    role.fields |= fields;
    role.candidate |= candidate;
    role.endpoint |= endpoint;
  };
  for (const VarComm& var : compiled.variables()) {
    const bool active = IsActive(var);
    const uint8_t fields = active ? VariableFields(var) : 0;
    const std::span<const int> ids = graph.pool_ids(var.decl);
    for (size_t k = 0; k < ids.size(); ++k) {
      // Only active variables contribute to the status footprint.
      if (var.pool[k].kind == Endpoint::Kind::kAddress) {
        mention(ids[k], fields, active, false);
      }
    }
    if (!active) {
      scope.inert_variables.push_back(var.name);
    }
  }
  for (const CompiledFlow& flow : compiled.flows()) {
    if (flow.src.kind == Endpoint::Kind::kAddress) {
      mention(graph.src_id(flow.index), kScopeFieldNetOut, false, true);
    }
    if (flow.dst.kind == Endpoint::Kind::kAddress) {
      mention(graph.dst_id(flow.index), kScopeFieldNetIn, false, true);
    }
  }
  std::sort(hosts.begin(), hosts.end(),
            [&names](int a, int b) { return names.name(a) < names.name(b); });

  scope.host_by_id.assign(names.size(), HostScope::kNone);
  scope.footprint.reserve(hosts.size());
  for (const int id : hosts) {
    const Role& role = roles[id];
    if (role.candidate || role.endpoint) {
      scope.footprint.push_back(
          ScopeHost{std::string(names.name(id)), role.fields, role.candidate, role.endpoint});
      scope.host_by_id[id] = HostScope::kFootprint;
    } else {
      scope.excluded.emplace_back(names.name(id));
      scope.host_by_id[id] = HostScope::kExcluded;
    }
  }

  // I408: a literal flow endpoint can never be excluded — the bound
  // analysis and the estimators read its status for every binding.
  for (const CompiledFlow& flow : compiled.flows()) {
    for (const Endpoint* e : {&flow.src, &flow.dst}) {
      const int id = e == &flow.src ? graph.src_id(flow.index) : graph.dst_id(flow.index);
      if (e->kind == Endpoint::Kind::kAddress) {
        CT_INVARIANT(scope.host_by_id[id] == HostScope::kFootprint, "I408",
                     "literal flow endpoint outside the computed footprint")
            .With("flow", flow.name)
            .With("endpoint", e->name);
      }
    }
  }
  return scope;
}

std::string EffectsName(const ScopeEffects& effects) {
  std::string name;
  if (effects.reserves) {
    name += "reserve";
  }
  if (effects.samples) {
    name += name.empty() ? "sample" : ",sample";
  }
  return name.empty() ? "pure" : name;
}

std::string ScopeFieldNames(uint8_t fields) {
  std::string name;
  const auto append = [&name](const char* field) {
    if (!name.empty()) {
      name += ',';
    }
    name += field;
  };
  if (fields & kScopeFieldCpu) {
    append("cpu");
  }
  if (fields & kScopeFieldNetIn) {
    append("net-in");
  }
  if (fields & kScopeFieldNetOut) {
    append("net-out");
  }
  if (fields & kScopeFieldDisk) {
    append("disk");
  }
  return name.empty() ? "-" : name;
}

}  // namespace lang
}  // namespace cloudtalk
