#include "src/lang/scope.h"

#include <algorithm>

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

  // Every address the query mentions, once per mention, with the role the
  // mention gives it. One sort by address turns the mentions into the
  // footprint and the excluded hosts, each sorted and deduplicated, in a
  // single walk.
  struct Mention {
    const std::string* address;
    uint8_t fields;
    bool candidate;  // Pool entry of an active variable.
    bool endpoint;   // Literal flow endpoint.
  };
  std::vector<Mention> mentions;
  size_t mention_count = 2 * compiled.flows().size();
  for (const VarComm& var : compiled.variables()) {
    mention_count += var.pool.size();
  }
  mentions.reserve(mention_count);
  for (const VarComm& var : compiled.variables()) {
    const bool active = IsActive(var);
    const uint8_t fields = active ? VariableFields(var) : 0;
    for (const Endpoint& e : var.pool) {
      // Only active variables contribute to the status footprint.
      if (e.kind == Endpoint::Kind::kAddress) {
        mentions.push_back({&e.name, fields, active, false});
      }
    }
    if (!active) {
      scope.inert_variables.push_back(var.name);
    }
  }
  for (const CompiledFlow& flow : compiled.flows()) {
    if (flow.src.kind == Endpoint::Kind::kAddress) {
      mentions.push_back({&flow.src.name, kScopeFieldNetOut, false, true});
    }
    if (flow.dst.kind == Endpoint::Kind::kAddress) {
      mentions.push_back({&flow.dst.name, kScopeFieldNetIn, false, true});
    }
  }
  std::sort(mentions.begin(), mentions.end(),
            [](const Mention& a, const Mention& b) { return *a.address < *b.address; });

  for (size_t i = 0; i < mentions.size();) {
    ScopeHost host;
    host.address = *mentions[i].address;
    for (; i < mentions.size() && *mentions[i].address == host.address; ++i) {
      host.fields |= mentions[i].fields;
      host.candidate |= mentions[i].candidate;
      host.endpoint |= mentions[i].endpoint;
    }
    if (host.candidate || host.endpoint) {
      scope.footprint.push_back(std::move(host));
    } else {
      scope.excluded.push_back(std::move(host.address));
    }
  }

  // I408: a literal flow endpoint can never be excluded — the bound
  // analysis and the estimators read its status for every binding.
  for (const CompiledFlow& flow : compiled.flows()) {
    for (const Endpoint* e : {&flow.src, &flow.dst}) {
      if (e->kind == Endpoint::Kind::kAddress) {
        CT_INVARIANT(scope.InFootprint(e->name), "I408",
                     "literal flow endpoint outside the computed footprint")
            .With("flow", flow.name)
            .With("endpoint", e->name);
      }
    }
  }
  return scope;
}

bool ScopeAnalysis::InFootprint(const std::string& address) const {
  const auto it = std::lower_bound(
      footprint.begin(), footprint.end(), address,
      [](const ScopeHost& host, const std::string& key) { return host.address < key; });
  return it != footprint.end() && it->address == address;
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
