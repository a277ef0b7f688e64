// ctlint: static analyzer for CloudTalk query files.
//
// Runs the full diagnostics pipeline — lexer, parser (with recovery), lint
// rules, semantic compilation — over each input and reports every finding
// with source position, rule code, and fix-it hint. With more than one
// input, also cross-checks the batch for semantically equivalent queries
// (rule W092): two inputs whose canonical forms are byte-identical get the
// same answer from the server and usually indicate accidental duplication.
//
// With --show, ctlint runs no lint rules and instead prints one static
// analysis fact (src/lang) of each input:
//   opt    the O100–O500 optimisation plan and pass remarks over a synthetic
//          all-idle status (D500, byte-identical pruned search: ctcheck
//          --diff-opt and OptDifferentialTest in tests/opt_test.cc);
//   bound  the sound makespan interval [LB, UB] per chain group and for the
//          query over that status (D502: ctcheck --diff-bound);
//   scope  the host footprint and effect set (D504: ctcheck --diff-scope);
//   canon  the canonical text, or with --json its hash and the name
//          certificate (D503: ctcheck --diff-canon).
//
//   ctlint query.ct                 clang-style text diagnostics
//   ctlint --json query.ct          machine-readable output for CI
//   ctlint --werror query.ct        warnings are promoted to errors
//   ctlint -                        read the query from stdin
//   ctlint --rules                  list every lint rule and optimisation pass
//   ctlint --show bound query.ct    print one fact (--json: one object per input)
//
// Exit code is the maximum across all inputs. Linting: 0 clean, 1 warnings,
// 2 errors (with --werror, warnings exit 2 as well). With --show: 0, or 2
// for an input that does not compile (its diagnostics go to stderr).
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/common/json.h"
#include "src/lang/analysis.h"
#include "src/lang/bound.h"
#include "src/lang/canon.h"
#include "src/lang/diagnostics.h"
#include "src/lang/facts.h"
#include "src/lang/lint.h"
#include "src/lang/opt.h"
#include "src/lang/parser.h"
#include "src/lang/scope.h"
#include "tools/cli_common.h"

namespace {

using cloudtalk::JsonQuote;
using cloudtalk::lang::BatchEquivalence;
using cloudtalk::lang::CompiledQuery;
using cloudtalk::lang::DiagnosticSink;
using cloudtalk::lang::Query;
using cloudtalk::lang::QueryFacts;
using cloudtalk::lang::Severity;
using cloudtalk::lang::Span;

// Prints one fact of a compiled query; returns the input's exit code.
using ShowFn = int (*)(const QueryFacts& facts, const std::string& source,
                       const std::string& display_name, bool json);

struct Options {
  bool json = false;
  bool werror = false;
  ShowFn show = nullptr;  // Null: lint.
  std::vector<std::string> files;
};

void PrintUsage(std::ostream& os) {
  os << "usage: ctlint [--json] [--werror] <query.ct ...|->\n"
        "       ctlint --show opt|bound|scope|canon [--json] <query.ct ...|->\n"
        "       ctlint --rules\n"
        "\n"
        "Static analyzer for CloudTalk query files. Reports every syntax\n"
        "error, semantic error, and lint finding with line:column, a stable\n"
        "rule code, and a fix-it hint (see docs/LANGUAGE.md, 'Diagnostics').\n"
        "With several inputs, semantically equivalent queries are flagged\n"
        "(W092) by canonical-form comparison.\n"
        "\n"
        "  --json    machine-readable output (one JSON object per input)\n"
        "  --werror  treat warnings as errors\n"
        "  --rules   list lint rules and optimisation passes and exit\n"
        "  --show F  print fact F of each input instead of linting:\n"
        "              opt    optimisation plan on an idle cluster\n"
        "              bound  sound makespan bounds on an idle cluster\n"
        "              scope  host footprint and effect set\n"
        "              canon  canonical form\n"
        "  -         read a query from standard input\n"
        "\n"
        "exit code: 0 = clean, 1 = warnings, 2 = errors or unusable input\n";
}

void PrintRules() {
  for (const cloudtalk::lang::LintRule& rule : cloudtalk::lang::LintRules()) {
    std::cout << rule.code << "  " << cloudtalk::lang::SeverityName(rule.severity) << "  "
              << rule.name << ": " << rule.summary << "\n";
  }
  for (const cloudtalk::lang::OptPass& pass : cloudtalk::lang::OptPasses()) {
    std::cout << pass.code << "  " << pass.name << ": " << pass.summary << "\n";
  }
}

// A 64-bit content hash as 16 hex digits.
std::string HexHash(uint64_t hash) {
  char text[17];
  std::snprintf(text, sizeof(text), "%016llx", static_cast<unsigned long long>(hash));
  return text;
}

// One input's pipeline state, kept so the batch-equivalence pass can append
// W092 findings before anything is rendered.
struct LintedInput {
  std::string source;
  std::string display_name;
  Query query;
  DiagnosticSink sink;
};

LintedInput LintOne(std::string source, std::string display_name) {
  LintedInput input;
  input.source = std::move(source);
  input.display_name = std::move(display_name);
  input.query = cloudtalk::lang::ParseWithDiagnostics(input.source, &input.sink);
  const QueryFacts facts(input.query);
  cloudtalk::lang::RunLint(facts, &input.sink);
  if (!input.sink.has_errors() && !facts.compiled().ok()) {
    // Surface every residual semantic error (unresolvable sizes etc.) that
    // only full compilation finds; the facts keep just the first. Skipped
    // when errors exist: the AST is partial.
    (void)CompiledQuery::Compile(input.query, facts.flow_graph(), &input.sink);
  }
  return input;
}

// W092: flag every input whose canonical form is byte-identical to an
// earlier one in the batch.
void CheckBatchEquivalence(std::vector<LintedInput>* inputs) {
  std::vector<const Query*> queries;
  queries.reserve(inputs->size());
  for (const LintedInput& input : *inputs) {
    queries.push_back(&input.query);
  }
  const std::vector<BatchEquivalence> equivalence =
      cloudtalk::lang::FindEquivalentQueries(queries);
  for (size_t i = 0; i < inputs->size(); ++i) {
    if (equivalence[i].equivalent_to < 0) {
      continue;
    }
    (*inputs)[i].sink.AddWarning(
        "W092", Span{1, 1, 1},
        "query is semantically equivalent to earlier input '" +
            (*inputs)[equivalence[i].equivalent_to].display_name + "'",
        "the canonical forms are byte-identical (hash " + HexHash(equivalence[i].hash) +
            "); the server gives both the same answer");
  }
}

int Render(LintedInput* input, const Options& options) {
  if (options.werror) {
    input->sink.PromoteWarnings();
  }
  input->sink.SortByPosition();
  if (options.json) {
    std::cout << DiagnosticsToJson(input->sink.diagnostics(), input->display_name) << "\n";
  } else if (!input->sink.empty()) {
    std::cout << FormatDiagnostics(input->sink.diagnostics(), input->source,
                                   input->display_name);
  }
  switch (input->sink.max_severity()) {
    case Severity::kError:
      return 2;
    case Severity::kWarning:
      return 1;
    case Severity::kNote:
      break;
  }
  return 0;
}

// ---- --show ----

// All-idle synthetic snapshot: every address the query names reports a
// 1 Gbps NIC, a 4 Gbps disk, and no scalar-resource information — the same
// defaults the tests use. Deterministic, so reports are snapshot-stable.
cloudtalk::lang::HostStatus SynthesizeIdleStatus(const CompiledQuery& compiled) {
  const cloudtalk::lang::QueryHosts& hosts = compiled.hosts();
  cloudtalk::StatusReport idle;
  idle.nic_tx_cap = idle.nic_rx_cap = 1e9;
  idle.disk_read_cap = idle.disk_write_cap = 4e9;
  cloudtalk::lang::HostStatus status(hosts, {}, hosts.names.size());
  for (int slot = 0; slot < static_cast<int>(hosts.names.size()); ++slot) {
    status.Set(slot, idle);
  }
  return status;
}

std::string FormatG6(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  return buf;
}

// Seconds for the text reports, and for JSON, which has no inf literal.
std::string TextSeconds(double seconds) {
  return std::isinf(seconds) ? std::string("inf") : FormatG6(seconds);
}
std::string JsonSeconds(double seconds) {
  return std::isfinite(seconds) ? FormatG6(seconds) : std::string("null");
}

std::string FormatSpace(double count) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), count < 1e6 ? "%.0f" : "%.3g", count);
  return buf;
}

std::string PlanJson(const cloudtalk::lang::PrunedSpace& plan) {
  const int pinned = static_cast<int>(
      std::count_if(plan.pinned.begin(), plan.pinned.end(), [](int32_t p) { return p >= 0; }));
  std::ostringstream os;
  os << "{\"infeasible\":" << (plan.infeasible ? "true" : "false")
     << ",\"space_before\":" << plan.space_before << ",\"space_after\":" << plan.space_after
     << ",\"bindings_pruned\":" << plan.bindings_pruned
     << ",\"components\":" << plan.components << ",\"pinned\":" << pinned
     << ",\"dead_flows\":" << plan.dead_flows.size()
     << ",\"bound_pruning\":" << (plan.bound_pruning ? "true" : "false");
  if (plan.bound_pruning) {
    os << ",\"bound_lb\":" << FormatG6(plan.bound_lb)
       << ",\"bound_ub\":" << JsonSeconds(plan.bound_ub);
  }
  // Per-pass attribution in execution order: wall time (run-dependent; not
  // for snapshots) and the static binding-space reduction each pass owns.
  os << ",\"passes\":[";
  for (size_t i = 0; i < plan.pass_stats.size(); ++i) {
    const cloudtalk::lang::PassStat& ps = plan.pass_stats[i];
    os << (i ? "," : "") << "{\"code\":\"" << ps.code
       << "\",\"wall_seconds\":" << FormatG6(ps.wall_seconds)
       << ",\"pruned_bindings\":" << ps.pruned_bindings << "}";
  }
  os << "]}";
  return os.str();
}

int ShowOpt(const QueryFacts& facts, const std::string& source, const std::string& display_name,
            bool json) {
  const CompiledQuery& compiled = facts.compiled().value();
  DiagnosticSink remarks;
  const cloudtalk::lang::PrunedSpace plan =
      Optimize(compiled, SynthesizeIdleStatus(compiled), {}, &remarks);
  remarks.SortByPosition();
  if (json) {
    std::cout << "{\"plan\":" << PlanJson(plan) << ",\"diagnostics\":"
              << DiagnosticsToJson(remarks.diagnostics(), display_name) << "}\n";
    return 0;
  }
  if (!remarks.empty()) {
    std::cout << FormatDiagnostics(remarks.diagnostics(), source, display_name);
  }
  std::cout << display_name << ": plan: " << FormatSpace(plan.space_before) << " -> "
            << FormatSpace(plan.space_after) << " bindings (" << plan.bindings_pruned
            << " pruned statically)";
  if (plan.infeasible) {
    std::cout << "; infeasible: " << plan.infeasible_reason;
  }
  std::cout << "\n";
  return 0;
}

int ShowBound(const QueryFacts& facts, const std::string& /*source*/,
              const std::string& display_name, bool json) {
  const CompiledQuery& compiled = facts.compiled().value();
  const cloudtalk::lang::BoundAnalysis bounds =
      cloudtalk::lang::BoundAnalysis::Build(compiled, SynthesizeIdleStatus(compiled));
  const cloudtalk::lang::BoundInterval& q = bounds.query_bounds();
  // A group's first member flow names it.
  auto group_flow = [&compiled](int g) {
    const std::vector<int>& members = compiled.groups()[g].flow_indices;
    return members.empty() ? std::string("?") : compiled.flows()[members.front()].name;
  };
  if (json) {
    std::cout << "{\"query\":{\"lb\":" << JsonSeconds(q.lb) << ",\"ub\":" << JsonSeconds(q.ub)
              << "},\"groups\":[";
    for (size_t i = 0; i < bounds.group_bounds().size(); ++i) {
      const cloudtalk::lang::GroupBound& gb = bounds.group_bounds()[i];
      std::cout << (i ? "," : "") << "{\"group\":" << gb.group << ",\"flow\":\""
                << group_flow(gb.group) << "\",\"lb\":" << JsonSeconds(gb.interval.lb)
                << ",\"ub\":" << JsonSeconds(gb.interval.ub)
                << ",\"deadline\":" << JsonSeconds(gb.deadline)
                << ",\"provably_infeasible\":" << (gb.provably_infeasible ? "true" : "false")
                << ",\"trivially_satisfied\":" << (gb.trivially_satisfied ? "true" : "false")
                << "}";
    }
    std::cout << "]}\n";
    return 0;
  }
  std::cout << display_name << ": query bounds [" << TextSeconds(q.lb) << "s, "
            << TextSeconds(q.ub) << "s]\n";
  for (const cloudtalk::lang::GroupBound& gb : bounds.group_bounds()) {
    std::cout << "  group " << gb.group << " (flow '" << group_flow(gb.group) << "'): ["
              << TextSeconds(gb.interval.lb) << "s, " << TextSeconds(gb.interval.ub) << "s]";
    if (std::isfinite(gb.deadline)) {
      std::cout << " deadline " << TextSeconds(gb.deadline) << "s";
      if (gb.provably_infeasible) {
        std::cout << " PROVABLY INFEASIBLE";
      } else if (gb.trivially_satisfied) {
        std::cout << " trivially satisfied";
      }
    }
    std::cout << "\n";
  }
  return 0;
}

// `"name": [s0, s1, ...]` over JSON-quoted strings.
void PrintJsonList(const char* name, const std::vector<std::string>& values) {
  std::cout << ", \"" << name << "\": [";
  for (size_t i = 0; i < values.size(); ++i) {
    std::cout << (i > 0 ? ", " : "") << JsonQuote(values[i]);
  }
  std::cout << "]";
}

int ShowScope(const QueryFacts& facts, const std::string& /*source*/,
              const std::string& display_name, bool json) {
  const cloudtalk::lang::ScopeAnalysis& scope = facts.scope();
  const std::string effects = cloudtalk::lang::EffectsName(scope.effects);
  if (json) {
    std::cout << "{\"file\": " << JsonQuote(display_name) << ", \"effects\": \"" << effects
              << "\", \"max_pool_size\": " << scope.effects.max_pool_size
              << ", \"footprint\": [";
    for (size_t i = 0; i < scope.footprint.size(); ++i) {
      const cloudtalk::lang::ScopeHost& host = scope.footprint[i];
      std::cout << (i > 0 ? ", " : "") << "{\"host\": " << JsonQuote(host.address)
                << ", \"fields\": \"" << cloudtalk::lang::ScopeFieldNames(host.fields)
                << "\", \"candidate\": " << (host.candidate ? "true" : "false")
                << ", \"endpoint\": " << (host.endpoint ? "true" : "false") << "}";
    }
    std::cout << "]";
    PrintJsonList("excluded", scope.excluded);
    PrintJsonList("inert_variables", scope.inert_variables);
    std::cout << "}\n";
    return 0;
  }
  std::cout << display_name << ": effects " << effects << ", footprint "
            << scope.footprint.size() << " host" << (scope.footprint.size() == 1 ? "" : "s")
            << ", excluded " << scope.excluded.size() << "\n";
  for (const cloudtalk::lang::ScopeHost& host : scope.footprint) {
    std::cout << "  " << host.address
              << "  fields=" << cloudtalk::lang::ScopeFieldNames(host.fields)
              << (host.candidate ? " candidate" : "") << (host.endpoint ? " endpoint" : "")
              << "\n";
  }
  for (const std::string& address : scope.excluded) {
    std::cout << "  " << address << "  excluded (never probed)\n";
  }
  for (const std::string& var : scope.inert_variables) {
    std::cout << "  inert variable " << var << "\n";
  }
  return 0;
}

// `"name": [{"original": ..., "canonical": ...}, ...]`.
void PrintJsonRenames(const char* name,
                      const std::vector<std::pair<std::string, std::string>>& renames) {
  std::cout << ", \"" << name << "\": [";
  for (size_t i = 0; i < renames.size(); ++i) {
    std::cout << (i > 0 ? ", " : "") << "{\"original\": " << JsonQuote(renames[i].first)
              << ", \"canonical\": " << JsonQuote(renames[i].second) << "}";
  }
  std::cout << "]";
}

int ShowCanon(const QueryFacts& facts, const std::string& /*source*/,
              const std::string& display_name, bool json) {
  const cloudtalk::Result<cloudtalk::lang::CanonicalQuery> canon =
      cloudtalk::lang::Canonicalize(facts.query());
  if (!canon.ok()) {
    std::cerr << display_name << ": " << canon.error().message << "\n";
    return 2;
  }
  if (!json) {
    std::cout << canon.value().text;
    return 0;
  }
  std::cout << "{\"file\": " << JsonQuote(display_name) << ", \"hash\": \""
            << HexHash(canon.value().hash)
            << "\", \"canonical\": " << JsonQuote(canon.value().text);
  PrintJsonRenames("variables", canon.value().variable_map);
  PrintJsonRenames("flows", canon.value().flow_map);
  std::cout << "}\n";
  return 0;
}

// Parses and compiles one input, then prints the chosen fact. An input that
// does not compile gets its diagnostics on stderr, clang-style, and exit 2.
int ShowOne(const std::string& source, const std::string& display_name, const Options& options) {
  DiagnosticSink sink;
  const Query query = cloudtalk::lang::ParseWithDiagnostics(source, &sink);
  const QueryFacts facts(query);
  if (sink.has_errors() || !facts.compiled().ok()) {
    if (!sink.has_errors()) {
      // The facts keep only the first semantic error; report them all.
      (void)CompiledQuery::Compile(query, facts.flow_graph(), &sink);
    }
    sink.SortByPosition();
    std::cerr << FormatDiagnostics(sink.diagnostics(), source, display_name)
              << display_name << ": query does not compile; nothing to show\n";
    return 2;
  }
  return options.show(facts, source, display_name, options.json);
}

constexpr std::pair<const char*, ShowFn> kFacts[] = {
    {"opt", ShowOpt}, {"bound", ShowBound}, {"scope", ShowScope}, {"canon", ShowCanon}};

int UsageError(const std::string& message) {
  std::cerr << "ctlint: " << message << "\n";
  PrintUsage(std::cerr);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      options.json = true;
    } else if (arg == "--werror") {
      options.werror = true;
    } else if (arg == "--rules") {
      PrintRules();
      return 0;
    } else if (arg == "--show") {
      if (options.show != nullptr) {
        return UsageError("--show given twice");
      }
      const char* fact = i + 1 < argc ? argv[++i] : "";
      for (const auto& [name, show] : kFacts) {
        if (std::strcmp(fact, name) == 0) {
          options.show = show;
        }
      }
      if (options.show == nullptr) {
        return UsageError(std::string("unknown fact '") + fact + "' for --show");
      }
    } else if (arg == "--help" || arg == "-h") {
      PrintUsage(std::cout);
      return 0;
    } else if (arg.size() > 1 && arg[0] == '-') {
      return UsageError("unknown flag '" + arg + "'");
    } else {
      options.files.push_back(arg);
    }
  }
  if (options.show != nullptr && options.werror) {
    return UsageError("--show takes no --werror");
  }
  if (options.files.empty()) {
    PrintUsage(std::cerr);
    return 2;
  }
  if (options.show != nullptr) {
    return cloudtalk::cli::ForEachInput(
        "ctlint", options.files, /*open_error_exit=*/2,
        [&options](const std::string& source, const std::string& display_name) {
          return ShowOne(source, display_name, options);
        });
  }

  int exit_code = 0;
  std::vector<LintedInput> inputs;
  for (const std::string& file : options.files) {
    std::string source;
    std::string display_name;
    if (!cloudtalk::cli::ReadInput("ctlint", file, &source, &display_name)) {
      exit_code = std::max(exit_code, 2);
      continue;
    }
    inputs.push_back(LintOne(std::move(source), std::move(display_name)));
  }
  if (inputs.size() > 1) {
    CheckBatchEquivalence(&inputs);
  }
  for (LintedInput& input : inputs) {
    exit_code = std::max(exit_code, Render(&input, options));
  }
  return exit_code;
}
