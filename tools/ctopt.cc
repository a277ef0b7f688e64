// ctopt: static query-optimisation report.
//
// Runs the src/lang/opt passes over a query against a synthetic all-idle
// status snapshot and shows what the exhaustive engine would prune:
// requirement-infeasible candidates (O100), symmetric variable orbits
// (O200), independent components and inert variables (O300), and dead flows
// folded out of the memo signature (O400). That the pruned search returns a
// byte-identical answer (D500) is checked over the fixtures by
// OptDifferentialTest (tests/opt_test.cc) and fuzzed by `ctcheck --diff-opt`.
//
//   ctopt query.ct               remarks + plan summary
//   ctopt --json query.ct        machine-readable remarks and plan for CI
//   ctopt --passes O100,O400 q.ct  run a subset of the passes
//   ctopt --list                 list registered passes and exit
//   ctopt -                      read the query from stdin
//
// Exit code: 0 = ok, 2 = unusable input or usage error.
#include <cmath>
#include <cstdio>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "src/lang/diagnostics.h"
#include "src/lang/opt.h"
#include "src/lang/parser.h"
#include "tools/cli_common.h"

namespace {

using cloudtalk::lang::CompiledQuery;
using cloudtalk::lang::DiagnosticSink;
using cloudtalk::lang::OptimizeParams;
using cloudtalk::lang::OptPass;
using cloudtalk::lang::OptPasses;
using cloudtalk::lang::PrunedSpace;
using cloudtalk::lang::Query;

struct Options {
  bool json = false;
  uint32_t passes = cloudtalk::lang::kOptAllPasses;
  std::vector<std::string> files;
};

void PrintUsage(std::ostream& os) {
  os << "usage: ctopt [--json] [--passes O100,...] <query.ct ...|->\n"
        "       ctopt --list\n"
        "\n"
        "Static optimisation report for CloudTalk queries: shows which parts\n"
        "of the exhaustive binding space the src/lang/opt passes prune on an\n"
        "idle cluster.\n"
        "\n"
        "  --json       machine-readable output (one JSON object per input)\n"
        "  --passes L   comma-separated pass codes to run (default: all)\n"
        "  --list       list registered passes and exit\n"
        "  -            read a query from standard input\n"
        "\n"
        "exit code: 0 = ok, 2 = unusable input\n";
}

void PrintPasses() {
  for (const OptPass& pass : OptPasses()) {
    std::cout << pass.code << "  " << pass.name << ": " << pass.summary << "\n";
  }
}

// Parses "O100,O200" into a pass bitmask; returns false on an unknown code.
bool ParsePassList(const std::string& list, uint32_t* passes) {
  *passes = 0;
  std::istringstream in(list);
  std::string code;
  while (std::getline(in, code, ',')) {
    bool found = false;
    for (const OptPass& pass : OptPasses()) {
      if (code == pass.code) {
        *passes |= pass.bit;
        found = true;
        break;
      }
    }
    if (!found) {
      std::cerr << "ctopt: unknown pass '" << code << "' (try --list)\n";
      return false;
    }
  }
  return true;
}

std::string FormatSpace(double count) {
  char buf[32];
  if (count < 1e6) {
    std::snprintf(buf, sizeof(buf), "%.0f", count);
  } else {
    std::snprintf(buf, sizeof(buf), "%.3g", count);
  }
  return buf;
}

std::string PlanJson(const PrunedSpace& plan) {
  int pinned = 0;
  for (const int32_t p : plan.pinned) {
    pinned += p >= 0 ? 1 : 0;
  }
  std::ostringstream os;
  os << "{\"infeasible\":" << (plan.infeasible ? "true" : "false")
     << ",\"space_before\":" << plan.space_before << ",\"space_after\":" << plan.space_after
     << ",\"bindings_pruned\":" << plan.bindings_pruned
     << ",\"components\":" << plan.components << ",\"pinned\":" << pinned
     << ",\"dead_flows\":" << plan.dead_flows.size()
     << ",\"bound_pruning\":" << (plan.bound_pruning ? "true" : "false");
  if (plan.bound_pruning) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.6g", plan.bound_lb);
    os << ",\"bound_lb\":" << buf << ",\"bound_ub\":";
    if (std::isfinite(plan.bound_ub)) {
      std::snprintf(buf, sizeof(buf), "%.6g", plan.bound_ub);
      os << buf;
    } else {
      os << "null";
    }
  }
  // Per-pass attribution in execution order: wall time (run-dependent; not
  // for snapshots) and the static binding-space reduction each pass owns.
  os << ",\"passes\":[";
  for (size_t i = 0; i < plan.pass_stats.size(); ++i) {
    const cloudtalk::lang::PassStat& ps = plan.pass_stats[i];
    char seconds[32];
    std::snprintf(seconds, sizeof(seconds), "%.6g", ps.wall_seconds);
    os << (i ? "," : "") << "{\"code\":\"" << ps.code << "\",\"wall_seconds\":" << seconds
       << ",\"pruned_bindings\":" << ps.pruned_bindings << "}";
  }
  os << "]}";
  return os.str();
}

// Runs the passes over one query. Returns the exit-code contribution.
int OptimizeOne(const std::string& source, const std::string& display_name,
                const Options& options) {
  DiagnosticSink parse_sink;
  const Query query = cloudtalk::lang::ParseWithDiagnostics(source, &parse_sink);
  std::optional<CompiledQuery> compiled;
  if (!parse_sink.has_errors()) {
    compiled = CompiledQuery::Compile(query, &parse_sink);
  }
  if (parse_sink.has_errors() || !compiled.has_value()) {
    parse_sink.SortByPosition();
    std::cerr << FormatDiagnostics(parse_sink.diagnostics(), source, display_name);
    std::cerr << display_name << ": query does not compile; nothing to optimise\n";
    return 2;
  }

  const auto status = cloudtalk::cli::SynthesizeIdleStatus(*compiled);
  OptimizeParams opt_params;
  opt_params.distinct = !query.options.allow_same_binding;
  opt_params.passes = options.passes;
  DiagnosticSink remarks;
  const PrunedSpace plan = Optimize(*compiled, status, opt_params, &remarks);
  remarks.SortByPosition();

  if (options.json) {
    std::cout << "{\"plan\":" << PlanJson(plan) << ",\"diagnostics\":"
              << DiagnosticsToJson(remarks.diagnostics(), display_name) << "}\n";
  } else {
    if (!remarks.empty()) {
      std::cout << FormatDiagnostics(remarks.diagnostics(), source, display_name);
    }
    std::cout << display_name << ": plan: " << FormatSpace(plan.space_before) << " -> "
              << FormatSpace(plan.space_after) << " bindings ("
              << plan.bindings_pruned << " pruned statically)";
    if (plan.infeasible) {
      std::cout << "; infeasible: " << plan.infeasible_reason;
    }
    std::cout << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      options.json = true;
    } else if (arg == "--passes") {
      if (i + 1 >= argc || !ParsePassList(argv[++i], &options.passes)) {
        PrintUsage(std::cerr);
        return 2;
      }
    } else if (arg == "--list") {
      PrintPasses();
      return 0;
    } else if (arg == "--help" || arg == "-h") {
      PrintUsage(std::cout);
      return 0;
    } else if (arg.size() > 1 && arg[0] == '-') {
      std::cerr << "ctopt: unknown flag '" << arg << "'\n";
      PrintUsage(std::cerr);
      return 2;
    } else {
      options.files.push_back(arg);
    }
  }
  if (options.files.empty()) {
    PrintUsage(std::cerr);
    return 2;
  }

  return cloudtalk::cli::ForEachInput(
      "ctopt", options.files, /*open_error_exit=*/2,
      [&options](const std::string& source, const std::string& display_name) {
        return OptimizeOne(source, display_name, options);
      });
}
