// ctbound: sound makespan-bound report.
//
// Runs the src/lang/bound analysis over a query and a synthetic all-idle
// status snapshot and reports the sound completion-time interval [LB, UB]
// per chain group and for the whole query — the intervals ctlint's
// E080/W080/W081 rules, the server's admission fast path, and the
// exhaustive engine's O500 branch-and-bound pruning are built on. Their
// soundness (D502) is fuzzed by `ctcheck --diff-bound`; that O500 keeps the
// winner, and that the winner lies inside the query interval, is checked
// over the fixtures by OptDifferentialTest (tests/opt_test.cc).
//
//   ctbound query.ct             bound breakdown
//   ctbound --json query.ct      machine-readable breakdown for CI
//   ctbound -                    read the query from stdin
//
// Exit code: 0 = ok, 2 = unusable input or usage error.
#include <cmath>
#include <cstdio>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "src/lang/bound.h"
#include "src/lang/diagnostics.h"
#include "src/lang/parser.h"
#include "tools/cli_common.h"

namespace {

using cloudtalk::lang::BoundAnalysis;
using cloudtalk::lang::BoundInterval;
using cloudtalk::lang::CompiledQuery;
using cloudtalk::lang::DiagnosticSink;
using cloudtalk::lang::GroupBound;
using cloudtalk::lang::Query;

struct Options {
  bool json = false;
  std::vector<std::string> files;
};

void PrintUsage(std::ostream& os) {
  os << "usage: ctbound [--json] <query.ct ...|->\n"
        "\n"
        "Sound makespan bounds for CloudTalk queries: the [LB, UB] interval\n"
        "guaranteed to contain the flow-level estimator's makespan for every\n"
        "binding on an idle cluster, per chain group and for the whole query.\n"
        "\n"
        "  --json        machine-readable output (one JSON object per input)\n"
        "  -             read a query from standard input\n"
        "\n"
        "exit code: 0 = ok, 2 = unusable input\n";
}

std::string FormatSeconds(double seconds) {
  if (std::isinf(seconds)) {
    return "inf";
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", seconds);
  return buf;
}

// JSON number or null for infinities (JSON has no inf literal).
std::string JsonSeconds(double seconds) {
  return std::isfinite(seconds) ? FormatSeconds(seconds) : std::string("null");
}

// First member flow of a group, for display.
std::string GroupFlowName(const CompiledQuery& compiled, int g) {
  const auto& indices = compiled.groups()[g].flow_indices;
  return indices.empty() ? std::string("?") : compiled.flows()[indices.front()].name;
}

int BoundOne(const std::string& source, const std::string& display_name,
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
    std::cerr << display_name << ": query does not compile; nothing to bound\n";
    return 2;
  }

  const BoundAnalysis bounds =
      BoundAnalysis::Build(*compiled, cloudtalk::cli::SynthesizeIdleStatus(*compiled));
  const BoundInterval& q = bounds.query_bounds();

  if (options.json) {
    std::ostringstream os;
    os << "{\"query\":{\"lb\":" << JsonSeconds(q.lb) << ",\"ub\":" << JsonSeconds(q.ub)
       << "},\"groups\":[";
    for (size_t i = 0; i < bounds.group_bounds().size(); ++i) {
      const GroupBound& gb = bounds.group_bounds()[i];
      os << (i ? "," : "") << "{\"group\":" << gb.group << ",\"flow\":\""
         << GroupFlowName(*compiled, gb.group) << "\",\"lb\":" << JsonSeconds(gb.interval.lb)
         << ",\"ub\":" << JsonSeconds(gb.interval.ub)
         << ",\"deadline\":" << JsonSeconds(gb.deadline)
         << ",\"provably_infeasible\":" << (gb.provably_infeasible ? "true" : "false")
         << ",\"trivially_satisfied\":" << (gb.trivially_satisfied ? "true" : "false") << "}";
    }
    os << "]}";
    std::cout << os.str() << "\n";
  } else {
    std::cout << display_name << ": query bounds [" << FormatSeconds(q.lb) << "s, "
              << FormatSeconds(q.ub) << "s]\n";
    for (const GroupBound& gb : bounds.group_bounds()) {
      std::cout << "  group " << gb.group << " (flow '" << GroupFlowName(*compiled, gb.group)
                << "'): [" << FormatSeconds(gb.interval.lb) << "s, "
                << FormatSeconds(gb.interval.ub) << "s]";
      if (std::isfinite(gb.deadline)) {
        std::cout << " deadline " << FormatSeconds(gb.deadline) << "s";
        if (gb.provably_infeasible) {
          std::cout << " PROVABLY INFEASIBLE";
        } else if (gb.trivially_satisfied) {
          std::cout << " trivially satisfied";
        }
      }
      std::cout << "\n";
    }
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
    } else if (arg == "--help" || arg == "-h") {
      PrintUsage(std::cout);
      return 0;
    } else if (arg.size() > 1 && arg[0] == '-') {
      std::cerr << "ctbound: unknown flag '" << arg << "'\n";
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
      "ctbound", options.files, /*open_error_exit=*/2,
      [&options](const std::string& source, const std::string& display_name) {
        return BoundOne(source, display_name, options);
      });
}
