// ctscope: static footprint & effect analysis of CloudTalk queries
// (src/lang/scope).
//
//   ctscope query.ct            print the footprint report (default: --print)
//   ctscope --json query.ct     effects, footprint, and excluded hosts as
//                               JSON (one object per line)
//   ctscope -                   read a query from standard input
//
// That probing only the footprint answers like probing everything (D504) is
// fuzzed by `ctcheck --diff-scope` and checked under load by
// ScopeClusterTest (tests/scope_test.cc).
//
// exit code: 0 = ok, 2 = unusable input or usage error
#include <iostream>
#include <string>
#include <vector>

#include "src/lang/parser.h"
#include "src/lang/scope.h"
#include "tools/cli_common.h"

namespace {

using cloudtalk::Result;
using cloudtalk::cli::EscapeJson;
using cloudtalk::lang::CompiledQuery;
using cloudtalk::lang::Query;
using cloudtalk::lang::ScopeAnalysis;
using cloudtalk::lang::ScopeHost;

struct Options {
  bool print = false;
  bool json = false;
  std::vector<std::string> files;
};

void PrintUsage(std::ostream& os) {
  os << "usage: ctscope [--print] [--json] <query.ct ...|->\n"
        "\n"
        "Computes the static host footprint and effect set of CloudTalk\n"
        "queries: which hosts the answer can depend on (and which status\n"
        "fields of each), and whether answering reserves or samples.\n"
        "\n"
        "  --print     print the footprint report (default when no mode given)\n"
        "  --json      effects, footprint, and excluded hosts as JSON\n"
        "  -           read a query from standard input\n"
        "\n"
        "exit code: 0 = ok, 2 = unusable input\n";
}

// Parses and compiles one input, then runs the scope analysis.
bool AnalyzeSource(const std::string& source, const std::string& display_name,
                   ScopeAnalysis* scope) {
  const Result<Query> parsed = cloudtalk::lang::Parse(source);
  if (!parsed.ok()) {
    std::cerr << display_name << ": " << parsed.error().message << "\n";
    return false;
  }
  const Result<CompiledQuery> compiled = CompiledQuery::Compile(parsed.value());
  if (!compiled.ok()) {
    std::cerr << display_name << ": " << compiled.error().message << "\n";
    return false;
  }
  *scope = cloudtalk::lang::AnalyzeScope(compiled.value());
  return true;
}

void PrintReport(const ScopeAnalysis& scope, const std::string& display_name) {
  std::cout << display_name << ": effects " << cloudtalk::lang::EffectsName(scope.effects)
            << ", footprint " << scope.footprint.size() << " host"
            << (scope.footprint.size() == 1 ? "" : "s") << ", excluded "
            << scope.excluded.size() << "\n";
  for (const ScopeHost& host : scope.footprint) {
    std::cout << "  " << host.address << "  fields="
              << cloudtalk::lang::ScopeFieldNames(host.fields)
              << (host.candidate ? " candidate" : "") << (host.endpoint ? " endpoint" : "")
              << "\n";
  }
  for (const std::string& address : scope.excluded) {
    std::cout << "  " << address << "  excluded (never probed)\n";
  }
  for (const std::string& var : scope.inert_variables) {
    std::cout << "  inert variable " << var << "\n";
  }
}

void PrintJson(const ScopeAnalysis& scope, const std::string& display_name) {
  std::cout << "{\"file\": \"" << EscapeJson(display_name) << "\", \"effects\": \""
            << cloudtalk::lang::EffectsName(scope.effects)
            << "\", \"max_pool_size\": " << scope.effects.max_pool_size
            << ", \"footprint\": [";
  for (size_t i = 0; i < scope.footprint.size(); ++i) {
    const ScopeHost& host = scope.footprint[i];
    std::cout << (i > 0 ? ", " : "") << "{\"host\": \"" << EscapeJson(host.address)
              << "\", \"fields\": \"" << cloudtalk::lang::ScopeFieldNames(host.fields)
              << "\", \"candidate\": " << (host.candidate ? "true" : "false")
              << ", \"endpoint\": " << (host.endpoint ? "true" : "false") << "}";
  }
  std::cout << "], \"excluded\": [";
  for (size_t i = 0; i < scope.excluded.size(); ++i) {
    std::cout << (i > 0 ? ", " : "") << "\"" << EscapeJson(scope.excluded[i]) << "\"";
  }
  std::cout << "], \"inert_variables\": [";
  for (size_t i = 0; i < scope.inert_variables.size(); ++i) {
    std::cout << (i > 0 ? ", " : "") << "\"" << EscapeJson(scope.inert_variables[i]) << "\"";
  }
  std::cout << "]}\n";
}

int RunOne(const std::string& source, const std::string& display_name, const Options& options) {
  ScopeAnalysis scope;
  if (!AnalyzeSource(source, display_name, &scope)) {
    return 2;
  }
  if (options.print) {
    PrintReport(scope, display_name);
  }
  if (options.json) {
    PrintJson(scope, display_name);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--print") {
      options.print = true;
    } else if (arg == "--json") {
      options.json = true;
    } else if (arg == "--help" || arg == "-h") {
      PrintUsage(std::cout);
      return 0;
    } else if (arg.size() > 1 && arg[0] == '-') {
      std::cerr << "ctscope: unknown flag '" << arg << "'\n";
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
  if (!options.json) {
    options.print = true;
  }
  return cloudtalk::cli::ForEachInput(
      "ctscope", options.files, /*open_error_exit=*/2,
      [&options](const std::string& source, const std::string& display_name) {
        return RunOne(source, display_name, options);
      });
}
