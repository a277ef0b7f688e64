// ctlint: static analyzer for CloudTalk query files.
//
// Runs the full diagnostics pipeline — lexer, parser (with recovery), lint
// rules, semantic compilation — over each input and reports every finding
// with source position, rule code, and fix-it hint. With more than one
// input, also cross-checks the batch for semantically equivalent queries
// (rule W092): two inputs whose canonical forms are byte-identical get the
// same answer from the server and usually indicate accidental duplication.
//
//   ctlint query.ct             clang-style text diagnostics
//   ctlint --json query.ct      machine-readable output for CI
//   ctlint --werror query.ct    warnings are promoted to errors
//   ctlint -                    read the query from stdin
//   ctlint --rules              list every registered lint rule
//
// Exit code is the maximum severity across all inputs: 0 clean, 1 warnings,
// 2 errors (with --werror, warnings exit 2 as well).
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "src/lang/analysis.h"
#include "src/lang/diagnostics.h"
#include "src/lang/lint.h"
#include "src/lang/parser.h"
#include "tools/cli_common.h"

namespace {

using cloudtalk::lang::BatchEquivalence;
using cloudtalk::lang::CompiledQuery;
using cloudtalk::lang::DiagnosticSink;
using cloudtalk::lang::Query;
using cloudtalk::lang::Severity;
using cloudtalk::lang::Span;

struct Options {
  bool json = false;
  bool werror = false;
  std::vector<std::string> files;
};

void PrintUsage(std::ostream& os) {
  os << "usage: ctlint [--json] [--werror] <query.ct ...|->\n"
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
        "  --rules   list registered lint rules and exit\n"
        "  -         read a query from standard input\n"
        "\n"
        "exit code: 0 = clean, 1 = warnings, 2 = errors\n";
}

void PrintRules() {
  for (const cloudtalk::lang::LintRule& rule : cloudtalk::lang::LintRules()) {
    std::cout << rule.code << "  " << cloudtalk::lang::SeverityName(rule.severity) << "  "
              << rule.name << ": " << rule.summary << "\n";
  }
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
  const cloudtalk::lang::QueryFacts facts(input.query);
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
    char hash[32];
    std::snprintf(hash, sizeof(hash), "%016llx",
                  static_cast<unsigned long long>(equivalence[i].hash));
    (*inputs)[i].sink.AddWarning(
        "W092", Span{1, 1, 1},
        "query is semantically equivalent to earlier input '" +
            (*inputs)[equivalence[i].equivalent_to].display_name + "'",
        std::string("the canonical forms are byte-identical (hash ") + hash +
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
    } else if (arg == "--help" || arg == "-h") {
      PrintUsage(std::cout);
      return 0;
    } else if (arg.size() > 1 && arg[0] == '-') {
      std::cerr << "ctlint: unknown flag '" << arg << "'\n";
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
