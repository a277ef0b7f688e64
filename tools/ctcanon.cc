// ctcanon: canonical form, content hash, and semantic equivalence of
// CloudTalk queries (src/lang/canon).
//
//   ctcanon query.ct            print the canonical text (default: --print)
//   ctcanon --hash query.ct     print "<hash>  <file>" per input
//   ctcanon --json query.ct     hash, canonical text and the name
//                               certificate as JSON (one object per line)
//   ctcanon --equiv a.ct b.ct   decide equivalence: exit 0 when the two
//                               queries canonicalize to the same bytes
//   ctcanon -                   read a query from standard input
//
// That the canonical form is answered like the original (D503) is fuzzed by
// `ctcheck --diff-canon` and checked over the good fixtures by
// ShardedServerTest (tests/shard_test.cc).
//
// exit code: 0 = ok / equivalent, 1 = not equivalent, 2 = unusable input or
// usage error
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "src/lang/canon.h"
#include "src/lang/parser.h"
#include "tools/cli_common.h"

namespace {

using cloudtalk::Result;
using cloudtalk::cli::EscapeJson;
using cloudtalk::lang::CanonicalQuery;
using cloudtalk::lang::Query;

struct Options {
  bool print = false;
  bool hash = false;
  bool json = false;
  bool equiv = false;
  std::vector<std::string> files;
};

void PrintUsage(std::ostream& os) {
  os << "usage: ctcanon [--print] [--hash] [--json] <query.ct ...|->\n"
        "       ctcanon --equiv <a.ct> <b.ct>\n"
        "\n"
        "Canonicalizes CloudTalk queries: semantically equivalent queries\n"
        "(renamed, reordered, respelled) share one canonical text and hash.\n"
        "\n"
        "  --print     print the canonical text (default when no mode given)\n"
        "  --hash      print the 64-bit content hash per input\n"
        "  --json      hash, canonical text and name certificate as JSON\n"
        "  --equiv     decide equivalence of exactly two queries\n"
        "  -           read a query from standard input\n"
        "\n"
        "exit code: 0 = ok/equivalent, 1 = not equivalent, 2 = unusable input\n";
}

std::string HashText(uint64_t hash) {
  char text[17];
  std::snprintf(text, sizeof(text), "%016llx", static_cast<unsigned long long>(hash));
  return text;
}

// Parses and canonicalizes one input; returns false (with a message) on
// syntax errors or queries too ambiguous to rename (duplicate names).
bool CanonicalizeSource(const std::string& source, const std::string& display_name,
                        CanonicalQuery* canon) {
  const Result<Query> parsed = cloudtalk::lang::Parse(source);
  if (!parsed.ok()) {
    std::cerr << display_name << ": " << parsed.error().message << "\n";
    return false;
  }
  Result<CanonicalQuery> result = cloudtalk::lang::Canonicalize(parsed.value());
  if (!result.ok()) {
    std::cerr << display_name << ": " << result.error().message << "\n";
    return false;
  }
  *canon = std::move(result.value());
  return true;
}

void PrintJson(const CanonicalQuery& canon, const std::string& display_name) {
  std::cout << "{\"file\": \"" << EscapeJson(display_name) << "\", \"hash\": \""
            << HashText(canon.hash) << "\", \"canonical\": \"" << EscapeJson(canon.text)
            << "\", \"variables\": [";
  for (size_t i = 0; i < canon.variable_map.size(); ++i) {
    const auto& [original, renamed] = canon.variable_map[i];
    std::cout << (i > 0 ? ", " : "") << "{\"original\": \"" << EscapeJson(original)
              << "\", \"canonical\": \"" << EscapeJson(renamed) << "\"}";
  }
  std::cout << "], \"flows\": [";
  for (size_t i = 0; i < canon.flow_map.size(); ++i) {
    const auto& [original, renamed] = canon.flow_map[i];
    std::cout << (i > 0 ? ", " : "") << "{\"original\": \"" << EscapeJson(original)
              << "\", \"canonical\": \"" << EscapeJson(renamed) << "\"}";
  }
  std::cout << "]}\n";
}

int RunOne(const std::string& source, const std::string& display_name, const Options& options) {
  CanonicalQuery canon;
  if (!CanonicalizeSource(source, display_name, &canon)) {
    return 2;
  }
  if (options.hash) {
    std::cout << HashText(canon.hash) << "  " << display_name << "\n";
  }
  if (options.print) {
    std::cout << canon.text;
  }
  if (options.json) {
    PrintJson(canon, display_name);
  }
  return 0;
}

int RunEquiv(const Options& options) {
  if (options.files.size() != 2) {
    std::cerr << "ctcanon: --equiv takes exactly two queries\n";
    return 2;
  }
  CanonicalQuery canon[2];
  for (int i = 0; i < 2; ++i) {
    std::string source;
    std::string display_name;
    if (!cloudtalk::cli::ReadInput("ctcanon", options.files[i], &source, &display_name)) {
      return 2;
    }
    if (!CanonicalizeSource(source, display_name, &canon[i])) {
      return 2;
    }
  }
  if (canon[0].text == canon[1].text) {
    std::cout << "equivalent (hash " << HashText(canon[0].hash) << ")\n";
    return 0;
  }
  std::cout << "distinct (hash " << HashText(canon[0].hash) << " vs "
            << HashText(canon[1].hash) << ")\n";
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--print") {
      options.print = true;
    } else if (arg == "--hash") {
      options.hash = true;
    } else if (arg == "--json") {
      options.json = true;
    } else if (arg == "--equiv") {
      options.equiv = true;
    } else if (arg == "--help" || arg == "-h") {
      PrintUsage(std::cout);
      return 0;
    } else if (arg.size() > 1 && arg[0] == '-') {
      std::cerr << "ctcanon: unknown flag '" << arg << "'\n";
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
  if (options.equiv) {
    return RunEquiv(options);
  }
  if (!options.hash && !options.json) {
    options.print = true;
  }
  return cloudtalk::cli::ForEachInput(
      "ctcanon", options.files, /*open_error_exit=*/2,
      [&options](const std::string& source, const std::string& display_name) {
        return RunOne(source, display_name, options);
      });
}
