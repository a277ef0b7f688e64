// Shared CLI plumbing for the ct* tools.
//
// Every tool takes a list of query files (with "-" meaning stdin), reads
// them with the same error handling, and folds per-input exit codes
// together by maximum. That loop was copy-pasted across ctlint, ctopt,
// ctbound, ctstat and ctcanon; it lives here once, next to the JSON string
// escaping of ctcanon and ctscope and the idle status snapshot the ctopt
// and ctbound reports are computed against.
#ifndef CLOUDTALK_TOOLS_CLI_COMMON_H_
#define CLOUDTALK_TOOLS_CLI_COMMON_H_

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/lang/analysis.h"
#include "src/status/status.h"

namespace cloudtalk {
namespace cli {

// Reads one input file ("-" = stdin, displayed as "<stdin>"). Returns false
// with a `tool: cannot open` message on stderr when the file is unreadable.
inline bool ReadInput(const std::string& tool, const std::string& file, std::string* source,
                      std::string* display_name) {
  *display_name = file;
  if (file == "-") {
    std::ostringstream buffer;
    buffer << std::cin.rdbuf();
    *source = buffer.str();
    *display_name = "<stdin>";
    return true;
  }
  std::ifstream in(file);
  if (!in) {
    std::cerr << tool << ": cannot open '" << file << "'\n";
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *source = buffer.str();
  return true;
}

// Runs `handler(source, display_name)` over every input and merges exit
// codes by maximum. Unreadable inputs contribute `open_error_exit` and do
// not stop the sweep.
inline int ForEachInput(const std::string& tool, const std::vector<std::string>& files,
                        int open_error_exit,
                        const std::function<int(const std::string&, const std::string&)>& handler) {
  int exit_code = 0;
  for (const std::string& file : files) {
    std::string source;
    std::string display_name;
    if (!ReadInput(tool, file, &source, &display_name)) {
      exit_code = std::max(exit_code, open_error_exit);
      continue;
    }
    exit_code = std::max(exit_code, handler(source, display_name));
  }
  return exit_code;
}

// Escapes `text` for use inside a JSON string literal.
inline std::string EscapeJson(const std::string& text) {
  std::string out;
  out.reserve(text.size() + 8);
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

// All-idle synthetic snapshot: every address the query can touch reports a
// 1 Gbps NIC, a 4 Gbps disk, and no scalar-resource information — the same
// defaults the tests use. Deterministic, so reports are snapshot-stable.
inline std::unordered_map<std::string, StatusReport> SynthesizeIdleStatus(
    const lang::CompiledQuery& compiled) {
  std::unordered_map<std::string, StatusReport> status;
  NodeId next = 1;
  auto add = [&](const lang::Endpoint& e) {
    if (e.kind != lang::Endpoint::Kind::kAddress || status.count(e.name) > 0) {
      return;
    }
    StatusReport report;
    report.host = next++;
    report.nic_tx_cap = report.nic_rx_cap = 1e9;
    report.disk_read_cap = report.disk_write_cap = 4e9;
    status[e.name] = report;
  };
  for (const lang::VarComm& var : compiled.variables()) {
    for (const lang::Endpoint& e : var.pool) {
      add(e);
    }
  }
  for (const lang::CompiledFlow& flow : compiled.flows()) {
    add(flow.src);
    add(flow.dst);
  }
  return status;
}

}  // namespace cli
}  // namespace cloudtalk

#endif  // CLOUDTALK_TOOLS_CLI_COMMON_H_
